// Baseline comparison: the 3G era (Xu et al., SIGMETRICS'11) vs the
// paper's LTE era.
//
// Xu et al. concluded that with 4-6 egress points and radio latency
// dominating, "choosing content servers based on local DNS servers is
// sufficiently accurate". The paper's thesis is that LTE flips this: more
// egress points and a fast radio make replica mislocalization *matter*.
// This bench builds both worlds and measures, for the same fleet logic,
// how much of the end-to-end replica TTFB the DNS-driven replica choice
// actually costs in each era.
#include <cstdio>

#include "cellular/device.h"
#include "core/world.h"
#include "dns/stub.h"
#include "measure/probes.h"
#include "net/device_state.h"

namespace {

using namespace curtain;

struct EraStats {
  double access_sum = 0.0;   ///< radio access RTT per replica fetch
  double ttfb_sum = 0.0;     ///< total HTTP TTFB to the assigned replica
  double penalty_sum = 0.0;  ///< assigned-replica RTT minus best-replica RTT
  int n = 0;
};

EraStats measure_era(core::World& world, uint64_t seed) {
  EraStats stats;
  measure::ProbeEngine probes(
      measure::WorldView{world.topology(), world.registry()});
  auto& provider = world.cdn("curtaincdn");
  const auto host = dns::DnsName::parse("m.yelp.com");
  net::Rng rng(seed);

  for (size_t c = 0; c < world.carriers().size(); ++c) {
    auto& carrier = world.carrier(c);
    if (carrier.profile().country != "US") continue;
    for (int d = 0; d < 8; ++d) {
      cellular::Fleet fleet(&carrier, 1);
      fleet.enroll(
          0, static_cast<uint64_t>(c * 100 + static_cast<size_t>(d)),
          net::us_metros()[static_cast<size_t>(d) % net::us_metros().size()]
              .location);
      cellular::Device device = fleet.device(0);
      net::DeviceState device_state(d + 1);  // its caches and NAT cursor
      for (int hour = 0; hour < 48; hour += 4) {
        const auto now = net::SimTime::from_hours(hour);
        const auto snapshot =
            device.begin_experiment(now, rng, device_state);
        dns::StubResolver stub(device.gateway_node(), snapshot.public_ip,
                               world.topology(), world.registry());
        const double access = device.access_rtt_ms(now, rng);
        const auto result =
            stub.query(snapshot.configured_resolver, *host, dns::RRType::kA,
                       now, rng, device_state, access);
        if (!result.responded || result.addresses().empty()) continue;

        const measure::ProbeOrigin wired{device.gateway_node(),
                                         snapshot.public_ip, 0.0};
        const auto assigned =
            probes.ping(wired, result.addresses()[0], now, rng);
        const auto& best = provider.nearest_cluster(snapshot.location, "US");
        const auto optimal = probes.ping(wired, best.replica_ips[0], now, rng);
        if (!assigned.responded || !optimal.responded) continue;

        const measure::ProbeOrigin radio{device.gateway_node(),
                                         snapshot.public_ip,
                                         device.access_rtt_ms(now, rng)};
        const auto http =
            probes.http_get(radio, result.addresses()[0], now, rng);
        if (!http.responded) continue;

        stats.access_sum += radio.access_rtt_ms;
        stats.ttfb_sum += http.ttfb_ms;
        stats.penalty_sum +=
            std::max(0.0, assigned.rtt_ms - optimal.rtt_ms);
        ++stats.n;
      }
    }
  }
  return stats;
}

void print_era(const char* label, const EraStats& stats, size_t egress_total) {
  const double n = stats.n;
  const double penalty = stats.penalty_sum / n;
  const double ttfb = stats.ttfb_sum / n;
  std::printf("  %-10s access RTT %.0f ms   replica TTFB %.0f ms   "
              "mislocalization cost %.1f ms (%.0f%% of TTFB)   "
              "US egress points %zu\n",
              label, stats.access_sum / n, ttfb, penalty,
              100.0 * penalty / ttfb, egress_total);
}

size_t egress_count(const core::World& world) {
  size_t total = 0;
  for (const auto& carrier : world.carriers()) {
    if (carrier->profile().country == "US") {
      total += static_cast<size_t>(carrier->profile().egress_points);
    }
  }
  return total;
}

}  // namespace

int main() {
  std::printf("================================================================\n");
  std::printf("Baseline — 3G era (Xu et al. '11) vs the paper's LTE era\n");
  std::printf("================================================================\n");
  std::fprintf(stderr, "[bench] building 3G-era and LTE worlds...\n");

  core::World xu_world(
      core::Scenario::paper_2014().with_carriers(cellular::xu_era_carriers()));
  core::World lte_world;

  const EraStats g3 = measure_era(xu_world, 3);
  const EraStats lte = measure_era(lte_world, 3);
  print_era("3G era", g3, egress_count(xu_world));
  print_era("LTE era", lte, egress_count(lte_world));

  const double g3_share = g3.penalty_sum / g3.ttfb_sum;
  const double lte_share = lte.penalty_sum / lte.ttfb_sum;
  std::printf("\nReplica mislocalization is %.1fx more significant relative\n"
              "to end-to-end latency under LTE — the paper's motivating\n"
              "claim for revisiting DNS-based replica selection (§2.1).\n",
              lte_share / g3_share);
  return 0;
}
