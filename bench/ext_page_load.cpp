// Extension: page-load time vs ping as a replica comparison metric.
//
// The paper (§3.3) follows Gember et al. in preferring ping latency over
// page-load time because PLT is noisier and context-dependent. With the
// PLT model we can quantify both claims:
//   1. stability — coefficient of variation of repeated PLTs vs pings to
//      the same replica;
//   2. impact — how much a mislocalized replica inflates full page loads
//      (the end-user cost behind Fig. 2's latency penalties).
#include <cmath>
#include <cstdio>

#include "cellular/device.h"
#include "core/world.h"
#include "measure/pageload.h"
#include "net/device_state.h"

namespace {

using namespace curtain;

struct Series {
  double sum = 0.0;
  double sum_sq = 0.0;
  int n = 0;
  void add(double v) {
    sum += v;
    sum_sq += v * v;
    ++n;
  }
  double mean() const { return n == 0 ? 0.0 : sum / n; }
  double cv() const {
    if (n < 2) return 0.0;
    const double m = mean();
    const double variance = sum_sq / n - m * m;
    return m > 0 ? std::sqrt(std::max(0.0, variance)) / m : 0.0;
  }
};

}  // namespace

int main() {
  std::printf("================================================================\n");
  std::printf("Extension — page-load time vs ping as replica metrics (§3.3)\n");
  std::printf("================================================================\n");

  core::World world;
  const measure::WorldView view{world.topology(), world.registry()};
  measure::PageLoadEstimator plt(view);
  measure::ProbeEngine probes(view);
  auto& provider = world.cdn("curtaincdn");
  const auto page = measure::PageSpec::mobile_default();
  net::Rng rng(net::hash_tag("ext-page-load"));

  std::printf("  %-12s %10s %10s %12s %12s %14s\n", "Carrier", "ping CV",
              "PLT CV", "PLT best", "PLT assigned", "PLT inflation");
  for (size_t c = 0; c < world.carriers().size(); ++c) {
    auto& carrier = world.carrier(c);
    cellular::Fleet fleet(&carrier, 1);
    fleet.enroll(0, static_cast<uint64_t>(c + 1),
                 carrier.profile().country == "KR"
                     ? net::GeoPoint{37.57, 126.98}
                     : net::GeoPoint{33.75, -84.39});
    cellular::Device device = fleet.device(0);
    net::DeviceState device_state(1);  // its caches and NAT cursor
    Series ping_series;
    Series plt_series;
    Series plt_best;
    Series plt_assigned;
    for (int hour = 0; hour < 96; hour += 2) {
      const auto now = net::SimTime::from_hours(hour);
      const auto snapshot = device.begin_experiment(now, rng, device_state);
      // Control for radio context like the paper (§3.3): LTE-only, so the
      // metric comparison is not drowned by technology switching.
      if (snapshot.radio != cellular::RadioTech::kLte) continue;
      const auto pair = carrier.select_pair(0, snapshot.public_ip, now, rng);
      if (pair.external == nullptr) continue;
      const auto& assigned = provider.cluster_for_resolver(pair.external->ip());
      const auto& best = provider.nearest_cluster(
          snapshot.location, carrier.profile().country);

      // Bootstrap ping first (the paper's script, §3.2): pay the RRC
      // promotion before the measurements, not inside them.
      device.access_rtt_ms(now, rng);

      // Stability: repeated ping vs repeated PLT to the *same* replica.
      const measure::ProbeOrigin origin{device.gateway_node(),
                                        snapshot.public_ip,
                                        device.access_rtt_ms(now, rng)};
      const auto ping = probes.ping(origin, best.replica_ips[0], now, rng);
      if (ping.responded) ping_series.add(ping.rtt_ms);
      const auto best_load = plt.load(origin, best.replica_ips[0],
                                      snapshot.radio, 45.0, page, now, rng);
      if (best_load.completed) {
        plt_series.add(best_load.plt_ms);
        plt_best.add(best_load.plt_ms);
      }
      const auto assigned_load = plt.load(origin, assigned.replica_ips[0],
                                          snapshot.radio, 45.0, page, now, rng);
      if (assigned_load.completed) plt_assigned.add(assigned_load.plt_ms);
    }
    std::printf("  %-12s %9.2f %10.2f %9.0f ms %9.0f ms %12.1f%%\n",
                carrier.profile().name.c_str(), ping_series.cv(),
                plt_series.cv(), plt_best.mean(), plt_assigned.mean(),
                (plt_assigned.mean() / plt_best.mean() - 1.0) * 100.0);
  }
  std::printf("\nNote: with only network effects modeled, long transfers\n"
              "actually smooth PLT (lower CV). Gember et al.'s instability\n"
              "argument — and the paper's choice of ping — rests on *device*\n"
              "context (CPU, rendering, screen state) that no network\n"
              "simulator sees, which is itself the point: PLT entangles the\n"
              "client, ping isolates the path. Replica assignment still\n"
              "shows up as whole-page slowdown (the 'inflation' column).\n");
  return 0;
}
