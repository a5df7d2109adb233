// CDN operator's view: how good can replica selection be, given what the
// mapping system can actually see?
//
// For every carrier, compares three mapping strategies for real device
// traffic:
//   1. resolver-based (production, what the paper measures): map by the
//      external resolver's /24;
//   2. oracle (upper bound / the paper's future-work direction): map by
//      the *client's* true location;
//   3. country-only (no information): sticky hash within the country.
// Prints the mean replica RTT each strategy achieves — quantifying how
// much cellular DNS opaqueness and client/resolver inconsistency cost.
//
//   $ ./build/examples/cdn_operator
#include <cstdio>

#include "cellular/device.h"
#include "core/world.h"
#include "measure/probes.h"
#include "net/device_state.h"

int main() {
  using namespace curtain;

  core::World world;
  auto& provider = world.cdn("curtaincdn");
  measure::ProbeEngine probes(
      measure::WorldView{world.topology(), world.registry()});
  net::Rng rng(net::hash_tag("cdn-operator"));

  std::printf("%-12s %14s %14s %14s\n", "Carrier", "resolver-based",
              "client-oracle", "country-only");
  for (const auto& carrier : world.carriers()) {
    cellular::Fleet fleet(carrier.get(), 1);
    fleet.enroll(0, 1,
                 carrier->profile().country == "KR"
                     ? net::GeoPoint{35.18, 129.08}    // Busan
                     : net::GeoPoint{39.74, -104.99});  // Denver
    cellular::Device device = fleet.device(0);
    // The device's caches and NAT cursor live for its two weeks.
    net::DeviceState device_state(1);
    double sum_resolver = 0.0;
    double sum_oracle = 0.0;
    double sum_country = 0.0;
    int samples = 0;
    for (int hour = 0; hour < 24 * 14; hour += 3) {
      const auto now = net::SimTime::from_hours(hour);
      const auto snapshot = device.begin_experiment(now, rng, device_state);
      const auto pair =
          carrier->select_pair(0, snapshot.public_ip, now, rng);
      if (pair.external == nullptr) continue;

      const measure::ProbeOrigin origin{device.gateway_node(),
                                        snapshot.public_ip, 0.0};
      const auto rtt_to = [&](const cdn::ReplicaCluster& cluster) {
        const auto ping = probes.ping(origin, cluster.replica_ips[0], now, rng);
        return ping.responded ? ping.rtt_ms : 1000.0;
      };

      sum_resolver += rtt_to(provider.cluster_for_resolver(pair.external->ip()));
      sum_oracle += rtt_to(provider.nearest_cluster(
          snapshot.location, carrier->profile().country));
      // Country-only: a sticky hash of the subscriber's NAT /24.
      const auto& clusters = provider.clusters();
      const uint64_t h = net::mix_key(1, snapshot.public_ip.slash24().value());
      std::vector<const cdn::ReplicaCluster*> pool;
      for (const auto& cluster : clusters) {
        if (cluster.country == carrier->profile().country) {
          pool.push_back(&cluster);
        }
      }
      sum_country += rtt_to(*pool[h % pool.size()]);
      ++samples;
    }
    std::printf("%-12s %11.1f ms %11.1f ms %11.1f ms   (n=%d)\n",
                carrier->profile().name.c_str(), sum_resolver / samples,
                sum_oracle / samples, sum_country / samples, samples);
  }
  std::printf("\nThe gap between 'resolver-based' and 'client-oracle' is what\n"
              "better client localization would buy in each network — the\n"
              "paper's closing argument for moving beyond LDNS-based mapping.\n");
  return 0;
}
