// Resolver churn: watch one stationary device's DNS infrastructure drift.
//
// Replays a month of hourly resolver-identification probes for a single
// device per carrier and prints every change of external-facing resolver,
// with day labels matching the paper's Fig. 8/9 timelines. The device
// never leaves its home suburb — the churn is entirely network-side.
//
//   $ ./build/examples/resolver_churn
#include <cstdio>

#include "cellular/device.h"
#include "core/world.h"
#include "dns/stub.h"
#include "measure/resolver_ident.h"
#include "net/device_state.h"

int main() {
  using namespace curtain;

  core::World world;
  measure::ResolverIdentifier identifier(world.research_apex());
  net::Rng rng(net::hash_tag("resolver-churn"));

  uint64_t device_id = 100;
  uint64_t probe_counter = 0;
  for (const auto& carrier : world.carriers()) {
    const net::GeoPoint home = carrier->profile().country == "KR"
                                   ? net::GeoPoint{37.57, 126.98}   // Seoul
                                   : net::GeoPoint{33.75, -84.39};  // Atlanta
    cellular::Fleet fleet(carrier.get(), 1, /*travel_probability=*/0.0);
    fleet.enroll(0, device_id++, home);
    cellular::Device device = fleet.device(0);
    // The device's caches and NAT cursor live for its 30 days.
    net::DeviceState device_state(1);

    std::printf("%s (stationary device, 30 days of hourly probes)\n",
                carrier->profile().name.c_str());
    net::Ipv4Addr last_external;
    int changes = 0;
    int prefix_changes = 0;
    for (int hour = 0; hour < 24 * 30; ++hour) {
      const auto now = net::SimTime::from_hours(hour);
      const auto snapshot = device.begin_experiment(now, rng, device_state);
      dns::StubResolver stub(device.gateway_node(), snapshot.public_ip,
                             world.topology(), world.registry());
      const auto probe = identifier.probe_name(device.id(), probe_counter++);
      const auto result =
          stub.query(snapshot.configured_resolver, probe, dns::RRType::kA, now,
                     rng, device_state, device.access_rtt_ms(now, rng));
      const auto external = measure::ResolverIdentifier::extract(result.answers);
      if (!external) continue;
      if (*external != last_external) {
        const bool new_prefix = external->slash24() != last_external.slash24();
        if (!last_external.is_unspecified()) {
          ++changes;
          prefix_changes += new_prefix ? 1 : 0;
          std::printf("  %-7s external resolver -> %-15s %s\n",
                      net::CampaignCalendar::day_label(now).c_str(),
                      external->to_string().c_str(),
                      new_prefix ? "(new /24!)" : "(same /24)");
        }
        last_external = *external;
      }
    }
    std::printf("  => %d resolver changes, %d of them across /24s\n\n", changes,
                prefix_changes);
  }
  std::printf("A CDN keying replica selection on the resolver /24 re-maps the\n"
              "client on every '(new /24!)' line above — without the client\n"
              "moving an inch (paper §4.5, §5.1).\n");
  return 0;
}
