// Replica comparison: one device, one experiment, through all three
// resolver paths — the core measurement of the study, narrated.
//
// Shows, per domain: the resolution time, the replica addresses returned
// by the cell LDNS vs Google DNS vs OpenDNS, and the measured HTTP TTFB
// to each replica, so you can watch DNS-based replica selection diverge.
//
//   $ ./build/examples/replica_comparison [carrier-name]
#include <cstdio>
#include <string>

#include "cdn/domains.h"
#include "cellular/device.h"
#include "core/world.h"
#include "dns/stub.h"
#include "measure/probes.h"
#include "net/device_state.h"

int main(int argc, char** argv) {
  using namespace curtain;

  core::World world;
  const std::string wanted = argc > 1 ? argv[1] : "T-Mobile";
  cellular::CellularNetwork* carrier = nullptr;
  for (const auto& candidate : world.carriers()) {
    if (candidate->profile().name == wanted) carrier = candidate.get();
  }
  if (carrier == nullptr) {
    std::fprintf(stderr, "unknown carrier '%s'\n", wanted.c_str());
    return 1;
  }

  net::Rng rng(net::hash_tag("replica-comparison"));
  cellular::Fleet fleet(carrier, 1);
  fleet.enroll(0, 1, net::GeoPoint{41.88, -87.63});  // Chicago
  cellular::Device device = fleet.device(0);
  net::DeviceState device_state(1);  // the device's caches and NAT cursor
  const auto snapshot =
      device.begin_experiment(net::SimTime::zero(), rng, device_state);
  std::printf("device on %s  gateway=%d  public IP=%s  configured DNS=%s\n\n",
              carrier->profile().name.c_str(), snapshot.gateway_index,
              snapshot.public_ip.to_string().c_str(),
              snapshot.configured_resolver.to_string().c_str());

  dns::StubResolver stub(device.gateway_node(), snapshot.public_ip,
                         world.topology(), world.registry());
  measure::ProbeEngine probes(
      measure::WorldView{world.topology(), world.registry()});

  const struct {
    const char* label;
    net::Ipv4Addr ip;
  } resolvers[] = {
      {"cell LDNS", snapshot.configured_resolver},
      {"GoogleDNS", net::Ipv4Addr{8, 8, 8, 8}},
      {"OpenDNS", net::Ipv4Addr{208, 67, 222, 222}},
  };

  net::SimTime now = net::SimTime::zero();
  for (const auto& domain : cdn::study_domains()) {
    std::printf("%s (via %s)\n", domain.host.c_str(), domain.cdn.c_str());
    for (const auto& resolver : resolvers) {
      const auto host = dns::DnsName::parse(domain.host);
      const double access = device.access_rtt_ms(now, rng);
      const auto result =
          stub.query(resolver.ip, *host, dns::RRType::kA, now, rng,
                     device_state, access);
      now += net::SimTime::from_millis(result.total_ms);
      if (!result.responded) {
        std::printf("  %-10s (no response)\n", resolver.label);
        continue;
      }
      std::printf("  %-10s %6.1f ms ->", resolver.label, result.total_ms);
      for (const auto address : result.addresses()) {
        measure::ProbeOrigin origin{device.gateway_node(), snapshot.public_ip,
                                    device.access_rtt_ms(now, rng)};
        const auto http = probes.http_get(origin, address, now, rng);
        now += net::SimTime::from_millis(http.ttfb_ms);
        std::printf(" %s (TTFB %.1f ms)", address.to_string().c_str(),
                    http.ttfb_ms);
      }
      std::printf("\n");
    }
  }
  return 0;
}
