#include "measure/vantage.h"

#include <map>

namespace curtain::measure {

VantageProber::VantageProber(WorldView world, net::NodeId vantage_node,
                             net::Ipv4Addr vantage_ip)
    : probes_(world),
      vantage_node_(vantage_node),
      vantage_ip_(vantage_ip) {}

void VantageProber::probe_observed_resolvers(RecordStore& records,
                                             net::SimTime now,
                                             net::Rng& rng) const {
  // Distinct (carrier, external resolver IP) pairs seen by the fleet.
  std::map<std::pair<int, uint32_t>, bool> seen;
  for (const auto& observation : records.observations()) {
    if (observation.resolver != ResolverKind::kLocal || !observation.responded) {
      continue;
    }
    seen[{observation.context().carrier_index,
          observation.external_ip.value()}] = true;
  }

  ProbeOrigin origin;
  origin.anchor = vantage_node_;
  origin.source_ip = vantage_ip_;
  origin.access_rtt_ms = 0.0;  // wired host

  for (const auto& [key, unused] : seen) {
    (void)unused;
    const net::Ipv4Addr target{key.second};
    VantageProbe record;
    record.carrier_index = key.first;
    record.target_ip = target;
    record.ping_responded = probes_.ping(origin, target, now, rng).responded;
    record.traceroute_reached =
        probes_.traceroute(origin, target, now, rng).reached;
    records.add_vantage(record);
  }
}

}  // namespace curtain::measure
