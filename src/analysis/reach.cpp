#include "analysis/reach.h"

#include <string_view>

#include "util/strings.h"

namespace curtain::analysis {

std::vector<ReachabilityStats> external_reachability(
    const measure::RecordStore& dataset) {
  const int carriers = static_cast<int>(dataset.carriers().size());
  std::vector<ReachabilityStats> out(static_cast<size_t>(carriers));
  for (int c = 0; c < carriers; ++c) out[static_cast<size_t>(c)].carrier_index = c;
  for (const auto& probe : dataset.vantage_probes()) {
    auto& stats = out[static_cast<size_t>(probe.carrier_index)];
    ++stats.total;
    if (probe.ping_responded) ++stats.ping_responded;
    if (probe.traceroute_reached) ++stats.traceroute_reached;
  }
  return out;
}

std::vector<EgressStats> egress_points(const measure::RecordStore& dataset) {
  const auto& carriers = dataset.carriers();
  std::vector<EgressStats> out(carriers.size());
  for (size_t c = 0; c < carriers.size(); ++c) {
    out[c].carrier_index = static_cast<int>(c);
  }

  for (const auto& trace : dataset.traceroutes()) {
    const auto carrier_index =
        static_cast<size_t>(trace.context().carrier_index);
    const std::string& carrier_name = carriers[carrier_index].name;

    // Last hop carrying the carrier's name before the first foreign hop.
    // Traces that never leave the carrier (probes to in-network resolvers)
    // reveal no egress and are skipped, exactly as in the paper's method.
    std::string last_in_carrier;
    bool saw_foreign = false;
    for (size_t h = 0; h < trace.hop_count; ++h) {
      const std::string_view hop = trace.hop(h);
      if (hop == "*") continue;
      if (util::starts_with(hop, carrier_name)) {
        last_in_carrier = std::string(hop);
      } else {
        saw_foreign = true;
        break;  // first hop outside the carrier network
      }
    }
    if (saw_foreign && !last_in_carrier.empty()) {
      out[carrier_index].egress_names.insert(last_in_carrier);
    }
  }
  for (auto& stats : out) stats.egress_points = stats.egress_names.size();
  return out;
}

}  // namespace curtain::analysis
