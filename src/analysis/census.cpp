#include "analysis/census.h"

#include <set>

namespace curtain::analysis {

std::vector<size_t> active_devices_per_carrier(
    const measure::RecordStore& dataset) {
  std::vector<std::set<uint64_t>> devices(dataset.carriers().size());
  for (const auto experiment : dataset.experiments()) {
    const measure::ExperimentContext& context = experiment.context();
    devices[static_cast<size_t>(context.carrier_index)].insert(
        context.device_id);
  }
  std::vector<size_t> out;
  for (const auto& carrier : devices) out.push_back(carrier.size());
  return out;
}

std::vector<ResolverCensusRow> resolver_census(const measure::RecordStore& dataset) {
  const size_t carriers = dataset.carriers().size();
  std::vector<std::array<std::set<uint32_t>, measure::kNumResolverKinds>> ips(
      carriers);
  std::vector<std::array<std::set<uint32_t>, measure::kNumResolverKinds>>
      prefixes(carriers);

  for (const auto& observation : dataset.observations()) {
    if (!observation.responded) continue;
    const auto carrier =
        static_cast<size_t>(observation.context().carrier_index);
    const auto kind = static_cast<size_t>(observation.resolver);
    ips[carrier][kind].insert(observation.external_ip.value());
    prefixes[carrier][kind].insert(observation.external_ip.slash24().value());
  }

  std::vector<ResolverCensusRow> out(carriers);
  for (size_t c = 0; c < carriers; ++c) {
    out[c].carrier_index = static_cast<int>(c);
    for (size_t k = 0; k < measure::kNumResolverKinds; ++k) {
      out[c].unique_ips[k] = ips[c][k].size();
      out[c].unique_slash24s[k] = prefixes[c][k].size();
    }
  }
  return out;
}

}  // namespace curtain::analysis
