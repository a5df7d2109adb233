// Census tables: the devices that took part (paper Table 1) and the
// resolver census (Table 5) — distinct resolver addresses and /24s
// observed per carrier for the local, Google and OpenDNS resolver groups.
#pragma once

#include <array>
#include <vector>

#include "measure/record_store.h"

namespace curtain::analysis {

struct ResolverCensusRow {
  int carrier_index = 0;
  /// Indexed by measure::ResolverKind.
  std::array<size_t, measure::kNumResolverKinds> unique_ips{};
  std::array<size_t, measure::kNumResolverKinds> unique_slash24s{};
};

/// Distinct devices with at least one experiment, indexed like
/// dataset.carriers().
std::vector<size_t> active_devices_per_carrier(
    const measure::RecordStore& dataset);

std::vector<ResolverCensusRow> resolver_census(const measure::RecordStore& dataset);

}  // namespace curtain::analysis
