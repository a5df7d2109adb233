// LDNS structure and consistency analyses (paper §4.1, §4.5; Table 3,
// Figs. 8, 9 and 12).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "measure/record_store.h"

namespace curtain::analysis {

/// Table 3 row: one carrier's LDNS pairing structure as measured.
struct LdnsPairStats {
  int carrier_index = 0;
  size_t client_resolvers = 0;    ///< distinct configured addresses seen
  size_t external_resolvers = 0;  ///< distinct external addresses seen
  size_t pairs = 0;               ///< distinct (client, external) pairs
  /// % of measurements in which a client resolver was paired with its
  /// modal external resolver (the paper's "consistency").
  double consistency_percent = 0.0;
  /// Share of measurements whose external resolver is not the configured
  /// one: indirect resolution.
  double indirect_share = 0.0;
};

/// Computes Table 3 from the dataset (local resolver kind only).
std::vector<LdnsPairStats> ldns_pair_stats(const measure::RecordStore& dataset);

/// One device's resolver-association history (the Fig. 8 / Fig. 9 / Fig. 12
/// timelines): for each observation, the time and the first-appearance
/// rank of the external IP and of its /24.
struct ResolverTimeline {
  uint64_t device_id = 0;
  int carrier_index = 0;
  std::vector<net::SimTime> times;
  std::vector<int> ip_rank;       ///< 1-based enumeration of distinct IPs
  std::vector<int> slash24_rank;  ///< 1-based enumeration of distinct /24s
  size_t unique_ips() const;
  size_t unique_slash24s() const;
};

/// One responding resolver observation joined to its experiment context.
struct JoinedObservation {
  const measure::ExperimentContext* context;
  net::Ipv4Addr external_ip;
};

/// A carrier's responding observations of one resolver kind, ordered by
/// experiment start: the input every timeline below is built from. A
/// caller that needs several timeline views of one carrier and kind (the
/// report's Figs. 8/9) joins once and passes the result to the overloads
/// that take it; the results are the same as the dataset overloads'.
std::vector<JoinedObservation> joined_observations(
    const measure::RecordStore& dataset, int carrier_index,
    measure::ResolverKind kind);

/// Timelines for all devices of a carrier, for the given resolver kind
/// (kLocal reproduces Figs. 8/9; kGoogle reproduces Fig. 12).
std::vector<ResolverTimeline> resolver_timelines(
    const measure::RecordStore& dataset, int carrier_index,
    measure::ResolverKind kind);
std::vector<ResolverTimeline> resolver_timelines(
    const std::vector<JoinedObservation>& joined, int carrier_index);

/// Same, but keeping only observations within `radius_km` of the device's
/// modal location — the paper's "static location" filter (Fig. 9 uses
/// 10 km).
std::vector<ResolverTimeline> static_resolver_timelines(
    const measure::RecordStore& dataset, int carrier_index,
    measure::ResolverKind kind, double radius_km = 10.0);
std::vector<ResolverTimeline> static_resolver_timelines(
    const std::vector<JoinedObservation>& joined, int carrier_index,
    double radius_km = 10.0);

}  // namespace curtain::analysis
