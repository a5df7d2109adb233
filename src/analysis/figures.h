// Figure generators: one entry point per paper figure, turning the raw
// dataset into the CDFs/series each figure plots. Benches print these.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "analysis/census.h"
#include "analysis/ldns.h"
#include "analysis/reach.h"
#include "analysis/replica.h"
#include "analysis/stats.h"

namespace curtain::analysis {

/// A group of labelled CDFs (one figure panel).
using CdfGroup = std::map<std::string, Ecdf>;

/// Fig. 2: per carrier, CDF of percent increase in replica HTTP latency
/// vs the best replica each user saw (four domains, like the paper).
std::map<std::string, Ecdf> fig2_replica_penalty(const measure::RecordStore& d);

/// Fig. 3: per carrier, DNS resolution time grouped by radio technology
/// (local resolver, first lookups).
std::map<std::string, CdfGroup> fig3_radio_bands(const measure::RecordStore& d);

/// Fig. 3 as the report tabulates it: one carrier's LTE median and its
/// pooled 3G-band and 2G-band (1xRTT, GPRS, EDGE) samples.
struct RadioBandSummary {
  bool has_lte = false;
  double lte_p50 = 0.0;
  Ecdf g3;
  Ecdf g2;
};
std::map<std::string, RadioBandSummary> fig3_band_summary(
    const measure::RecordStore& d);

/// Fig. 4: per carrier, ping RTT to the configured (client-facing) vs the
/// identified external-facing resolver.
std::map<std::string, CdfGroup> fig4_resolver_distance(const measure::RecordStore& d);

/// Figs. 5/6: resolution-time CDFs for the given country ("US" or "KR"),
/// local resolver, first lookups.
CdfGroup fig5_fig6_resolution_times(const measure::RecordStore& d,
                                    const std::string& country);

/// Fig. 7: 1st vs 2nd back-to-back lookups, US carriers combined.
CdfGroup fig7_cache_effect(const measure::RecordStore& d);

/// Figs. 8/9 summary of one carrier's local-resolver timelines.
struct ChurnSummary {
  double mean_ips = 0.0;  ///< distinct external IPs per client
  size_t max_ips = 0;
  size_t max_slash24s = 0;
  size_t static_clients = 0;   ///< clients with a stationary timeline
  size_t static_churning = 0;  ///< of those, clients seeing > 1 IP
};
/// Indexed like d.carriers().
std::vector<ChurnSummary> fig8_fig9_churn(const measure::RecordStore& d);

/// Fig. 10: same-/24 vs different-/24 cosine similarity for one domain
/// (the paper uses buzzfeed.com), per carrier.
std::map<std::string, CosineSplit> fig10_cosine(const measure::RecordStore& d,
                                                uint16_t domain_index);

/// Fig. 11: per carrier, ping RTT to the cell external resolver vs the
/// public VIPs.
std::map<std::string, CdfGroup> fig11_public_distance(const measure::RecordStore& d);

/// Fig. 12 summary for one carrier: clients that saw more than one Google
/// /24, and the most /24s one client saw.
struct GoogleDrift {
  size_t clients = 0;
  size_t multi_slash24 = 0;
  size_t max_slash24s = 0;
};
/// Indexed like d.carriers().
std::vector<GoogleDrift> fig12_google_drift(const measure::RecordStore& d);

/// Fig. 13: per carrier, resolution times local vs Google vs OpenDNS.
std::map<std::string, CdfGroup> fig13_public_resolution(const measure::RecordStore& d);

/// One Fig. 14 comparison: for one experiment and domain, the percent
/// difference between the mean HTTP latency of the replicas a public
/// service selected and of those the local resolver selected; 0 when the
/// two /24 sets intersect.
struct ReplicaDelta {
  int carrier_index = 0;
  measure::ResolverKind service = measure::ResolverKind::kGoogle;
  double percent = 0.0;
};
/// Every Fig. 14 comparison, by experiment, then domain, Google before
/// OpenDNS.
std::vector<ReplicaDelta> fig14_replica_deltas(const measure::RecordStore& d);

/// Fig. 14: per carrier and public service, CDF of the percent difference
/// between public-DNS-selected and local-DNS-selected replica latency,
/// replicas aggregated by /24 (intersecting /24 sets count as equal).
std::map<std::string, CdfGroup> fig14_public_replica_delta(
    const measure::RecordStore& d);

/// Headline number (abstract): fraction of comparisons where public DNS
/// replicas performed equal-or-better than the cell DNS replicas.
double headline_public_equal_or_better(const measure::RecordStore& d);

}  // namespace curtain::analysis
