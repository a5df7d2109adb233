#include "analysis/claims.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "analysis/figures.h"
#include "util/contract.h"
#include "util/strings.h"

namespace curtain::analysis {
namespace {

using measure::RecordStore;
using measure::ResolverKind;

std::string ms(double v) { return util::format_double(v, 1) + " ms"; }
std::string pct(double v) { return util::format_double(v * 100.0, 1) + "%"; }

/// Every series the bands read, computed once per campaign.
struct Inputs {
  std::vector<std::string> names;  ///< indexed like dataset.carriers()
  std::vector<bool> us;
  std::map<std::string, Ecdf> fig2;
  std::map<std::string, RadioBandSummary> fig3;
  std::vector<LdnsPairStats> table3;
  std::map<std::string, CdfGroup> fig4;
  std::map<std::string, Ecdf> fig5_6;
  CdfGroup fig7;
  std::vector<ReachabilityStats> table4;
  std::vector<ChurnSummary> churn;
  std::map<std::string, CosineSplit> fig10;
  std::vector<EgressStats> egress;
  std::vector<ResolverCensusRow> table5;
  std::map<std::string, CdfGroup> fig11;
  std::vector<GoogleDrift> fig12;
  std::map<std::string, CdfGroup> fig13;
  std::map<std::string, CdfGroup> fig14;

  const std::string& name(int carrier_index) const {
    return names[static_cast<size_t>(carrier_index)];
  }
  int index_of(std::string_view name) const {
    for (size_t c = 0; c < names.size(); ++c) {
      if (names[c] == name) return static_cast<int>(c);
    }
    return -1;
  }
};

Inputs gather(const RecordStore& d) {
  Inputs in;
  for (const auto& carrier : d.carriers()) {
    in.names.push_back(carrier.name);
    in.us.push_back(carrier.country == "US");
  }
  in.fig2 = fig2_replica_penalty(d);
  in.fig3 = fig3_band_summary(d);
  in.table3 = ldns_pair_stats(d);
  in.fig4 = fig4_resolver_distance(d);
  for (const std::string country : {"US", "KR"}) {
    for (auto& [carrier, cdf] : fig5_fig6_resolution_times(d, country)) {
      in.fig5_6[carrier] = std::move(cdf);
    }
  }
  in.fig7 = fig7_cache_effect(d);
  in.table4 = external_reachability(d);
  in.churn = fig8_fig9_churn(d);
  in.fig10 = fig10_cosine(d, 5);
  in.egress = egress_points(d);
  in.table5 = resolver_census(d);
  in.fig11 = fig11_public_distance(d);
  in.fig12 = fig12_google_drift(d);
  in.fig13 = fig13_public_resolution(d);
  in.fig14 = fig14_public_replica_delta(d);
  return in;
}

/// Builds one verdict: every row must pass unless the band says otherwise.
class Verdict {
 public:
  /// Records one row of detail and its own pass/fail.
  bool row(std::string_view label, const std::string& value, bool pass) {
    if (!detail_.empty()) detail_ += " · ";
    detail_.append(label).append(" ").append(value).append(pass ? " ✓" : " ✗");
    ++rows_;
    if (pass) ++passed_;
    return pass;
  }
  void note(const std::string& text) {
    if (!detail_.empty()) detail_ += " · ";
    detail_ += text;
  }
  /// The claim holds when every row passed (and there was a row).
  ClaimVerdict all() const { return {rows_ > 0 && passed_ == rows_, detail_}; }
  /// The claim holds when at least one row passed.
  ClaimVerdict any() const { return {passed_ > 0, detail_}; }

 private:
  std::string detail_;
  size_t rows_ = 0;
  size_t passed_ = 0;
};

const Ecdf* find(const CdfGroup& group, const std::string& key) {
  const auto it = group.find(key);
  return it == group.end() || it->second.empty() ? nullptr : &it->second;
}

template <typename Map>
const typename Map::mapped_type* find_carrier(const Map& map,
                                              std::string_view carrier) {
  const auto it = map.find(std::string(carrier));
  return it == map.end() ? nullptr : &it->second;
}

// --- Figure 2 ------------------------------------------------------------

ClaimVerdict fig2_penalty_50(const Inputs& in) {
  Verdict v;
  for (const auto& [carrier, cdf] : in.fig2) {
    const double p90 = cdf.quantile(0.9);
    v.row(carrier, "p90 " + util::format_double(p90, 0) + "%", p90 >= 50.0);
  }
  return v.all();
}

ClaimVerdict fig2_extreme_400(const Inputs& in) {
  Verdict v;
  for (const auto& [carrier, cdf] : in.fig2) {
    const double share = 1.0 - cdf.fraction_at_or_below(400.0);
    v.row(carrier, pct(share), share > 0.40);
  }
  return v.any();
}

// --- Figure 3 ------------------------------------------------------------

ClaimVerdict fig3_order(const Inputs& in) {
  Verdict v;
  for (const auto& [carrier, bands] : in.fig3) {
    const bool ordered =
        bands.has_lte && !bands.g3.empty() && bands.lte_p50 < bands.g3.median() &&
        (bands.g2.empty() || bands.g3.median() < bands.g2.median());
    std::string value = ms(bands.lte_p50);
    if (!bands.g3.empty()) value += " < " + ms(bands.g3.median());
    if (!bands.g2.empty()) value += " < " + ms(bands.g2.median());
    v.row(carrier, value, ordered);
  }
  return v.all();
}

ClaimVerdict fig3_3g_gap(const Inputs& in) {
  Verdict v;
  for (const auto& [carrier, bands] : in.fig3) {
    if (!bands.has_lte || bands.g3.empty()) {
      v.row(carrier, "no 3G band", false);
      continue;
    }
    const double gap = bands.g3.median() - bands.lte_p50;
    std::string value = "+";
    value += ms(gap);
    v.row(carrier, value, gap >= 25.0 && gap <= 100.0);
  }
  return v.all();
}

ClaimVerdict fig3_2g_1s(const Inputs& in) {
  Verdict v;
  for (const auto& [carrier, bands] : in.fig3) {
    if (bands.g2.empty()) continue;  // no 2G radio in this carrier
    const double p50 = bands.g2.median();
    v.row(carrier, ms(p50), p50 >= 500.0 && p50 <= 2000.0);
  }
  return v.all();
}

// --- Table 3 -------------------------------------------------------------

ClaimVerdict table3_indirect(const Inputs& in) {
  Verdict v;
  for (const auto& row : in.table3) {
    v.row(in.name(row.carrier_index), pct(row.indirect_share),
          row.indirect_share > 0.5);
  }
  return v.all();
}

ClaimVerdict table3_sprint_pools(const Inputs& in) {
  Verdict v;
  for (const auto& row : in.table3) {
    if (in.name(row.carrier_index) != "Sprint") continue;
    v.row("Sprint", util::format_double(row.consistency_percent, 1) + "%",
          row.consistency_percent > 60.0);
  }
  return v.all();
}

ClaimVerdict table3_verizon_only_full(const Inputs& in) {
  Verdict v;
  for (const auto& row : in.table3) {
    const std::string& carrier = in.name(row.carrier_index);
    const bool full = row.consistency_percent >= 100.0 - 1e-9;
    v.row(carrier, util::format_double(row.consistency_percent, 1) + "%",
          full == (carrier == "Verizon"));
  }
  return v.all();
}

// --- Figure 4 ------------------------------------------------------------

ClaimVerdict fig4_external_farther(const Inputs& in) {
  Verdict v;
  for (const char* carrier : {"AT&T", "Sprint", "T-Mobile"}) {
    const CdfGroup* group = find_carrier(in.fig4, carrier);
    const Ecdf* client = group ? find(*group, "Client") : nullptr;
    const Ecdf* external = group ? find(*group, "External") : nullptr;
    if (!client || !external) {
      v.row(carrier, "no data", false);
      continue;
    }
    v.row(carrier, ms(client->median()) + " → " + ms(external->median()),
          external->median() > client->median());
  }
  return v.all();
}

ClaimVerdict fig4_skt_collocated(const Inputs& in) {
  Verdict v;
  const CdfGroup* group = find_carrier(in.fig4, "SK Telecom");
  const Ecdf* client = group ? find(*group, "Client") : nullptr;
  const Ecdf* external = group ? find(*group, "External") : nullptr;
  if (!client || !external) {
    v.row("SK Telecom", "no data", false);
    return v.all();
  }
  const double spread = std::abs(external->median() - client->median());
  v.row("SK Telecom", ms(client->median()) + " vs " + ms(external->median()),
        spread <= 0.05 * client->median());
  return v.all();
}

ClaimVerdict fig4_unresponsive(const Inputs& in) {
  Verdict v;
  for (const char* carrier : {"Verizon", "LG U+"}) {
    const CdfGroup* group = find_carrier(in.fig4, carrier);
    const Ecdf* external = group ? find(*group, "External") : nullptr;
    v.row(carrier,
          external ? std::to_string(external->size()) + " replies" : "no replies",
          external == nullptr);
  }
  return v.all();
}

// --- Figures 5/6 ---------------------------------------------------------

ClaimVerdict fig5_median(const Inputs& in) {
  Verdict v;
  for (const auto& [carrier, cdf] : in.fig5_6) {
    const double p50 = cdf.median();
    v.row(carrier, ms(p50), p50 >= 30.0 && p50 <= 50.0);
  }
  return v.all();
}

ClaimVerdict fig5_long_tail(const Inputs& in) {
  Verdict v;
  for (const auto& [carrier, cdf] : in.fig5_6) {
    const double p80 = cdf.quantile(0.8);
    const double p99 = cdf.quantile(0.99);
    v.row(carrier, "p80 " + ms(p80) + ", p99 " + ms(p99), p99 >= 2.0 * p80);
  }
  return v.all();
}

// --- Figure 7 ------------------------------------------------------------

ClaimVerdict fig7_repeat_miss(const Inputs& in) {
  Verdict v;
  const Ecdf* first = find(in.fig7, "1st Lookup");
  const Ecdf* second = find(in.fig7, "2nd Lookup");
  if (!first || !second) {
    v.row("US", "no data", false);
    return v.all();
  }
  v.row("2nd p50", ms(second->median()) + " vs 1st " + ms(first->median()),
        second->median() < first->median());
  const double tail = 1.0 - second->fraction_at_or_below(first->quantile(0.75));
  v.row("repeat miss tail", pct(tail), tail >= 0.10 && tail <= 0.40);
  return v.all();
}

// --- Table 4 -------------------------------------------------------------

ClaimVerdict table4_majority_ping(const Inputs& in) {
  Verdict v;
  for (const auto& row : in.table4) {
    const std::string& carrier = in.name(row.carrier_index);
    const double share =
        row.total == 0 ? 0.0
                       : static_cast<double>(row.ping_responded) /
                             static_cast<double>(row.total);
    const bool majority = share > 0.5;
    bool pass = majority == (carrier == "Verizon" || carrier == "AT&T");
    if (carrier == "T-Mobile") pass = pass && share > 0.0;
    v.row(carrier, pct(share), pass);
  }
  return v.all();
}

ClaimVerdict table4_no_traceroute(const Inputs& in) {
  Verdict v;
  for (const auto& row : in.table4) {
    v.row(in.name(row.carrier_index),
          std::to_string(row.traceroute_reached), row.traceroute_reached == 0);
  }
  return v.all();
}

// --- Figures 8/9 ---------------------------------------------------------

std::string ips(double mean) { return util::format_double(mean, 1) + " IPs"; }

ClaimVerdict fig8_stable(const Inputs& in) {
  Verdict v;
  double churny_floor = 1e300;
  for (const char* carrier : {"Sprint", "T-Mobile"}) {
    const int c = in.index_of(carrier);
    if (c < 0) continue;
    const double mean = in.churn[static_cast<size_t>(c)].mean_ips;
    churny_floor = std::min(churny_floor, mean);
    v.note(std::string(carrier) + " " + ips(mean));
  }
  for (const char* carrier : {"AT&T", "Verizon"}) {
    const int c = in.index_of(carrier);
    if (c < 0) continue;
    const double mean = in.churn[static_cast<size_t>(c)].mean_ips;
    v.row(carrier, ips(mean), mean < churny_floor);
  }
  return v.all();
}

ClaimVerdict fig8_cross_slash24(const Inputs& in) {
  Verdict v;
  for (const char* carrier : {"Sprint", "T-Mobile"}) {
    const int c = in.index_of(carrier);
    if (c < 0) continue;
    const size_t prefixes = in.churn[static_cast<size_t>(c)].max_slash24s;
    v.row(carrier, "max " + std::to_string(prefixes) + " /24s", prefixes >= 2);
  }
  return v.all();
}

ClaimVerdict fig8_kr_inside_slash24s(const Inputs& in) {
  Verdict v;
  double us_ceiling = 0.0;
  for (size_t c = 0; c < in.churn.size(); ++c) {
    if (in.us[c]) us_ceiling = std::max(us_ceiling, in.churn[c].mean_ips);
  }
  v.note("US max " + ips(us_ceiling));
  for (size_t c = 0; c < in.churn.size(); ++c) {
    if (in.us[c]) continue;
    const ChurnSummary& churn = in.churn[c];
    v.row(in.names[c],
          ips(churn.mean_ips) + " in ≤ " + std::to_string(churn.max_slash24s) +
              " /24s",
          churn.max_slash24s <= 2 && churn.mean_ips > us_ceiling);
  }
  return v.all();
}

ClaimVerdict fig9_static_churn(const Inputs& in) {
  Verdict v;
  for (size_t c = 0; c < in.churn.size(); ++c) {
    const ChurnSummary& churn = in.churn[c];
    v.row(in.names[c],
          std::to_string(churn.static_churning) + "/" +
              std::to_string(churn.static_clients),
          churn.static_churning * 2 > churn.static_clients);
  }
  return v.all();
}

// --- Figure 10 -----------------------------------------------------------

ClaimVerdict fig10_same_slash24(const Inputs& in) {
  Verdict v;
  for (const auto& [carrier, split] : in.fig10) {
    if (split.same_slash24.empty()) {
      v.row(carrier, "no pairs", false);
      continue;
    }
    const double p50 = split.same_slash24.median();
    v.row(carrier, util::format_double(p50, 2), p50 >= 0.8);
  }
  return v.all();
}

ClaimVerdict fig10_cross_zero(const Inputs& in) {
  Verdict v;
  for (const auto& [carrier, split] : in.fig10) {
    if (split.different_slash24.empty()) {
      v.row(carrier, "no pairs", false);
      continue;
    }
    const double zero = split.different_slash24.fraction_at_or_below(1e-9);
    v.row(carrier, pct(zero), zero > 0.60);
  }
  return v.all();
}

// --- Section 5.2 ---------------------------------------------------------

ClaimVerdict sec52_egress(const Inputs& in) {
  const std::map<std::string, size_t> paper = {
      {"AT&T", 110}, {"Sprint", 45}, {"T-Mobile", 49}, {"Verizon", 62}};
  Verdict v;
  for (const auto& row : in.egress) {
    const std::string& carrier = in.name(row.carrier_index);
    const auto it = paper.find(carrier);
    if (it == paper.end()) continue;
    v.row(carrier,
          std::to_string(row.egress_points) + "/" + std::to_string(it->second),
          2 * row.egress_points >= it->second &&
              row.egress_points <= it->second);
  }
  return v.all();
}

// --- Table 5 -------------------------------------------------------------

constexpr ResolverKind kPublicKinds[] = {ResolverKind::kGoogle,
                                         ResolverKind::kOpenDns};

ClaimVerdict table5_public_addresses(const Inputs& in) {
  Verdict v;
  for (const auto& row : in.table5) {
    const auto local = static_cast<double>(
        row.unique_ips[static_cast<size_t>(ResolverKind::kLocal)]);
    for (const ResolverKind kind : kPublicKinds) {
      const auto count =
          static_cast<double>(row.unique_ips[static_cast<size_t>(kind)]);
      const double ratio = local == 0.0 ? 0.0 : count / local;
      v.row(in.name(row.carrier_index) + " " +
                measure::resolver_kind_name(kind),
            util::format_double(ratio, 2) + "×", ratio >= 2.0 && ratio <= 8.0);
    }
  }
  return v.all();
}

ClaimVerdict table5_comparable_slash24s(const Inputs& in) {
  Verdict v;
  for (const auto& row : in.table5) {
    const auto local = static_cast<double>(
        row.unique_slash24s[static_cast<size_t>(ResolverKind::kLocal)]);
    for (const ResolverKind kind : kPublicKinds) {
      const auto count =
          static_cast<double>(row.unique_slash24s[static_cast<size_t>(kind)]);
      const double ratio = local == 0.0 ? 0.0 : count / local;
      v.row(in.name(row.carrier_index) + " " +
                measure::resolver_kind_name(kind),
            util::format_double(ratio, 2) + "×", ratio >= 0.5 && ratio <= 2.0);
    }
  }
  return v.all();
}

// --- Figure 11 -----------------------------------------------------------

ClaimVerdict fig11_ldns_closer(const Inputs& in) {
  Verdict v;
  for (const auto& [carrier, group] : in.fig11) {
    const Ecdf* cell = find(group, "Cell LDNS");
    const bool silent = carrier == "Verizon" || carrier == "LG U+";
    if (!cell) {
      v.row(carrier, "no response", silent);
      continue;
    }
    bool closer = !silent;
    std::string value = ms(cell->median());
    for (const char* service : {"GoogleDNS", "OpenDNS"}) {
      const Ecdf* pub = find(group, service);
      closer = closer && pub && cell->median() < pub->median();
      if (pub) value += " < " + ms(pub->median());
    }
    v.row(carrier, value, closer);
  }
  return v.all();
}

ClaimVerdict fig11_closer_by(const Inputs& in) {
  Verdict v;
  for (const auto& [carrier, group] : in.fig11) {
    const Ecdf* cell = find(group, "Cell LDNS");
    if (!cell) continue;
    for (const char* service : {"GoogleDNS", "OpenDNS"}) {
      const Ecdf* pub = find(group, service);
      if (!pub) continue;
      const double by = pub->median() - cell->median();
      v.row(carrier + " " + service, ms(by), by >= 10.0 && by <= 25.0);
    }
  }
  return v.all();
}

// --- Figure 12 -----------------------------------------------------------

ClaimVerdict fig12_drift(const Inputs& in) {
  Verdict v;
  for (size_t c = 0; c < in.fig12.size(); ++c) {
    const GoogleDrift& drift = in.fig12[c];
    v.row(in.names[c],
          std::to_string(drift.multi_slash24) + "/" +
              std::to_string(drift.clients) + ", max " +
              std::to_string(drift.max_slash24s),
          drift.multi_slash24 * 2 > drift.clients && drift.max_slash24s <= 30);
  }
  return v.all();
}

// --- Figure 13 -----------------------------------------------------------

ClaimVerdict fig13_cell_faster(const Inputs& in) {
  Verdict v;
  for (const auto& [carrier, group] : in.fig13) {
    const Ecdf* local = find(group, "local");
    if (!local) continue;
    for (const char* service : {"GoogleDNS", "OpenDNS"}) {
      const Ecdf* pub = find(group, service);
      if (!pub) continue;
      v.row(carrier + " " + service,
            ms(local->median()) + " vs " + ms(pub->median()),
            local->median() < pub->median());
    }
  }
  return v.all();
}

ClaimVerdict fig13_public_tail_shorter(const Inputs& in) {
  Verdict v;
  for (const auto& [carrier, group] : in.fig13) {
    const Ecdf* local = find(group, "local");
    const Ecdf* google = find(group, "GoogleDNS");
    if (!local || !google) continue;
    const double local_tail = local->quantile(0.99) - local->median();
    const double google_tail = google->quantile(0.99) - google->median();
    v.row(carrier, ms(google_tail) + " vs " + ms(local_tail),
          google_tail <= local_tail);
  }
  return v.all();
}

// --- Figure 14 -----------------------------------------------------------

ClaimVerdict fig14_exactly_zero(const Inputs& in) {
  Verdict v;
  for (const auto& [carrier, group] : in.fig14) {
    for (const auto& [kind, cdf] : group) {
      const std::vector<double>& values = cdf.sorted_values();
      const auto zeros =
          static_cast<double>(std::count(values.begin(), values.end(), 0.0));
      const double share =
          cdf.empty() ? 0.0 : zeros / static_cast<double>(cdf.size());
      v.row(carrier + " " + kind, pct(share), share >= 0.60 && share <= 0.80);
    }
  }
  return v.all();
}

ClaimVerdict fig14_headline(const Inputs& in) {
  Verdict v;
  Ecdf pooled;
  for (const auto& [carrier, group] : in.fig14) {
    for (const auto& [kind, cdf] : group) pooled.add_all(cdf.sorted_values());
  }
  const double share = pooled.empty() ? 0.0 : pooled.fraction_at_or_below(0.0);
  v.row("pooled", pct(share), share > 0.75);
  return v.all();
}

// --- The ledger ----------------------------------------------------------

constexpr auto kHolds = ClaimStatus::kHolds;
constexpr auto kGap = ClaimStatus::kGap;
constexpr auto kSeedDependent = ClaimStatus::kSeedDependent;

struct Band {
  Claim claim;
  ClaimVerdict (*evaluate)(const Inputs&);
};

const std::vector<Band>& bands() {
  static const std::vector<Band> kBands = {
      {{"fig2.penalty_50", "Figure 2",
        "users are consistently directed to replicas 50%+ slower than the "
        "best they ever see",
        "every carrier's p90 replica penalty is at least 50%",
        kGap,
        "the Korean carriers reach replicas at two sites only (Seoul and "
        "Busan), so their p90 penalty sits near or below 50%, and at least "
        "one of them falls short of it; every US carrier's is about 100% or "
        "more."},
       fig2_penalty_50},
      {{"fig2.extreme_400", "Figure 2",
        "extreme cases exceed 400% for >40% of accesses",
        "some carrier has more than 40% of accesses above a 400% penalty",
        kGap,
        "no carrier sends more than about a tenth of its accesses past a 400%"
        " penalty; the largest p90 penalty is Sprint's, about 200-300%."},
       fig2_extreme_400},
      {{"fig3.order", "Figure 3", "distinct bands — LTE fastest",
        "in every carrier, LTE p50 < 3G-band p50 < 2G-band p50 (where the "
        "carrier has 2G)",
        kHolds, ""},
       fig3_order},
      {{"fig3.3g_gap", "Figure 3", "3G ~50 ms slower at the median",
        "in every carrier, the 3G-band p50 exceeds the LTE p50 by 25-100 ms",
        kHolds, ""},
       fig3_3g_gap},
      {{"fig3.2g_near_1s", "Figure 3", "2G near 1 s",
        "in every carrier with 2G, the 2G-band p50 is within 0.5-2 s",
        kSeedDependent,
        "only the CDMA carriers' 1xRTT band (Sprint, Verizon) sits near 1 s; "
        "the GSM carriers' EDGE/GPRS band (AT&T, T-Mobile) is calibrated near"
        " 0.5 s, the window's lower edge, so whether both land inside it "
        "changes with the seed."},
       fig3_2g_1s},
      {{"table3.indirect", "Table 3", "indirect resolution in every carrier",
        "in every carrier, most observations show an external resolver other "
        "than the configured one",
        kHolds, ""},
       table3_indirect},
      {{"table3.sprint_pools", "Table 3",
        "Sprint's pools consistent >60% of the time",
        "Sprint's pair consistency is above 60%", kHolds, ""},
       table3_sprint_pools},
      {{"table3.verizon_only_full", "Table 3", "Verizon the only 100% carrier",
        "Verizon's pair consistency is 100% and every other carrier's is lower",
        kHolds, ""},
       table3_verizon_only_full},
      {{"fig4.external_farther", "Figure 4",
        "externals measurably farther (Sprint/T-Mobile/AT&T)",
        "for AT&T, Sprint and T-Mobile, the external resolver's ping p50 is "
        "above the client-facing one's",
        kHolds, ""},
       fig4_external_farther},
      {{"fig4.skt_collocated", "Figure 4", "collocated for SK Telecom",
        "SK Telecom's external and client-facing ping p50s are within 5% of "
        "each other",
        kHolds, ""},
       fig4_skt_collocated},
      {{"fig4.unresponsive", "Figure 4", "unresponsive for Verizon and LG U+",
        "no Verizon or LG U+ external resolver answers a client ping", kHolds,
        ""},
       fig4_unresponsive},
      {{"fig5.median_30_50", "Figures 5/6", "medians 30-50 ms",
        "every carrier's cell-LDNS resolution p50 is within 30-50 ms",
        kGap,
        "the US carriers' medians sit a few ms above the range: their LTE "
        "resolutions alone have a median near 50 ms, and the 3G and 2G "
        "shares pull the carrier median past it. The Korean carriers' are "
        "inside it."},
       fig5_median},
      {{"fig5.long_tail", "Figures 5/6", "long tails past p80",
        "every carrier's resolution p99 is at least twice its p80", kHolds, ""},
       fig5_long_tail},
      {{"fig7.repeat_miss", "Figure 7",
        "~20% of repeats still miss (short CDN TTLs)",
        "US repeats are faster at the median, and 10-40% of them are slower "
        "than the first lookups' p75 (the report's repeat miss tail)",
        kSeedDependent,
        "the repeat miss tail sits on the band's lower edge (about 10%). It "
        "is a proxy: it counts only the misses slower than the first lookups'"
        " p75."},
       fig7_repeat_miss},
      {{"table4.majority_ping", "Table 4",
        "only Verizon and AT&T answer a majority of pings (plus a small "
        "fraction of T-Mobile)",
        "exactly AT&T and Verizon have most external resolvers answer the "
        "vantage ping; T-Mobile answers some, under half",
        kHolds, ""},
       table4_majority_ping},
      {{"table4.no_traceroute", "Table 4",
        "no resolver ever completes a traceroute",
        "no external resolver is reached by a vantage traceroute", kHolds, ""},
       table4_no_traceroute},
      {{"fig8.stable", "Figures 8/9", "AT&T-class and Verizon relatively stable",
        "AT&T's and Verizon's mean resolver IPs per client are below "
        "Sprint's and T-Mobile's",
        kGap,
        "the model's AT&T hands its clients across a pool of 36 external "
        "resolvers (Table 3: under 10% pair consistency), so an AT&T client "
        "sees as many resolver IPs as a T-Mobile client. Verizon is the "
        "stable carrier."},
       fig8_stable},
      {{"fig8.cross_slash24", "Figures 8/9", "Sprint/T-Mobile churn across /24s",
        "some Sprint and some T-Mobile client sees two or more resolver /24s",
        kHolds, ""},
       fig8_cross_slash24},
      {{"fig8.kr_inside_slash24s", "Figures 8/9",
        "SK carriers churn many IPs inside 1-2 /24s",
        "no Korean client sees more than two resolver /24s, and each Korean "
        "carrier's mean IPs per client exceeds every US carrier's",
        kHolds, ""},
       fig8_kr_inside_slash24s},
      {{"fig9.static_churn", "Figures 8/9", "stationary clients still churn",
        "in every carrier, most stationary clients see more than one resolver "
        "IP",
        kHolds, ""},
       fig9_static_churn},
      {{"fig10.same_slash24", "Figure 10",
        "same-/24 resolvers see near-identical replica sets",
        "every carrier's same-/24 cosine similarity p50 is at least 0.8",
        kHolds, ""},
       fig10_same_slash24},
      {{"fig10.cross_zero", "Figure 10",
        ">60% of cross-/24 pairs have similarity exactly 0",
        "in every carrier, more than 60% of cross-/24 pairs have similarity 0",
        kHolds, ""},
       fig10_cross_zero},
      {{"sec52.egress", "Section 5.2",
        "110 (AT&T), 45 (Sprint), 62 (Verizon), 49 (T-Mobile); discovery "
        "grows with campaign length",
        "each US carrier's discovered egress count is between half the "
        "paper's count and the count itself (the 3G-era ratio is "
        "bench/baseline_3g_era's)",
        kHolds, ""},
       sec52_egress},
      {{"table5.public_addresses", "Table 5",
        "public resolvers show ~4x the addresses of cell DNS",
        "in every carrier, GoogleDNS and OpenDNS each show 2-8× the cell "
        "LDNS's unique addresses",
        kGap,
        "OpenDNS shows only 1.5-1.7× the cell addresses in AT&T and T-Mobile,"
        " and the Korean cell pools (24 and 81 resolvers) are as large as the"
        " public services' Korean footprint or larger."},
       table5_public_addresses},
      {{"table5.comparable_slash24s", "Table 5", "comparable /24 counts",
        "in every carrier, GoogleDNS's and OpenDNS's /24 counts are within a "
        "factor of two of the cell LDNS's",
        kHolds, ""},
       table5_comparable_slash24s},
      {{"fig11.ldns_closer", "Figure 11",
        "the cell LDNS is closer at the median (except Verizon/LG U+, whose "
        "externals do not respond)",
        "every carrier but Verizon and LG U+ has a cell-LDNS ping p50 below "
        "both public VIPs'; those two get no reply",
        kHolds, ""},
       fig11_ldns_closer},
      {{"fig11.closer_by", "Figure 11", "closer by ~10-25 ms at the median",
        "every responding carrier's public-minus-cell p50 is within 10-25 ms, "
        "for both services",
        kGap,
        "the public VIPs are 25-30 ms farther than the cell LDNS at the "
        "median in the model, just past the paper's upper end."},
       fig11_closer_by},
      {{"fig12.drift", "Figure 12",
        "clients drift across several of Google's 30 geographic /24s",
        "in every carrier, most clients see more than one Google /24, and "
        "none more than 30",
        kHolds, ""},
       fig12_drift},
      {{"fig13.cell_faster", "Figure 13", "cell DNS faster at the median",
        "in every carrier, the local resolution p50 is below GoogleDNS's and "
        "OpenDNS's",
        kHolds, ""},
       fig13_cell_faster},
      {{"fig13.public_tail_shorter", "Figure 13",
        "public DNS lower variance and shorter tail",
        "in every carrier, the Google tail (p99-p50) is no longer than the "
        "local tail",
        kGap,
        "the tails (350-1100 ms) follow the radio path both resolver kinds "
        "share, and the Google tail is the longer one in the GSM carriers "
        "(AT&T, T-Mobile). Priming the public resolvers' referral chains made the gap"
        " wider, so the referral walk is not its cause."},
       fig13_public_tail_shorter},
      {{"fig14.exactly_zero", "Figure 14",
        "60-80% of comparisons land exactly at 0 after /24 aggregation",
        "every carrier and service has 60-80% of comparisons exactly at 0",
        kGap,
        "the share exactly at 0 differs widely between carriers and "
        "services: Verizon's and several others' sit below 60%, and "
        "Sprint's, the highest, can pass 80%."},
       fig14_exactly_zero},
      {{"fig14.headline", "Figure 14",
        "public DNS replicas equal-or-better >75% of the time",
        "the pooled equal-or-better share is above 75%", kHolds, ""},
       fig14_headline},
  };
  return kBands;
}

}  // namespace

const char* claim_status_name(ClaimStatus status) {
  switch (status) {
    case ClaimStatus::kHolds:
      return "holds";
    case ClaimStatus::kGap:
      return "gap";
    case ClaimStatus::kSeedDependent:
      return "seed-dependent";
  }
  CURTAIN_UNREACHABLE();
}

ClaimStatus claim_status(bool first_seed_passes, bool second_seed_passes) {
  if (first_seed_passes && second_seed_passes) return ClaimStatus::kHolds;
  if (!first_seed_passes && !second_seed_passes) return ClaimStatus::kGap;
  return ClaimStatus::kSeedDependent;
}

const std::vector<Claim>& paper_claims() {
  static const std::vector<Claim> kClaims = [] {
    std::vector<Claim> claims;
    for (const Band& band : bands()) claims.push_back(band.claim);
    return claims;
  }();
  return kClaims;
}

std::vector<ClaimVerdict> evaluate_claims(const RecordStore& dataset) {
  const Inputs inputs = gather(dataset);
  std::vector<ClaimVerdict> verdicts;
  for (const Band& band : bands()) verdicts.push_back(band.evaluate(inputs));
  return verdicts;
}

void write_claim_ledger(const std::array<ClaimRun, 2>& runs, double scale,
                        std::ostream& out) {
  const auto& claims = paper_claims();
  for (const ClaimRun& run : runs) {
    CURTAIN_CHECK(run.verdicts.size() == claims.size())
        << "seed " << run.seed << " has " << run.verdicts.size()
        << " verdicts for " << claims.size() << " claims";
  }
  const auto verdict = [](bool pass) { return pass ? "pass" : "fail"; };

  out << "\n## Paper-claim ledger\n\n"
      << "Each claim in the \"Paper:\" lines above, read whole as one band "
         "(`src/analysis/claims.cpp`, DESIGN.md §23) and evaluated at scale "
      << util::format_double(scale, 3) << " on seeds " << runs[0].seed
      << " and " << runs[1].seed
      << ". A stated range is read as written; an approximate value as "
         "within a factor of two. Status: **holds** passes at both seeds; "
         "**gap** fails at both and is registered as an expected failure; "
         "**seed-dependent** passes at one seed only. `claims_test` fails "
         "when an observed status differs from its registration.\n\n";
  out << "| Claim | Source | " << runs[0].seed << " | " << runs[1].seed
      << " | Status | Registered |\n|---|---|---|---|---|---|\n";
  size_t mismatched = 0;
  for (size_t i = 0; i < claims.size(); ++i) {
    const ClaimStatus status =
        claim_status(runs[0].verdicts[i].pass, runs[1].verdicts[i].pass);
    std::string registered = claim_status_name(claims[i].registered);
    if (status != claims[i].registered) {
      ++mismatched;
      registered = "**" + registered + " (differs)**";
    }
    out << "| `" << claims[i].id << "` | " << claims[i].source << " | "
        << verdict(runs[0].verdicts[i].pass) << " | "
        << verdict(runs[1].verdicts[i].pass) << " | "
        << claim_status_name(status) << " | " << registered << " |\n";
  }
  out << "\n" << claims.size() - mismatched << " of " << claims.size()
      << " bands match their registration.\n\n### Band detail\n";
  for (size_t i = 0; i < claims.size(); ++i) {
    const Claim& claim = claims[i];
    out << "\n- `" << claim.id << "` — paper: " << claim.paper
        << ". Band: " << claim.band << ".";
    if (!claim.reason.empty()) {
      out << " Why " << claim_status_name(claim.registered) << ": "
          << claim.reason;
    }
    out << "\n";
    for (const ClaimRun& run : runs) {
      out << "  - " << run.seed << " (" << verdict(run.verdicts[i].pass)
          << "): " << run.verdicts[i].detail << "\n";
    }
  }
}

}  // namespace curtain::analysis
