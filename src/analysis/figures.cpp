#include "analysis/figures.h"

#include <algorithm>

#include "util/contract.h"
#include "util/smallvec.h"

namespace curtain::analysis {
namespace {

using measure::RecordStore;
using measure::ProbeTargetKind;
using measure::ResolverKind;

}  // namespace

std::map<std::string, Ecdf> fig2_replica_penalty(const RecordStore& d) {
  // The paper shows four domains; use the four CNAME-heavy consumer sites.
  const std::vector<uint16_t> domains = {2, 5, 6, 7};  // fb, buzzfeed, yelp, twitter
  auto by_carrier = replica_penalty_by_carrier(d, domains);
  std::map<std::string, Ecdf> out;
  for (auto& [carrier, cdf] : by_carrier) {
    out[d.carrier_name(carrier)] = std::move(cdf);
  }
  return out;
}

std::map<std::string, CdfGroup> fig3_radio_bands(const RecordStore& d) {
  std::map<std::string, CdfGroup> out;
  for (const auto& resolution : d.resolutions()) {
    if (resolution.resolver != ResolverKind::kLocal || resolution.second_lookup ||
        !resolution.responded) {
      continue;
    }
    const auto& context = resolution.context();
    out[d.carrier_name(context.carrier_index)]
       [cellular::radio_tech_name(context.radio)]
           .add(resolution.resolution_ms);
  }
  return out;
}

std::map<std::string, RadioBandSummary> fig3_band_summary(const RecordStore& d) {
  std::map<std::string, RadioBandSummary> out;
  for (const auto& [carrier, by_tech] : fig3_radio_bands(d)) {
    RadioBandSummary& bands = out[carrier];
    for (const auto& [tech_name, cdf] : by_tech) {
      if (tech_name == "LTE") {
        bands.has_lte = true;
        bands.lte_p50 = cdf.median();
      } else if (tech_name == "1xRTT" || tech_name == "GPRS" ||
                 tech_name == "EDGE") {
        bands.g2.add_all(cdf.sorted_values());
      } else {
        bands.g3.add_all(cdf.sorted_values());
      }
    }
  }
  return out;
}

std::map<std::string, CdfGroup> fig4_resolver_distance(const RecordStore& d) {
  std::map<std::string, CdfGroup> out;
  for (const auto& probe : d.probes()) {
    if (probe.is_http || !probe.responded) continue;
    const bool client = probe.target_kind == ProbeTargetKind::kClientResolver;
    const bool external =
        probe.target_kind == ProbeTargetKind::kExternalResolver &&
        probe.resolver == ResolverKind::kLocal;
    if (!client && !external) continue;
    out[d.carrier_name(probe.context().carrier_index)]
       [client ? "Client" : "External"]
           .add(probe.rtt_ms);
  }
  return out;
}

CdfGroup fig5_fig6_resolution_times(const RecordStore& d,
                                    const std::string& country) {
  const auto& carriers = d.carriers();
  CdfGroup out;
  for (const auto& resolution : d.resolutions()) {
    if (resolution.resolver != ResolverKind::kLocal || resolution.second_lookup ||
        !resolution.responded) {
      continue;
    }
    const auto& profile =
        carriers[static_cast<size_t>(resolution.context().carrier_index)];
    if (profile.country != country) continue;
    out[profile.name].add(resolution.resolution_ms);
  }
  return out;
}

CdfGroup fig7_cache_effect(const RecordStore& d) {
  const auto& carriers = d.carriers();
  CdfGroup out;
  for (const auto& resolution : d.resolutions()) {
    if (resolution.resolver != ResolverKind::kLocal || !resolution.responded) {
      continue;
    }
    const auto carrier =
        static_cast<size_t>(resolution.context().carrier_index);
    if (carriers[carrier].country != "US") {
      continue;
    }
    out[resolution.second_lookup ? "2nd Lookup" : "1st Lookup"].add(
        resolution.resolution_ms);
  }
  return out;
}

std::vector<ChurnSummary> fig8_fig9_churn(const RecordStore& d) {
  std::vector<ChurnSummary> out;
  for (int c = 0; c < static_cast<int>(d.carriers().size()); ++c) {
    const auto joined = joined_observations(d, c, ResolverKind::kLocal);
    ChurnSummary churn;
    const auto timelines = resolver_timelines(joined, c);
    for (const auto& timeline : timelines) {
      churn.mean_ips += static_cast<double>(timeline.unique_ips());
      churn.max_ips = std::max(churn.max_ips, timeline.unique_ips());
      churn.max_slash24s =
          std::max(churn.max_slash24s, timeline.unique_slash24s());
    }
    if (!timelines.empty()) {
      churn.mean_ips /= static_cast<double>(timelines.size());
    }
    const auto static_timelines = static_resolver_timelines(joined, c);
    churn.static_clients = static_timelines.size();
    for (const auto& timeline : static_timelines) {
      if (timeline.unique_ips() > 1) ++churn.static_churning;
    }
    out.push_back(churn);
  }
  return out;
}

std::map<std::string, CosineSplit> fig10_cosine(const RecordStore& d,
                                                uint16_t domain_index) {
  std::map<std::string, CosineSplit> out;
  for (size_t c = 0; c < d.carriers().size(); ++c) {
    out[d.carriers()[c].name] =
        cosine_by_prefix(d, domain_index, static_cast<int>(c));
  }
  return out;
}

std::map<std::string, CdfGroup> fig11_public_distance(const RecordStore& d) {
  std::map<std::string, CdfGroup> out;
  for (const auto& probe : d.probes()) {
    if (probe.is_http || !probe.responded) continue;
    const std::string& carrier =
        d.carrier_name(probe.context().carrier_index);
    if (probe.target_kind == ProbeTargetKind::kExternalResolver &&
        probe.resolver == ResolverKind::kLocal) {
      out[carrier]["Cell LDNS"].add(probe.rtt_ms);
    } else if (probe.target_kind == ProbeTargetKind::kPublicVip) {
      out[carrier][probe.resolver == ResolverKind::kGoogle ? "GoogleDNS"
                                                           : "OpenDNS"]
          .add(probe.rtt_ms);
    }
  }
  return out;
}

std::vector<GoogleDrift> fig12_google_drift(const RecordStore& d) {
  std::vector<GoogleDrift> out;
  for (int c = 0; c < static_cast<int>(d.carriers().size()); ++c) {
    GoogleDrift drift;
    const auto timelines = resolver_timelines(d, c, ResolverKind::kGoogle);
    drift.clients = timelines.size();
    for (const auto& timeline : timelines) {
      if (timeline.unique_slash24s() > 1) ++drift.multi_slash24;
      drift.max_slash24s =
          std::max(drift.max_slash24s, timeline.unique_slash24s());
    }
    out.push_back(drift);
  }
  return out;
}

std::map<std::string, CdfGroup> fig13_public_resolution(const RecordStore& d) {
  std::map<std::string, CdfGroup> out;
  for (const auto& resolution : d.resolutions()) {
    if (resolution.second_lookup || !resolution.responded) continue;
    out[d.carrier_name(resolution.context().carrier_index)]
       [measure::resolver_kind_name(resolution.resolver)]
           .add(resolution.resolution_ms);
  }
  return out;
}

namespace {

/// One experiment's replica HTTP samples for one (domain, resolver kind):
/// the latency sum in probe order and the distinct /24s probed.
struct ReplicaSample {
  uint16_t domain = 0;
  ResolverKind kind = ResolverKind::kLocal;
  double latency_sum = 0.0;
  int count = 0;
  util::SmallVec<uint32_t, 4> slash24s;

  double mean() const { return latency_sum / count; }
  bool shares_slash24(const ReplicaSample& other) const {
    return std::any_of(slash24s.begin(), slash24s.end(), [&](uint32_t p) {
      return std::find(other.slash24s.begin(), other.slash24s.end(), p) !=
             other.slash24s.end();
    });
  }
};

/// Appends one experiment's comparisons and empties `samples`. Sorted by
/// (domain, kind), a local sample is followed by its domain's Google and
/// then OpenDNS samples, so the comparisons come in (domain, service)
/// order.
void emit_experiment_deltas(std::vector<ReplicaSample>& samples,
                            int carrier_index,
                            std::vector<ReplicaDelta>& out) {
  static_assert(ResolverKind::kLocal < ResolverKind::kGoogle &&
                ResolverKind::kGoogle < ResolverKind::kOpenDns);
  std::sort(samples.begin(), samples.end(),
            [](const ReplicaSample& a, const ReplicaSample& b) {
              return a.domain != b.domain ? a.domain < b.domain
                                          : a.kind < b.kind;
            });
  for (auto local = samples.begin(); local != samples.end(); ++local) {
    if (local->kind != ResolverKind::kLocal) continue;
    for (auto pub = local + 1;
         pub != samples.end() && pub->domain == local->domain; ++pub) {
      // /24 aggregation: overlapping replica /24 sets count as equal.
      const double percent =
          pub->shares_slash24(*local)
              ? 0.0
              : (pub->mean() - local->mean()) / local->mean() * 100.0;
      out.push_back({carrier_index, pub->kind, percent});
    }
  }
  samples.clear();
}

}  // namespace

std::vector<ReplicaDelta> fig14_replica_deltas(const RecordStore& d) {
  std::vector<ReplicaDelta> out;
  // An experiment's probe rows are contiguous and ids ascend along the
  // stream, so one experiment's samples at a time give the comparisons in
  // (experiment, domain, kind) order.
  std::vector<ReplicaSample> samples;
  uint32_t experiment = 0;
  int carrier_index = 0;
  for (const auto& probe : d.probes()) {
    if (probe.target_kind != ProbeTargetKind::kReplica || !probe.is_http ||
        !probe.responded) {
      continue;
    }
    if (!samples.empty() && probe.experiment_id != experiment) {
      CURTAIN_DCHECK(probe.experiment_id > experiment)
          << "experiment ids must ascend along the probe stream";
      emit_experiment_deltas(samples, carrier_index, out);
    }
    if (samples.empty()) {
      experiment = probe.experiment_id;
      carrier_index = probe.context().carrier_index;
    }
    // An experiment probes one (domain, kind) pair's replicas back to back,
    // so the last sample is nearly always the one to extend.
    auto it = std::find_if(samples.rbegin(), samples.rend(),
                           [&](const ReplicaSample& s) {
                             return s.domain == probe.domain_index &&
                                    s.kind == probe.resolver;
                           });
    if (it == samples.rend()) {
      samples.emplace_back();
      samples.back().domain = probe.domain_index;
      samples.back().kind = probe.resolver;
      it = samples.rbegin();
    }
    it->latency_sum += probe.rtt_ms;
    ++it->count;
    const uint32_t slash24 = probe.target_ip.slash24().value();
    if (std::find(it->slash24s.begin(), it->slash24s.end(), slash24) ==
        it->slash24s.end()) {
      it->slash24s.push_back(slash24);
    }
  }
  if (!samples.empty()) emit_experiment_deltas(samples, carrier_index, out);
  return out;
}

std::map<std::string, CdfGroup> fig14_public_replica_delta(const RecordStore& d) {
  std::map<std::string, CdfGroup> out;
  // Map nodes stay put, so each (carrier, service) CDF is looked up once.
  std::vector<Ecdf*> cdfs(d.carriers().size() * measure::kNumResolverKinds);
  for (const ReplicaDelta& delta : fig14_replica_deltas(d)) {
    const auto carrier = static_cast<size_t>(delta.carrier_index);
    CURTAIN_DCHECK(carrier < d.carriers().size()) << carrier;
    Ecdf*& cdf = cdfs[carrier * measure::kNumResolverKinds +
                      static_cast<size_t>(delta.service)];
    if (cdf == nullptr) {
      cdf = &out[d.carrier_name(delta.carrier_index)]
                [measure::resolver_kind_name(delta.service)];
    }
    cdf->add(delta.percent);
  }
  return out;
}

double headline_public_equal_or_better(const RecordStore& d) {
  const auto deltas = fig14_replica_deltas(d);
  const auto equal_or_better =
      std::count_if(deltas.begin(), deltas.end(),
                    [](const ReplicaDelta& delta) { return delta.percent <= 0.0; });
  return deltas.empty() ? 0.0
                        : static_cast<double>(equal_or_better) /
                              static_cast<double>(deltas.size());
}

}  // namespace curtain::analysis
