#include "analysis/figures.h"

#include <algorithm>
#include <set>

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

/// Per (experiment, domain, resolver kind): mean replica HTTP latency and
/// the /24 set of the probed replicas, plus the experiment's carrier.
struct ReplicaSample {
  int carrier_index = 0;
  double latency_sum = 0.0;
  int count = 0;
  std::set<uint32_t> slash24s;

  double mean() const { return count == 0 ? 0.0 : latency_sum / count; }
};

using SampleKey = std::tuple<uint32_t, uint16_t, int>;

std::map<SampleKey, ReplicaSample> collect_replica_samples(const RecordStore& d) {
  std::map<SampleKey, ReplicaSample> samples;
  for (const auto& probe : d.probes()) {
    if (probe.target_kind != ProbeTargetKind::kReplica || !probe.is_http ||
        !probe.responded) {
      continue;
    }
    ReplicaSample& sample =
        samples[{probe.experiment_id, probe.domain_index,
                 static_cast<int>(probe.resolver)}];
    sample.carrier_index = probe.context().carrier_index;
    sample.latency_sum += probe.rtt_ms;
    ++sample.count;
    sample.slash24s.insert(probe.target_ip.slash24().value());
  }
  return samples;
}

}  // namespace

std::map<std::string, CdfGroup> fig14_public_replica_delta(const RecordStore& d) {
  const auto samples = collect_replica_samples(d);
  std::map<std::string, CdfGroup> out;
  for (const auto& [key, local] : samples) {
    const auto [experiment, domain, kind] = key;
    if (kind != static_cast<int>(ResolverKind::kLocal) || local.count == 0) {
      continue;
    }
    const std::string& carrier = d.carrier_name(local.carrier_index);
    for (const ResolverKind public_kind :
         {ResolverKind::kGoogle, ResolverKind::kOpenDns}) {
      const auto it =
          samples.find({experiment, domain, static_cast<int>(public_kind)});
      if (it == samples.end() || it->second.count == 0) continue;
      const ReplicaSample& pub = it->second;
      // /24 aggregation: overlapping replica /24 sets count as equal.
      const bool same_cluster = std::any_of(
          pub.slash24s.begin(), pub.slash24s.end(), [&](uint32_t p) {
            return local.slash24s.find(p) != local.slash24s.end();
          });
      const double delta =
          same_cluster ? 0.0
                       : (pub.mean() - local.mean()) / local.mean() * 100.0;
      out[carrier][measure::resolver_kind_name(public_kind)].add(delta);
    }
  }
  return out;
}

double headline_public_equal_or_better(const RecordStore& d) {
  const auto groups = fig14_public_replica_delta(d);
  uint64_t total = 0;
  uint64_t equal_or_better = 0;
  for (const auto& [carrier, group] : groups) {
    for (const auto& [kind, cdf] : group) {
      total += cdf.size();
      equal_or_better += static_cast<uint64_t>(
          cdf.fraction_at_or_below(0.0) * static_cast<double>(cdf.size()) + 0.5);
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(equal_or_better) /
                          static_cast<double>(total);
}

}  // namespace curtain::analysis
