#include "analysis/replica.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace curtain::analysis {
namespace {

/// experiment_id -> external resolver IP (local kind) for joins.
std::map<uint32_t, uint32_t> local_external_by_experiment(
    const measure::RecordStore& dataset) {
  std::map<uint32_t, uint32_t> out;
  for (const auto& observation : dataset.observations()) {
    if (observation.resolver == measure::ResolverKind::kLocal &&
        observation.responded) {
      out[observation.experiment_id] = observation.external_ip.value();
    }
  }
  return out;
}

}  // namespace

double ReplicaMap::ratio(net::Ipv4Addr replica) const {
  if (total_ == 0) return 0.0;
  const auto it = counts_.find(replica.value());
  if (it == counts_.end()) return 0.0;
  return static_cast<double>(it->second) / static_cast<double>(total_);
}

double ReplicaMap::cosine_similarity(const ReplicaMap& other) const {
  if (total_ == 0 || other.total_ == 0) return 0.0;
  double dot = 0.0;
  double norm_a = 0.0;
  double norm_b = 0.0;
  for (const auto& [ip, count] : counts_) {
    const double a = static_cast<double>(count) / static_cast<double>(total_);
    norm_a += a * a;
    const auto it = other.counts_.find(ip);
    if (it != other.counts_.end()) {
      const double b =
          static_cast<double>(it->second) / static_cast<double>(other.total_);
      dot += a * b;
    }
  }
  for (const auto& [ip, count] : other.counts_) {
    const double b =
        static_cast<double>(count) / static_cast<double>(other.total_);
    norm_b += b * b;
  }
  const double denom = std::sqrt(norm_a) * std::sqrt(norm_b);
  return denom > 0.0 ? dot / denom : 0.0;
}

std::map<int, Ecdf> replica_penalty_by_carrier(
    const measure::RecordStore& dataset,
    const std::vector<uint16_t>& domain_filter) {
  // (device, domain, replica) -> running mean of HTTP TTFB.
  struct Acc {
    double sum = 0.0;
    uint64_t n = 0;
  };
  std::map<std::tuple<uint64_t, uint16_t, uint32_t>, Acc> latency;
  std::map<uint64_t, int> device_carrier;

  for (const auto& probe : dataset.probes()) {
    if (probe.target_kind != measure::ProbeTargetKind::kReplica ||
        !probe.is_http || !probe.responded ||
        probe.resolver != measure::ResolverKind::kLocal) {
      continue;
    }
    if (!domain_filter.empty() &&
        std::find(domain_filter.begin(), domain_filter.end(),
                  probe.domain_index) == domain_filter.end()) {
      continue;
    }
    const auto& context = probe.context();
    device_carrier[context.device_id] = context.carrier_index;
    Acc& acc = latency[{context.device_id, probe.domain_index,
                        probe.target_ip.value()}];
    acc.sum += probe.rtt_ms;
    ++acc.n;
  }

  // Per (device, domain): percent increase of each replica vs the best.
  std::map<int, Ecdf> by_carrier;
  auto it = latency.begin();
  while (it != latency.end()) {
    const auto [device, domain, first_ip] = it->first;
    (void)first_ip;
    double best = 1e18;
    std::vector<double> means;
    auto end = it;
    while (end != latency.end() && std::get<0>(end->first) == device &&
           std::get<1>(end->first) == domain) {
      const double mean = end->second.sum / static_cast<double>(end->second.n);
      means.push_back(mean);
      best = std::min(best, mean);
      ++end;
    }
    if (means.size() >= 2) {  // a lone replica has no differential
      Ecdf& cdf = by_carrier[device_carrier[device]];
      for (const double mean : means) {
        cdf.add((mean / best - 1.0) * 100.0);
      }
    }
    it = end;
  }
  return by_carrier;
}

std::map<uint32_t, ReplicaMap> replica_maps_by_resolver(
    const measure::RecordStore& dataset, uint16_t domain_index, int carrier_index) {
  const auto externals = local_external_by_experiment(dataset);
  std::map<uint32_t, ReplicaMap> maps;
  for (const auto& resolution : dataset.resolutions()) {
    if (resolution.resolver != measure::ResolverKind::kLocal ||
        resolution.second_lookup || !resolution.responded ||
        resolution.domain_index != domain_index) {
      continue;
    }
    if (resolution.context().carrier_index != carrier_index) continue;
    const auto external = externals.find(resolution.experiment_id);
    if (external == externals.end()) continue;
    ReplicaMap& map = maps[external->second];
    for (const net::Ipv4Addr address : resolution.addresses) {
      map.observe(address);
    }
  }
  return maps;
}

CosineSplit cosine_by_prefix(const measure::RecordStore& dataset,
                             uint16_t domain_index, int carrier_index) {
  const auto maps = replica_maps_by_resolver(dataset, domain_index, carrier_index);
  // maps is ordered by resolver IP, so the pairwise sweep below visits
  // pairs in a reproducible order with no extra sort.
  std::vector<std::pair<uint32_t, const ReplicaMap*>> entries;
  entries.reserve(maps.size());
  for (const auto& [ip, map] : maps) {
    if (!map.empty()) entries.emplace_back(ip, &map);
  }

  CosineSplit split;
  for (size_t i = 0; i < entries.size(); ++i) {
    for (size_t j = i + 1; j < entries.size(); ++j) {
      const double sim = entries[i].second->cosine_similarity(*entries[j].second);
      const bool same24 = net::Ipv4Addr(entries[i].first).slash24() ==
                          net::Ipv4Addr(entries[j].first).slash24();
      (same24 ? split.same_slash24 : split.different_slash24).add(sim);
    }
  }
  return split;
}

}  // namespace curtain::analysis
