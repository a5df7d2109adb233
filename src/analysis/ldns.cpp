#include "analysis/ldns.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "net/geo.h"

namespace curtain::analysis {
namespace {

ResolverTimeline build_timeline(
    uint64_t device_id, int carrier_index,
    const std::vector<JoinedObservation>& observations) {
  ResolverTimeline timeline;
  timeline.device_id = device_id;
  timeline.carrier_index = carrier_index;
  std::unordered_map<uint32_t, int> ip_ranks;
  std::unordered_map<uint32_t, int> prefix_ranks;
  for (const auto& joined : observations) {
    const net::Ipv4Addr ip = joined.external_ip;
    auto [ip_it, ip_new] =
        ip_ranks.emplace(ip.value(), static_cast<int>(ip_ranks.size()) + 1);
    auto [p_it, p_new] = prefix_ranks.emplace(
        ip.slash24().value(), static_cast<int>(prefix_ranks.size()) + 1);
    (void)ip_new;
    (void)p_new;
    timeline.times.push_back(joined.context->started);
    timeline.ip_rank.push_back(ip_it->second);
    timeline.slash24_rank.push_back(p_it->second);
  }
  return timeline;
}

}  // namespace

std::vector<JoinedObservation> joined_observations(
    const measure::RecordStore& dataset, int carrier_index,
    measure::ResolverKind kind) {
  std::vector<JoinedObservation> out;
  for (const auto& observation : dataset.observations()) {
    if (observation.resolver != kind || !observation.responded) continue;
    const auto& context = observation.context();
    if (context.carrier_index != carrier_index) continue;
    out.push_back(JoinedObservation{&context, observation.external_ip});
  }
  std::sort(out.begin(), out.end(),
            [](const JoinedObservation& a, const JoinedObservation& b) {
              return a.context->started < b.context->started;
            });
  return out;
}

size_t ResolverTimeline::unique_ips() const {
  return ip_rank.empty() ? 0
                         : static_cast<size_t>(
                               *std::max_element(ip_rank.begin(), ip_rank.end()));
}

size_t ResolverTimeline::unique_slash24s() const {
  return slash24_rank.empty()
             ? 0
             : static_cast<size_t>(*std::max_element(slash24_rank.begin(),
                                                     slash24_rank.end()));
}

std::vector<LdnsPairStats> ldns_pair_stats(const measure::RecordStore& dataset) {
  const int carriers = static_cast<int>(dataset.carriers().size());
  std::vector<LdnsPairStats> out;
  for (int c = 0; c < carriers; ++c) {
    const auto joined =
        joined_observations(dataset, c, measure::ResolverKind::kLocal);
    LdnsPairStats stats;
    stats.carrier_index = c;
    std::set<uint32_t> clients;
    std::set<uint32_t> externals;
    std::set<std::pair<uint32_t, uint32_t>> pairs;
    // client resolver -> external -> count, for modal consistency.
    std::map<uint32_t, std::map<uint32_t, uint64_t>> pair_counts;
    size_t indirect = 0;
    for (const auto& j : joined) {
      const uint32_t client = j.context->configured_resolver.value();
      const uint32_t external = j.external_ip.value();
      if (external != client) ++indirect;
      clients.insert(client);
      externals.insert(external);
      pairs.emplace(client, external);
      ++pair_counts[client][external];
    }
    stats.client_resolvers = clients.size();
    stats.external_resolvers = externals.size();
    stats.pairs = pairs.size();
    if (!joined.empty()) {
      stats.indirect_share =
          static_cast<double>(indirect) / static_cast<double>(joined.size());
    }

    uint64_t total = 0;
    uint64_t modal = 0;
    for (const auto& [client, counts] : pair_counts) {
      uint64_t client_total = 0;
      uint64_t client_modal = 0;
      for (const auto& [external, count] : counts) {
        client_total += count;
        client_modal = std::max(client_modal, count);
      }
      total += client_total;
      modal += client_modal;
    }
    stats.consistency_percent =
        total == 0 ? 0.0
                   : 100.0 * static_cast<double>(modal) /
                         static_cast<double>(total);
    out.push_back(stats);
  }
  return out;
}

std::vector<ResolverTimeline> resolver_timelines(
    const measure::RecordStore& dataset, int carrier_index,
    measure::ResolverKind kind) {
  return resolver_timelines(
      joined_observations(dataset, carrier_index, kind), carrier_index);
}

std::vector<ResolverTimeline> resolver_timelines(
    const std::vector<JoinedObservation>& joined, int carrier_index) {
  std::map<uint64_t, std::vector<JoinedObservation>> by_device;
  for (const auto& j : joined) by_device[j.context->device_id].push_back(j);
  std::vector<ResolverTimeline> out;
  out.reserve(by_device.size());
  for (const auto& [device, observations] : by_device) {
    out.push_back(build_timeline(device, carrier_index, observations));
  }
  return out;
}

std::vector<ResolverTimeline> static_resolver_timelines(
    const measure::RecordStore& dataset, int carrier_index,
    measure::ResolverKind kind, double radius_km) {
  return static_resolver_timelines(
      joined_observations(dataset, carrier_index, kind), carrier_index,
      radius_km);
}

std::vector<ResolverTimeline> static_resolver_timelines(
    const std::vector<JoinedObservation>& joined, int carrier_index,
    double radius_km) {
  std::map<uint64_t, std::vector<JoinedObservation>> by_device;
  for (const auto& j : joined) by_device[j.context->device_id].push_back(j);

  std::vector<ResolverTimeline> out;
  for (auto& [device, observations] : by_device) {
    // Modal location: bucket observations onto a ~10 km grid, take the
    // densest cell's centroid. Robust to any fraction of travel episodes.
    std::map<std::pair<int, int>, std::vector<const JoinedObservation*>> cells;
    for (const auto& j : observations) {
      const int lat_cell = static_cast<int>(j.context->location.lat_deg * 10.0);
      const int lon_cell = static_cast<int>(j.context->location.lon_deg * 10.0);
      cells[{lat_cell, lon_cell}].push_back(&j);
    }
    const std::vector<const JoinedObservation*>* densest = nullptr;
    for (const auto& [cell, members] : cells) {
      if (densest == nullptr || members.size() > densest->size()) {
        densest = &members;
      }
    }
    net::GeoPoint modal{0.0, 0.0};
    for (const auto* j : *densest) {
      modal.lat_deg += j->context->location.lat_deg;
      modal.lon_deg += j->context->location.lon_deg;
    }
    modal.lat_deg /= static_cast<double>(densest->size());
    modal.lon_deg /= static_cast<double>(densest->size());

    std::vector<JoinedObservation> at_home;
    for (const auto& j : observations) {
      if (net::distance_km(j.context->location, modal) <= radius_km) {
        at_home.push_back(j);
      }
    }
    if (!at_home.empty()) {
      out.push_back(build_timeline(device, carrier_index, at_home));
    }
  }
  return out;
}

}  // namespace curtain::analysis
