#include "net/topology.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <queue>
#include <unordered_map>

#include "obs/metrics.h"

namespace curtain::net {
namespace {

uint64_t route_key(NodeId from, NodeId to) {
  return (static_cast<uint64_t>(from) << 32) | to;
}

/// Next topology stamp; 0 is never issued, so a fresh thread cache (stamp
/// 0) matches no topology.
uint64_t next_stamp() {
  static std::atomic<uint64_t> counter{0};  // lint: shared-static (atomic; stamps need only be unique)
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// The calling thread's routes for the topology carrying `stamp`.
struct RouteCache {
  uint64_t stamp = 0;
  std::unordered_map<uint64_t, std::vector<NodeId>> routes;
};

std::unordered_map<uint64_t, std::vector<NodeId>>& thread_routes(
    uint64_t stamp) {
  static thread_local RouteCache cache;
  if (cache.stamp != stamp) {
    cache.routes.clear();
    cache.stamp = stamp;
  }
  return cache.routes;
}

}  // namespace

Topology::Topology() : stamp_(next_stamp()) {
  // Zone 0 is always the open Internet.
  zones_.push_back(Zone{"internet", /*blocks_inbound_probes=*/false});
}

ZoneId Topology::add_zone(std::string name, bool blocks_inbound_probes) {
  zones_.push_back(Zone{std::move(name), blocks_inbound_probes});
  return static_cast<ZoneId>(zones_.size() - 1);
}

NodeId Topology::add_node(Node node) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  node.id = id;
  if (!node.ip.is_unspecified()) ip_index_[node.ip.value()] = id;
  nodes_.push_back(std::move(node));
  adjacency_.emplace_back();
  stamp_ = next_stamp();
  return id;
}

void Topology::add_link(NodeId a, NodeId b, LatencyModel latency, double loss,
                        bool tunneled) {
  const auto index = static_cast<uint32_t>(links_.size());
  links_.push_back(Link{a, b, latency, loss, tunneled});
  adjacency_[a].push_back(Edge{b, index});
  adjacency_[b].push_back(Edge{a, index});
  stamp_ = next_stamp();
}

NodeId Topology::find_by_ip(Ipv4Addr ip) const {
  const auto it = ip_index_.find(ip.value());
  return it == ip_index_.end() ? kInvalidNode : it->second;
}

const std::vector<NodeId>& Topology::route(NodeId from, NodeId to) const {
  auto& route_cache = thread_routes(stamp_);
  const uint64_t key = route_key(from, to);
  const auto cached = route_cache.find(key);
  if (cached != route_cache.end()) return cached->second;

  // Dijkstra over typical link latency from `from`; we cache only the
  // requested pair (worlds have few distinct probe sources, many targets,
  // and recomputation is cheap relative to campaign length).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(nodes_.size(), kInf);
  std::vector<NodeId> prev(nodes_.size(), kInvalidNode);
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  dist[from] = 0.0;
  heap.emplace(0.0, from);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    if (u == to) break;
    for (const Edge& edge : adjacency_[u]) {
      const double nd = d + links_[edge.link_index].latency.typical_ms();
      if (nd < dist[edge.peer]) {
        dist[edge.peer] = nd;
        prev[edge.peer] = u;
        heap.emplace(nd, edge.peer);
      }
    }
  }

  std::vector<NodeId> path;
  if (dist[to] != kInf) {
    for (NodeId at = to; at != kInvalidNode; at = prev[at]) {
      path.push_back(at);
      if (at == from) break;
    }
    std::reverse(path.begin(), path.end());
    if (path.empty() || path.front() != from) path.clear();
  }
  return route_cache.emplace(key, std::move(path)).first->second;
}

const Link& Topology::link_between(NodeId a, NodeId b) const {
  // Route hops are adjacent by construction; pick the lowest-latency
  // parallel link if several exist.
  const Link* best = nullptr;
  for (const Edge& edge : adjacency_[a]) {
    if (edge.peer != b) continue;
    const Link& link = links_[edge.link_index];
    if (best == nullptr || link.latency.typical_ms() < best->latency.typical_ms()) {
      best = &link;
    }
  }
  return *best;  // precondition: a and b are adjacent
}

bool Topology::probe_blocked_at(ZoneId origin_zone, NodeId target) const {
  const ZoneId target_zone = nodes_[target].zone;
  return target_zone != origin_zone && zones_[target_zone].blocks_inbound_probes;
}

std::optional<double> Topology::transport_rtt_ms(NodeId from, NodeId to,
                                                 Rng& rng) const {
  const auto& path = route(from, to);
  if (path.empty()) return std::nullopt;
  double rtt = nodes_[to].processing.sample(rng);
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    const Link& link = link_between(path[i], path[i + 1]);
    rtt += link.latency.sample(rng) + link.latency.sample(rng);
  }
  return rtt;
}

PingResult Topology::ping(NodeId from, NodeId to, Rng& rng) const {
  // Handles re-bind whenever the thread's sheaf changes (obs/metrics.h):
  // pooled workers run many shards, each with its own sheaf.
  struct PingMetrics {
    obs::Counter& pings = obs::metrics().counter(
        "curtain_net_pings_total", "ping probes attempted across the topology");
    obs::Counter& firewalled = obs::metrics().counter(
        "curtain_net_probes_firewalled_total",
        "probes dropped at a NAT/firewall zone boundary");
    obs::Counter& unresponsive = obs::metrics().counter(
        "curtain_net_probes_unresponsive_total",
        "probes whose target declines to answer (reachability policy)");
  };
  static thread_local obs::SheafLocal<PingMetrics> ping_metrics;
  auto& [pings, firewalled, unresponsive] = ping_metrics.get();
  pings.inc();
  PingResult result;
  const auto& path = route(from, to);
  if (path.empty()) {
    result.failure = PingResult::Failure::kNoRoute;
    return result;
  }
  if (!nodes_[to].answers_ping_from(nodes_[from].owner_tag)) {
    result.failure = PingResult::Failure::kUnresponsive;
    unresponsive.inc();
    return result;
  }
  const ZoneId origin_zone = nodes_[from].zone;
  double rtt = nodes_[to].processing.sample(rng);
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    const NodeId next = path[i + 1];
    if (probe_blocked_at(origin_zone, next)) {
      result.failure = PingResult::Failure::kFirewalled;
      firewalled.inc();
      return result;
    }
    const Link& link = link_between(path[i], next);
    if (rng.bernoulli(link.loss) || rng.bernoulli(link.loss)) {
      result.failure = PingResult::Failure::kLoss;
      return result;
    }
    rtt += link.latency.sample(rng) + link.latency.sample(rng);
  }
  result.responded = true;
  result.rtt_ms = rtt;
  return result;
}

TracerouteResult Topology::traceroute(NodeId from, NodeId to, Rng& rng) const {
  TracerouteResult result;
  const auto& path = route(from, to);
  if (path.empty()) return result;
  const ZoneId origin_zone = nodes_[from].zone;

  double cumulative_one_way = 0.0;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    const NodeId hop = path[i + 1];
    if (probe_blocked_at(origin_zone, hop)) {
      // Firewalled ingress: probes die silently beyond this point (§4.4).
      return result;
    }
    const Link& link = link_between(path[i], hop);
    cumulative_one_way += link.latency.sample(rng);
    const bool is_destination = (hop == to);
    const Node& hop_node = nodes_[hop];

    // Interior hops of tunneled links never decrement TTL (MPLS, §4.2);
    // they simply do not appear. The destination always terminates the
    // trace even when reached through a tunnel.
    if (link.tunneled && !is_destination) continue;

    TracerouteHop entry;
    entry.node = hop;
    // A destination terminates the trace only if it answers high-TTL
    // probes at all (responds_to_traceroute) *and* would answer this
    // prober (ping policy). Resolvers that answer pings but filter
    // traceroute probes (paper Table 4) never complete a trace.
    const bool answers =
        is_destination
            ? hop_node.responds_to_traceroute &&
                  hop_node.answers_ping_from(nodes_[from].owner_tag)
            : hop_node.responds_to_traceroute;
    if (answers && !rng.bernoulli(link.loss)) {
      entry.responded = true;
      entry.rtt_ms = 2.0 * cumulative_one_way + hop_node.processing.sample(rng);
    } else {
      entry.node = kInvalidNode;  // anonymous "* * *" hop
    }
    result.hops.push_back(entry);
    if (is_destination) result.reached_destination = entry.responded;
  }
  return result;
}

NodeId Topology::zone_boundary(NodeId from, NodeId to) const {
  const auto& path = route(from, to);
  const ZoneId target_zone = nodes_[to].zone;
  for (const NodeId hop : path) {
    if (nodes_[hop].zone == target_zone) return hop;
  }
  return kInvalidNode;
}

}  // namespace curtain::net
