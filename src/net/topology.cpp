#include "net/topology.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <queue>

#include "obs/metrics.h"

namespace curtain::net {
namespace {

/// Parent link of a node outside the tree: the root and unreachable nodes.
constexpr uint32_t kNoLink = UINT32_MAX;

/// Next topology stamp; 0 is never issued, so a fresh thread cache (stamp
/// 0) matches no topology.
uint64_t next_stamp() {
  static std::atomic<uint64_t> counter{0};  // lint: shared-static (atomic; stamps need only be unique)
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

NodeId other_end(const Link& link, NodeId node) {
  return link.a == node ? link.b : link.a;
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

const std::vector<Topology::Hop>* Topology::route_hops(NodeId from,
                                                      NodeId to) const {
  // The calling thread's shortest-path trees for the topology carrying
  // `stamp`: trees[from][n] is the link by which the tree rooted at `from`
  // enters node n (kNoLink for `from` and unreachable nodes), and is empty
  // until the thread first routes from `from`.
  struct RouteCache {
    uint64_t stamp = 0;
    std::vector<std::vector<uint32_t>> trees;
    std::vector<Hop> hops;  ///< the last route walked, in travel order
  };
  static thread_local RouteCache cache;
  if (cache.stamp != stamp_) {
    cache.trees.clear();
    cache.trees.resize(nodes_.size());
    cache.stamp = stamp_;
  }
  std::vector<uint32_t>& parent = cache.trees[from];
  if (parent.empty()) {
    // Dijkstra over typical link latency from `from`, run to completion.
    // Up to the pop of any node it does exactly what a search stopped
    // there would, and no later relaxation beats a popped node's distance,
    // so the tree holds the same path to every node as a search per pair.
    // Of several parallel links, the first with the lowest latency is
    // kept, including when two latencies round to one path length.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> dist(nodes_.size(), kInf);
    parent.assign(nodes_.size(), kNoLink);
    using Entry = std::pair<double, NodeId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    dist[from] = 0.0;
    heap.emplace(0.0, from);
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (d > dist[u]) continue;
      for (const Edge& edge : adjacency_[u]) {
        const double typical = links_[edge.link_index].latency.typical_ms();
        const double nd = d + typical;
        uint32_t& entered_by = parent[edge.peer];
        if (nd < dist[edge.peer]) {
          dist[edge.peer] = nd;
          entered_by = edge.link_index;
          heap.emplace(nd, edge.peer);
        } else if (nd == dist[edge.peer] && entered_by != kNoLink &&
                   other_end(links_[entered_by], edge.peer) == u &&
                   typical < links_[entered_by].latency.typical_ms()) {
          entered_by = edge.link_index;
        }
      }
    }
  }

  if (to != from && parent[to] == kNoLink) return nullptr;
  std::vector<Hop>& hops = cache.hops;
  hops.clear();
  for (NodeId at = to; at != from; at = other_end(links_[parent[at]], at)) {
    hops.push_back(Hop{parent[at], at});
  }
  std::reverse(hops.begin(), hops.end());
  return &hops;
}

std::vector<NodeId> Topology::route(NodeId from, NodeId to) const {
  const auto* hops = route_hops(from, to);
  if (hops == nullptr) return {};
  std::vector<NodeId> path{from};
  for (const Hop& hop : *hops) path.push_back(hop.node);
  return path;
}

bool Topology::probe_blocked_at(ZoneId origin_zone, NodeId target) const {
  const ZoneId target_zone = nodes_[target].zone;
  return target_zone != origin_zone && zones_[target_zone].blocks_inbound_probes;
}

std::optional<double> Topology::transport_rtt_ms(NodeId from, NodeId to,
                                                 Rng& rng) const {
  const auto* hops = route_hops(from, to);
  if (hops == nullptr) return std::nullopt;
  double rtt = nodes_[to].processing.sample(rng);
  for (const Hop& hop : *hops) {
    const Link& link = links_[hop.link_index];
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
  const auto* hops = route_hops(from, to);
  if (hops == nullptr) {
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
  for (const Hop& hop : *hops) {
    if (probe_blocked_at(origin_zone, hop.node)) {
      result.failure = PingResult::Failure::kFirewalled;
      firewalled.inc();
      return result;
    }
    const Link& link = links_[hop.link_index];
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
  const auto* hops = route_hops(from, to);
  if (hops == nullptr) return result;
  const ZoneId origin_zone = nodes_[from].zone;

  double cumulative_one_way = 0.0;
  for (const auto& [link_index, hop] : *hops) {
    if (probe_blocked_at(origin_zone, hop)) {
      // Firewalled ingress: probes die silently beyond this point (§4.4).
      return result;
    }
    const Link& link = links_[link_index];
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
  const auto* hops = route_hops(from, to);
  if (hops == nullptr) return kInvalidNode;
  const ZoneId target_zone = nodes_[to].zone;
  if (nodes_[from].zone == target_zone) return from;
  for (const Hop& hop : *hops) {
    if (nodes_[hop.node].zone == target_zone) return hop.node;
  }
  return kInvalidNode;
}

}  // namespace curtain::net
