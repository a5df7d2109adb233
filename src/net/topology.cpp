#include "net/topology.h"

#include <limits>
#include <queue>

#include "obs/metrics.h"
#include "util/contract.h"

namespace curtain::net {
namespace {

/// Entering step of a node outside the tree: the root and unreachable
/// nodes.
constexpr uint32_t kNoStep = UINT32_MAX;

}  // namespace

Topology::Topology() {
  // Zone 0 is always the open Internet.
  zones_.push_back(Zone{"internet", /*blocks_inbound_probes=*/false});
}

ZoneId Topology::add_zone(std::string name, bool blocks_inbound_probes) {
  zones_.push_back(Zone{std::move(name), blocks_inbound_probes});
  return static_cast<ZoneId>(zones_.size() - 1);
}

NodeId Topology::add_node(Node node) {
  CURTAIN_CHECK(!frozen()) << "Topology::add_node after freeze";
  const NodeId id = static_cast<NodeId>(nodes_.size());
  node.id = id;
  if (!node.ip.is_unspecified()) ip_index_[node.ip.value()] = id;
  nodes_.push_back(std::move(node));
  adjacency_.emplace_back();
  return id;
}

void Topology::add_link(NodeId a, NodeId b, LatencyModel latency, double loss,
                        bool tunneled) {
  CURTAIN_CHECK(!frozen()) << "Topology::add_link after freeze";
  const auto into_b = static_cast<uint32_t>(steps_.size());
  steps_.push_back(Step{latency, loss, a, b, tunneled});
  steps_.push_back(Step{latency, loss, b, a, tunneled});
  adjacency_[a].push_back(Edge{b, into_b});
  adjacency_[b].push_back(Edge{a, into_b + 1});
}

void Topology::freeze() {
  CURTAIN_CHECK(!frozen()) << "Topology::freeze called twice";
  trees_ = std::make_unique<TreeSlot[]>(nodes_.size());
}

NodeId Topology::find_by_ip(Ipv4Addr ip) const {
  const auto it = ip_index_.find(ip.value());
  return it == ip_index_.end() ? kInvalidNode : it->second;
}

const std::vector<uint32_t>& Topology::tree_from(NodeId from) const {
  CURTAIN_CHECK(frozen()) << "Topology routed before freeze";
  TreeSlot& slot = trees_[from];
  std::call_once(slot.built, [&] { slot.entered_by = build_tree(from); });
  return slot.entered_by;
}

std::vector<uint32_t> Topology::build_tree(NodeId from) const {
  // Dijkstra over typical link latency from `from`, run to completion. Up
  // to the pop of any node it does exactly what a search stopped there
  // would, and no later relaxation beats a popped node's distance, so the
  // tree holds the same path to every node as a search per pair. Of
  // several parallel links, the first with the lowest latency is kept,
  // including when two latencies round to one path length.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(nodes_.size(), kInf);
  std::vector<uint32_t> entered_by(nodes_.size(), kNoStep);
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  dist[from] = 0.0;
  heap.emplace(0.0, from);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    for (const Edge& edge : adjacency_[u]) {
      const double typical = steps_[edge.step].latency.typical_ms();
      const double nd = d + typical;
      uint32_t& step = entered_by[edge.peer];
      if (nd < dist[edge.peer]) {
        dist[edge.peer] = nd;
        step = edge.step;
        heap.emplace(nd, edge.peer);
      } else if (nd == dist[edge.peer] && step != kNoStep &&
                 steps_[step].prev == u &&
                 typical < steps_[step].latency.typical_ms()) {
        step = edge.step;
      }
    }
  }
  return entered_by;
}

bool Topology::route_steps(NodeId from, NodeId to, Route& route) const {
  const std::vector<uint32_t>& entered_by = tree_from(from);
  if (to != from && entered_by[to] == kNoStep) return false;
  // Count the hops, then store them back to front: the walk goes up the
  // tree from `to`, and the route reads in travel order.
  size_t hops = 0;
  for (NodeId at = to; at != from; at = steps_[entered_by[at]].prev) ++hops;
  if (hops > Route::kInlineHops) {
    route.spill_.resize(hops);
    route.steps_ = route.spill_.data();
  }
  route.size_ = hops;
  for (NodeId at = to; hops > 0; at = route.steps_[hops]->prev) {
    route.steps_[--hops] = &steps_[entered_by[at]];
  }
  return true;
}

std::vector<NodeId> Topology::route(NodeId from, NodeId to) const {
  Route steps;
  if (!route_steps(from, to, steps)) return {};
  std::vector<NodeId> path{from};
  for (const Step* step : steps) path.push_back(step->node);
  return path;
}

bool Topology::probe_blocked_at(ZoneId origin_zone, NodeId target) const {
  const ZoneId target_zone = nodes_[target].zone;
  return target_zone != origin_zone && zones_[target_zone].blocks_inbound_probes;
}

std::optional<double> Topology::transport_rtt_ms(NodeId from, NodeId to,
                                                 Rng& rng) const {
  Route route;
  if (!route_steps(from, to, route)) return std::nullopt;
  double rtt = nodes_[to].processing.sample(rng);
  for (const Step* step : route) {
    rtt += step->latency.sample(rng) + step->latency.sample(rng);
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
  Route route;
  if (!route_steps(from, to, route)) {
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
  for (const Step* step : route) {
    if (probe_blocked_at(origin_zone, step->node)) {
      result.failure = PingResult::Failure::kFirewalled;
      firewalled.inc();
      return result;
    }
    if (rng.bernoulli(step->loss) || rng.bernoulli(step->loss)) {
      result.failure = PingResult::Failure::kLoss;
      return result;
    }
    rtt += step->latency.sample(rng) + step->latency.sample(rng);
  }
  result.responded = true;
  result.rtt_ms = rtt;
  return result;
}

TracerouteResult Topology::traceroute(NodeId from, NodeId to, Rng& rng) const {
  TracerouteResult result;
  Route route;
  if (!route_steps(from, to, route)) return result;
  const ZoneId origin_zone = nodes_[from].zone;
  result.hops.reserve(route.size());

  double cumulative_one_way = 0.0;
  for (const Step* step : route) {
    const NodeId hop = step->node;
    if (probe_blocked_at(origin_zone, hop)) {
      // Firewalled ingress: probes die silently beyond this point (§4.4).
      return result;
    }
    cumulative_one_way += step->latency.sample(rng);
    const bool is_destination = (hop == to);
    const Node& hop_node = nodes_[hop];

    // Interior hops of tunneled links never decrement TTL (MPLS, §4.2);
    // they simply do not appear. The destination always terminates the
    // trace even when reached through a tunnel.
    if (step->tunneled && !is_destination) continue;

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
    if (answers && !rng.bernoulli(step->loss)) {
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
  Route route;
  if (!route_steps(from, to, route)) return kInvalidNode;
  const ZoneId target_zone = nodes_[to].zone;
  if (nodes_[from].zone == target_zone) return from;
  for (const Step* step : route) {
    if (nodes_[step->node].zone == target_zone) return step->node;
  }
  return kInvalidNode;
}

}  // namespace curtain::net
