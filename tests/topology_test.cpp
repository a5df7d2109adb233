#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <queue>
#include <thread>

#include "net/topology.h"

namespace curtain::net {
namespace {

// A small fixture world:
//
//   [internet]  a -- b -- c          (open zone)
//   [cellnet]        b -- g -- r     (firewalled zone; g visible gateway,
//                                     r resolver; g-r link tunneled)
class TopologyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cell_zone_ = topo_.add_zone("cellnet", /*blocks_inbound_probes=*/true);
    a_ = add_node("a", Topology::internet_zone(), Ipv4Addr{1, 0, 0, 1});
    b_ = add_node("b", Topology::internet_zone(), Ipv4Addr{1, 0, 0, 2});
    c_ = add_node("c", Topology::internet_zone(), Ipv4Addr{1, 0, 0, 3});
    g_ = add_node("g", cell_zone_, Ipv4Addr{10, 0, 0, 1});
    r_ = add_node("r", cell_zone_, Ipv4Addr{10, 0, 0, 53});
    topo_.mutable_node(g_).kind = NodeKind::kGateway;
    topo_.add_link(a_, b_, LatencyModel::fixed(5.0));
    topo_.add_link(b_, c_, LatencyModel::fixed(7.0));
    topo_.add_link(b_, g_, LatencyModel::fixed(2.0));
    topo_.add_link(g_, r_, LatencyModel::fixed(1.0), 0.0, /*tunneled=*/true);
  }

  NodeId add_node(const std::string& name, ZoneId zone, Ipv4Addr ip) {
    Node node;
    node.name = name;
    node.zone = zone;
    node.ip = ip;
    node.processing = LatencyModel::fixed(0.0);
    return topo_.add_node(node);
  }

  Topology topo_;
  ZoneId cell_zone_ = 0;
  NodeId a_ = 0, b_ = 0, c_ = 0, g_ = 0, r_ = 0;
  Rng rng_{99};
};

TEST_F(TopologyTest, RouteFollowsShortestPath) {
  topo_.freeze();
  const auto& path = topo_.route(a_, c_);
  EXPECT_EQ(path, (std::vector<NodeId>{a_, b_, c_}));
}

TEST_F(TopologyTest, RouteToSelf) {
  topo_.freeze();
  const auto& path = topo_.route(a_, a_);
  EXPECT_EQ(path, (std::vector<NodeId>{a_}));
}

TEST_F(TopologyTest, UnreachableNodeEmptyRoute) {
  const NodeId lonely = add_node("lonely", Topology::internet_zone(),
                                 Ipv4Addr{9, 9, 9, 9});
  topo_.freeze();
  EXPECT_TRUE(topo_.route(a_, lonely).empty());
  EXPECT_FALSE(topo_.transport_rtt_ms(a_, lonely, rng_).has_value());
}

TEST_F(TopologyTest, TransportRttSumsLinks) {
  topo_.freeze();
  const auto rtt = topo_.transport_rtt_ms(a_, c_, rng_);
  ASSERT_TRUE(rtt.has_value());
  EXPECT_DOUBLE_EQ(*rtt, 2.0 * (5.0 + 7.0));
}

TEST_F(TopologyTest, TransportCrossesFirewalls) {
  topo_.freeze();
  // Solicited traffic (DNS) is not affected by the probe firewall.
  EXPECT_TRUE(topo_.transport_rtt_ms(a_, r_, rng_).has_value());
}

TEST_F(TopologyTest, FindByIp) {
  topo_.freeze();
  EXPECT_EQ(topo_.find_by_ip(Ipv4Addr(10, 0, 0, 53)), r_);
  EXPECT_EQ(topo_.find_by_ip(Ipv4Addr(10, 0, 0, 54)), kInvalidNode);
}

TEST_F(TopologyTest, PingWithinInternetSucceeds) {
  topo_.freeze();
  const PingResult result = topo_.ping(a_, c_, rng_);
  EXPECT_TRUE(result.responded);
  EXPECT_DOUBLE_EQ(result.rtt_ms, 24.0);
}

TEST_F(TopologyTest, PingIntoFirewalledZoneBlocked) {
  topo_.freeze();
  const PingResult result = topo_.ping(a_, r_, rng_);
  EXPECT_FALSE(result.responded);
  EXPECT_EQ(result.failure, PingResult::Failure::kFirewalled);
}

TEST_F(TopologyTest, PingOutOfFirewalledZoneAllowed) {
  topo_.freeze();
  const PingResult result = topo_.ping(r_, c_, rng_);
  EXPECT_TRUE(result.responded);
}

TEST_F(TopologyTest, PingWithinFirewalledZoneAllowed) {
  topo_.freeze();
  EXPECT_TRUE(topo_.ping(g_, r_, rng_).responded);
}

TEST_F(TopologyTest, OwnerDirectionalPingPolicy) {
  // A direct b-r link, for the outside probe below; g still reaches r
  // over their own link.
  topo_.add_link(b_, r_, LatencyModel::fixed(1.0));
  topo_.freeze();
  // r answers outsiders but not its own subscribers (Verizon pattern).
  topo_.mutable_node(r_).owner_tag = 7;
  topo_.mutable_node(r_).ping_from_same_owner = false;
  topo_.mutable_node(r_).ping_from_other_owner = true;
  topo_.mutable_node(g_).owner_tag = 7;
  EXPECT_FALSE(topo_.ping(g_, r_, rng_).responded);
  EXPECT_EQ(topo_.ping(g_, r_, rng_).failure,
            PingResult::Failure::kUnresponsive);
  // From outside, the zone firewall is the stronger barrier; move r to
  // the open zone, reached over the direct link, to observe the flag in
  // isolation.
  topo_.mutable_node(r_).zone = Topology::internet_zone();
  EXPECT_TRUE(topo_.ping(a_, r_, rng_).responded);
}

TEST_F(TopologyTest, LossyLinkDropsPings) {
  const NodeId d = add_node("d", Topology::internet_zone(), Ipv4Addr{1, 0, 0, 4});
  topo_.add_link(c_, d, LatencyModel::fixed(1.0), /*loss=*/1.0);
  topo_.freeze();
  const PingResult result = topo_.ping(a_, d, rng_);
  EXPECT_FALSE(result.responded);
  EXPECT_EQ(result.failure, PingResult::Failure::kLoss);
}

TEST_F(TopologyTest, TracerouteListsIntermediateHops) {
  topo_.freeze();
  const TracerouteResult result = topo_.traceroute(a_, c_, rng_);
  ASSERT_EQ(result.hops.size(), 2u);
  EXPECT_EQ(result.hops[0].node, b_);
  EXPECT_EQ(result.hops[1].node, c_);
  EXPECT_TRUE(result.reached_destination);
  // Later hops have larger RTTs (cumulative one-way latency).
  EXPECT_LT(result.hops[0].rtt_ms, result.hops[1].rtt_ms);
}

TEST_F(TopologyTest, TracerouteStopsAtFirewall) {
  topo_.freeze();
  const TracerouteResult result = topo_.traceroute(a_, r_, rng_);
  // Route a-b-g-r: g is the cell ingress, so the trace dies before g.
  ASSERT_EQ(result.hops.size(), 1u);
  EXPECT_EQ(result.hops[0].node, b_);
  EXPECT_FALSE(result.reached_destination);
}

TEST_F(TopologyTest, TracerouteHidesTunneledInteriorHops) {
  // From g to the internet, fine; but from inside, r is reached via a
  // tunneled link: interior hops don't appear. Make a longer tunnel:
  // g - x - r2 where both links are tunneled.
  const NodeId x = add_node("x", cell_zone_, Ipv4Addr{});
  const NodeId r2 = add_node("r2", cell_zone_, Ipv4Addr{10, 0, 0, 54});
  topo_.add_link(g_, x, LatencyModel::fixed(1.0), 0.0, true);
  topo_.add_link(x, r2, LatencyModel::fixed(1.0), 0.0, true);
  topo_.freeze();
  const TracerouteResult result = topo_.traceroute(g_, r2, rng_);
  ASSERT_EQ(result.hops.size(), 1u);  // only the destination
  EXPECT_EQ(result.hops[0].node, r2);
  EXPECT_TRUE(result.reached_destination);
}

TEST_F(TopologyTest, TracerouteAnonymousHopForNonResponder) {
  topo_.freeze();
  topo_.mutable_node(b_).responds_to_traceroute = false;
  const TracerouteResult result = topo_.traceroute(a_, c_, rng_);
  ASSERT_EQ(result.hops.size(), 2u);
  EXPECT_EQ(result.hops[0].node, kInvalidNode);  // "* * *"
  EXPECT_FALSE(result.hops[0].responded);
  EXPECT_TRUE(result.reached_destination);
}

TEST_F(TopologyTest, ZoneBoundaryFindsIngress) {
  topo_.freeze();
  EXPECT_EQ(topo_.zone_boundary(a_, r_), g_);
  EXPECT_EQ(topo_.zone_boundary(r_, a_), b_);
}

TEST_F(TopologyTest, ParallelLinksPickFastest) {
  topo_.add_link(a_, b_, LatencyModel::fixed(1.0));  // faster duplicate
  topo_.freeze();
  const auto rtt = topo_.transport_rtt_ms(a_, b_, rng_);
  ASSERT_TRUE(rtt.has_value());
  EXPECT_DOUBLE_EQ(*rtt, 2.0);
}

TEST_F(TopologyTest, RoutesFollowTopologyAndThread) {
  // Routes belong to their topology, whichever thread asks: alternating
  // two topologies with the same node ids on one thread, and routing from
  // another thread, must each see their own graph.
  topo_.add_link(a_, c_, LatencyModel::fixed(1.0));  // shortcut
  topo_.freeze();
  Topology other;
  Node node;
  const NodeId x = other.add_node(node);
  const NodeId y = other.add_node(node);
  const NodeId z = other.add_node(node);
  other.add_link(x, y, LatencyModel::fixed(1.0));
  other.add_link(y, z, LatencyModel::fixed(1.0));
  other.freeze();
  // Same node ids as a_/b_/c_, different graphs, alternating on one thread.
  ASSERT_EQ(x, a_);
  ASSERT_EQ(z, c_);
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(other.route(x, z), (std::vector<NodeId>{x, y, z}));
    EXPECT_EQ(topo_.route(a_, c_), (std::vector<NodeId>{a_, c_}));
  }

  std::vector<NodeId> from_worker;
  std::thread worker([&] { from_worker = topo_.route(a_, r_); });
  worker.join();
  EXPECT_EQ(from_worker, topo_.route(a_, r_));
  EXPECT_EQ(from_worker, (std::vector<NodeId>{a_, b_, g_, r_}));
}

// The graph closes at freeze(): routes are read off trees that any thread
// may have built, so the graph must not change under them, and no route
// exists before the table does.
TEST_F(TopologyTest, AddNodeAfterFreezeAborts) {
  topo_.freeze();
  EXPECT_DEATH(add_node("late", Topology::internet_zone(), Ipv4Addr{}),
               "add_node after freeze");
}

TEST_F(TopologyTest, AddLinkAfterFreezeAborts) {
  topo_.freeze();
  EXPECT_DEATH(topo_.add_link(a_, c_, LatencyModel::fixed(1.0)),
               "add_link after freeze");
}

TEST_F(TopologyTest, RouteBeforeFreezeAborts) {
  EXPECT_DEATH(topo_.route(a_, c_), "routed before freeze");
}

TEST_F(TopologyTest, SecondFreezeAborts) {
  topo_.freeze();
  EXPECT_DEATH(topo_.freeze(), "freeze called twice");
}

TEST_F(TopologyTest, ZoneAccessors) {
  EXPECT_EQ(topo_.zone(Topology::internet_zone()).name, "internet");
  EXPECT_TRUE(topo_.zone(cell_zone_).blocks_inbound_probes);
  EXPECT_EQ(topo_.zone_count(), 2u);
}


// One undirected link, as the reference implementations below store it.
struct Link {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  LatencyModel latency;
  double loss = 0.0;
  bool tunneled = false;
};

NodeId other_end(const Link& link, NodeId node) {
  return link.a == node ? link.b : link.a;
}

// The routing and probe code as it was before routes came from per-source
// shortest-path trees: Dijkstra per (from, to) pair, stopped when `to` is
// popped, then the first lowest-latency parallel link looked up per hop.
class PairwiseReference {
 public:
  void add_zone(bool blocks_inbound_probes) {
    blocks_.push_back(blocks_inbound_probes);
  }
  void add_node(const Node& node) {
    nodes_.push_back(node);
    adjacency_.emplace_back();
  }
  void add_link(NodeId a, NodeId b, LatencyModel latency, double loss,
                bool tunneled) {
    const auto index = static_cast<uint32_t>(links_.size());
    links_.push_back(Link{a, b, latency, loss, tunneled});
    adjacency_[a].push_back({b, index});
    adjacency_[b].push_back({a, index});
  }

  std::vector<NodeId> route(NodeId from, NodeId to) const {
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
      for (const auto& [peer, link_index] : adjacency_[u]) {
        const double nd = d + links_[link_index].latency.typical_ms();
        if (nd < dist[peer]) {
          dist[peer] = nd;
          prev[peer] = u;
          heap.emplace(nd, peer);
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
    return path;
  }

  const Link& link_between(NodeId a, NodeId b) const {
    const Link* best = nullptr;
    for (const auto& [peer, link_index] : adjacency_[a]) {
      if (peer != b) continue;
      const Link& link = links_[link_index];
      if (best == nullptr ||
          link.latency.typical_ms() < best->latency.typical_ms()) {
        best = &link;
      }
    }
    return *best;
  }

  std::optional<double> transport_rtt_ms(NodeId from, NodeId to,
                                         Rng& rng) const {
    const auto path = route(from, to);
    if (path.empty()) return std::nullopt;
    double rtt = nodes_[to].processing.sample(rng);
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      const Link& link = link_between(path[i], path[i + 1]);
      rtt += link.latency.sample(rng) + link.latency.sample(rng);
    }
    return rtt;
  }

  PingResult ping(NodeId from, NodeId to, Rng& rng) const {
    PingResult result;
    const auto path = route(from, to);
    if (path.empty()) {
      result.failure = PingResult::Failure::kNoRoute;
      return result;
    }
    if (!nodes_[to].answers_ping_from(nodes_[from].owner_tag)) {
      result.failure = PingResult::Failure::kUnresponsive;
      return result;
    }
    const ZoneId origin_zone = nodes_[from].zone;
    double rtt = nodes_[to].processing.sample(rng);
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      const NodeId next = path[i + 1];
      if (blocked_at(origin_zone, next)) {
        result.failure = PingResult::Failure::kFirewalled;
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

  TracerouteResult traceroute(NodeId from, NodeId to, Rng& rng) const {
    TracerouteResult result;
    const auto path = route(from, to);
    if (path.empty()) return result;
    const ZoneId origin_zone = nodes_[from].zone;
    double cumulative_one_way = 0.0;
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      const NodeId hop = path[i + 1];
      if (blocked_at(origin_zone, hop)) return result;
      const Link& link = link_between(path[i], hop);
      cumulative_one_way += link.latency.sample(rng);
      const bool is_destination = (hop == to);
      const Node& hop_node = nodes_[hop];
      if (link.tunneled && !is_destination) continue;
      TracerouteHop entry;
      entry.node = hop;
      const bool answers =
          is_destination
              ? hop_node.responds_to_traceroute &&
                    hop_node.answers_ping_from(nodes_[from].owner_tag)
              : hop_node.responds_to_traceroute;
      if (answers && !rng.bernoulli(link.loss)) {
        entry.responded = true;
        entry.rtt_ms =
            2.0 * cumulative_one_way + hop_node.processing.sample(rng);
      } else {
        entry.node = kInvalidNode;
      }
      result.hops.push_back(entry);
      if (is_destination) result.reached_destination = entry.responded;
    }
    return result;
  }

  NodeId zone_boundary(NodeId from, NodeId to) const {
    const ZoneId target_zone = nodes_[to].zone;
    for (const NodeId hop : route(from, to)) {
      if (nodes_[hop].zone == target_zone) return hop;
    }
    return kInvalidNode;
  }

 private:
  bool blocked_at(ZoneId origin_zone, NodeId target) const {
    const ZoneId target_zone = nodes_[target].zone;
    return target_zone != origin_zone && blocks_[target_zone];
  }

  std::vector<bool> blocks_{false};  // zone 0: the open Internet
  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<std::vector<std::pair<NodeId, uint32_t>>> adjacency_;
};

// The probe code as it was before routes were walked as steps: the same
// per-source shortest-path trees, kept as each node's parent link, and per
// call a hop vector built up the tree from `to`, reversed into travel
// order, with each hop's link read from the link table.
class HopVectorReference {
 public:
  void add_zone(bool blocks_inbound_probes) {
    blocks_.push_back(blocks_inbound_probes);
  }
  void add_node(const Node& node) {
    nodes_.push_back(node);
    adjacency_.emplace_back();
    trees_.clear();
  }
  void add_link(NodeId a, NodeId b, LatencyModel latency, double loss,
                bool tunneled) {
    const auto index = static_cast<uint32_t>(links_.size());
    links_.push_back(Link{a, b, latency, loss, tunneled});
    adjacency_[a].push_back({b, index});
    adjacency_[b].push_back({a, index});
    trees_.clear();
  }

  std::optional<double> transport_rtt_ms(NodeId from, NodeId to, Rng& rng) {
    const auto* hops = route_hops(from, to);
    if (hops == nullptr) return std::nullopt;
    double rtt = nodes_[to].processing.sample(rng);
    for (const Hop& hop : *hops) {
      const Link& link = links_[hop.link_index];
      rtt += link.latency.sample(rng) + link.latency.sample(rng);
    }
    return rtt;
  }

  PingResult ping(NodeId from, NodeId to, Rng& rng) {
    PingResult result;
    const auto* hops = route_hops(from, to);
    if (hops == nullptr) {
      result.failure = PingResult::Failure::kNoRoute;
      return result;
    }
    if (!nodes_[to].answers_ping_from(nodes_[from].owner_tag)) {
      result.failure = PingResult::Failure::kUnresponsive;
      return result;
    }
    const ZoneId origin_zone = nodes_[from].zone;
    double rtt = nodes_[to].processing.sample(rng);
    for (const Hop& hop : *hops) {
      if (blocked_at(origin_zone, hop.node)) {
        result.failure = PingResult::Failure::kFirewalled;
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

  TracerouteResult traceroute(NodeId from, NodeId to, Rng& rng) {
    TracerouteResult result;
    const auto* hops = route_hops(from, to);
    if (hops == nullptr) return result;
    const ZoneId origin_zone = nodes_[from].zone;
    double cumulative_one_way = 0.0;
    for (const auto& [link_index, hop] : *hops) {
      if (blocked_at(origin_zone, hop)) return result;
      const Link& link = links_[link_index];
      cumulative_one_way += link.latency.sample(rng);
      const bool is_destination = (hop == to);
      const Node& hop_node = nodes_[hop];
      if (link.tunneled && !is_destination) continue;
      TracerouteHop entry;
      entry.node = hop;
      const bool answers =
          is_destination
              ? hop_node.responds_to_traceroute &&
                    hop_node.answers_ping_from(nodes_[from].owner_tag)
              : hop_node.responds_to_traceroute;
      if (answers && !rng.bernoulli(link.loss)) {
        entry.responded = true;
        entry.rtt_ms =
            2.0 * cumulative_one_way + hop_node.processing.sample(rng);
      } else {
        entry.node = kInvalidNode;
      }
      result.hops.push_back(entry);
      if (is_destination) result.reached_destination = entry.responded;
    }
    return result;
  }

 private:
  static constexpr uint32_t kNoLink = UINT32_MAX;

  struct Hop {
    uint32_t link_index;
    NodeId node;
  };

  const std::vector<Hop>* route_hops(NodeId from, NodeId to) {
    std::vector<uint32_t>& parent = trees_[from];
    if (parent.empty()) {
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
        for (const auto& [peer, link_index] : adjacency_[u]) {
          const double typical = links_[link_index].latency.typical_ms();
          const double nd = d + typical;
          uint32_t& entered_by = parent[peer];
          if (nd < dist[peer]) {
            dist[peer] = nd;
            entered_by = link_index;
            heap.emplace(nd, peer);
          } else if (nd == dist[peer] && entered_by != kNoLink &&
                     other_end(links_[entered_by], peer) == u &&
                     typical < links_[entered_by].latency.typical_ms()) {
            entered_by = link_index;
          }
        }
      }
    }
    if (to != from && parent[to] == kNoLink) return nullptr;
    hops_.clear();
    for (NodeId at = to; at != from; at = other_end(links_[parent[at]], at)) {
      hops_.push_back(Hop{parent[at], at});
    }
    std::reverse(hops_.begin(), hops_.end());
    return &hops_;
  }

  bool blocked_at(ZoneId origin_zone, NodeId target) const {
    const ZoneId target_zone = nodes_[target].zone;
    return target_zone != origin_zone && blocks_[target_zone];
  }

  std::vector<bool> blocks_{false};  // zone 0: the open Internet
  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<std::vector<std::pair<NodeId, uint32_t>>> adjacency_;
  std::map<NodeId, std::vector<uint32_t>> trees_;
  std::vector<Hop> hops_;
};

// A seeded random graph built identically into a Topology and each
// reference: three zones (one firewalled), mixed probe policies,
// zero-latency links, parallel links of equal, higher, lower and
// one-ulp-lower typical latency, and nodes left unreachable.
template <typename... Refs>
void build_random_graph(uint64_t seed, Topology& topo, Refs&... refs) {
  Rng rng(seed);
  for (const bool blocks : {true, false}) {
    topo.add_zone("z", blocks);
    (refs.add_zone(blocks), ...);
  }
  const auto n = static_cast<NodeId>(rng.uniform_u64(6, 28));
  const NodeId isolated = static_cast<NodeId>(rng.uniform_u64(0, 2));
  for (NodeId i = 0; i < n; ++i) {
    Node node;
    node.zone = static_cast<ZoneId>(rng.uniform_u64(0, 2));
    node.owner_tag = static_cast<uint32_t>(rng.uniform_u64(0, 2));
    node.ping_from_same_owner = rng.bernoulli(0.8);
    node.ping_from_other_owner = rng.bernoulli(0.8);
    node.responds_to_traceroute = rng.bernoulli(0.8);
    node.processing = rng.bernoulli(0.5)
                          ? LatencyModel::fixed(rng.uniform(0.0, 1.0))
                          : LatencyModel::jittered(rng.uniform(0.1, 1.0));
    topo.add_node(node);
    (refs.add_node(node), ...);
  }
  const auto random_latency = [&rng] {
    const uint64_t kind = rng.uniform_u64(0, 3);
    if (kind == 0) return LatencyModel::fixed(0.0);
    if (kind == 1) {
      return LatencyModel::fixed(static_cast<double>(rng.uniform_u64(1, 4)));
    }
    LatencyModel latency;
    latency.floor_ms = kind == 2 ? rng.uniform(1.0, 30.0) : 0.0;
    latency.median_ms = rng.uniform(0.1, 5.0);
    latency.sigma = rng.uniform(0.0, 0.6);
    return latency;
  };
  const auto add_link = [&](NodeId a, NodeId b, LatencyModel latency) {
    const double loss = rng.bernoulli(0.3) ? rng.uniform(0.0, 0.4) : 0.0;
    const bool tunneled = rng.bernoulli(0.2);
    topo.add_link(a, b, latency, loss, tunneled);
    (refs.add_link(a, b, latency, loss, tunneled), ...);
  };
  // Nodes [n - isolated, n) get no links at all.
  const NodeId linked = n - isolated;
  std::vector<std::pair<NodeId, NodeId>> ends;
  for (NodeId i = 1; i < linked; ++i) {
    ends.emplace_back(i, static_cast<NodeId>(rng.uniform_u64(0, i - 1)));
  }
  const uint64_t extra = rng.uniform_u64(0, linked);
  for (uint64_t e = 0; e < extra && linked > 1; ++e) {
    ends.emplace_back(static_cast<NodeId>(rng.uniform_u64(0, linked - 1)),
                      static_cast<NodeId>(rng.uniform_u64(0, linked - 1)));
  }
  for (const auto& [a, b] : ends) {
    const LatencyModel latency = random_latency();
    add_link(a, b, latency);
    if (!rng.bernoulli(0.4)) continue;
    // A parallel link; distinct shapes make a wrong pick show in samples.
    LatencyModel twin = latency;
    twin.sigma += 0.05;
    switch (rng.uniform_u64(0, 3)) {
      case 0: break;  // equal typical latency
      case 1: twin.floor_ms += 0.5; break;
      case 2: twin.floor_ms = std::max(0.0, twin.floor_ms - 0.5); break;
      default:  // lower by one ulp: path sums may round equal
        twin.floor_ms = std::nextafter(twin.floor_ms, -1.0);
        if (twin.floor_ms < 0.0) twin.floor_ms = 0.0;
    }
    rng.bernoulli(0.5) ? add_link(b, a, twin) : add_link(a, b, twin);
  }
}

void expect_same_rng_state(Rng& actual, Rng& expected) {
  EXPECT_EQ(actual.next_u64(), expected.next_u64());
  EXPECT_EQ(actual.normal(), expected.normal());
}

TEST_F(TopologyTest, TreeRoutesMatchPairwiseDijkstra) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("graph seed " + std::to_string(seed));
    Topology topo;
    PairwiseReference ref;
    build_random_graph(seed, topo, ref);
    topo.freeze();
    const auto n = static_cast<NodeId>(topo.node_count());
    // Query pairs in a shuffled order, so trees are built from many
    // sources and reused between them, including from == to.
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (NodeId from = 0; from < n; ++from) {
      for (NodeId to = 0; to < n; ++to) pairs.emplace_back(from, to);
    }
    Rng order(seed ^ 0x5eedULL);
    order.shuffle(pairs);
    for (const auto& [from, to] : pairs) {
      SCOPED_TRACE(std::to_string(from) + " -> " + std::to_string(to));
      ASSERT_EQ(topo.route(from, to), ref.route(from, to));
      EXPECT_EQ(topo.zone_boundary(from, to), ref.zone_boundary(from, to));
      const uint64_t probe_seed = seed * 1000003 + from * 131 + to;

      Rng rtt_actual(probe_seed), rtt_expected(probe_seed);
      EXPECT_EQ(topo.transport_rtt_ms(from, to, rtt_actual),
                ref.transport_rtt_ms(from, to, rtt_expected));
      expect_same_rng_state(rtt_actual, rtt_expected);

      Rng ping_actual(probe_seed + 1), ping_expected(probe_seed + 1);
      const PingResult ping = topo.ping(from, to, ping_actual);
      const PingResult ping_ref = ref.ping(from, to, ping_expected);
      EXPECT_EQ(ping.responded, ping_ref.responded);
      EXPECT_EQ(ping.rtt_ms, ping_ref.rtt_ms);
      EXPECT_EQ(ping.failure, ping_ref.failure);
      expect_same_rng_state(ping_actual, ping_expected);

      Rng trace_actual(probe_seed + 2), trace_expected(probe_seed + 2);
      const TracerouteResult trace = topo.traceroute(from, to, trace_actual);
      const TracerouteResult trace_ref =
          ref.traceroute(from, to, trace_expected);
      EXPECT_EQ(trace.reached_destination, trace_ref.reached_destination);
      ASSERT_EQ(trace.hops.size(), trace_ref.hops.size());
      for (size_t h = 0; h < trace.hops.size(); ++h) {
        EXPECT_EQ(trace.hops[h].node, trace_ref.hops[h].node);
        EXPECT_EQ(trace.hops[h].responded, trace_ref.hops[h].responded);
        EXPECT_EQ(trace.hops[h].rtt_ms, trace_ref.hops[h].rtt_ms);
      }
      expect_same_rng_state(trace_actual, trace_expected);
    }
  }
}

TEST_F(TopologyTest, ThreadsShareOneTreePerSource) {
  // Four threads route every pair of a fresh topology at once, each
  // starting from a different source, so they race to build the same
  // trees. Each must read the routes one thread alone reads.
  constexpr int kThreads = 4;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("graph seed " + std::to_string(seed));
    Topology alone;
    build_random_graph(seed, alone);
    alone.freeze();
    const auto n = static_cast<NodeId>(alone.node_count());
    std::vector<std::vector<NodeId>> expected;
    for (NodeId from = 0; from < n; ++from) {
      for (NodeId to = 0; to < n; ++to) {
        expected.push_back(alone.route(from, to));
      }
    }

    Topology shared;
    build_random_graph(seed, shared);
    shared.freeze();
    std::atomic<bool> go{false};
    std::vector<std::vector<std::vector<NodeId>>> answers(
        kThreads, std::vector<std::vector<NodeId>>(expected.size()));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        while (!go.load()) std::this_thread::yield();
        for (NodeId i = 0; i < n; ++i) {
          const NodeId from = (i + static_cast<NodeId>(t) * n / kThreads) % n;
          for (NodeId to = 0; to < n; ++to) {
            answers[static_cast<size_t>(t)][from * n + to] =
                shared.route(from, to);
          }
        }
      });
    }
    go.store(true);
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(answers[static_cast<size_t>(t)], expected) << "thread " << t;
    }
  }
}

// Compares one probe of each kind from `from` to `to` against the hop
// vector walk: same values, and the generator left in the same state.
void expect_same_draws(Topology& topo, HopVectorReference& ref, NodeId from,
                       NodeId to, uint64_t probe_seed) {
  SCOPED_TRACE(std::to_string(from) + " -> " + std::to_string(to));
  Rng rtt_actual(probe_seed), rtt_expected(probe_seed);
  EXPECT_EQ(topo.transport_rtt_ms(from, to, rtt_actual),
            ref.transport_rtt_ms(from, to, rtt_expected));
  expect_same_rng_state(rtt_actual, rtt_expected);

  Rng ping_actual(probe_seed + 1), ping_expected(probe_seed + 1);
  const PingResult ping = topo.ping(from, to, ping_actual);
  const PingResult ping_ref = ref.ping(from, to, ping_expected);
  EXPECT_EQ(ping.responded, ping_ref.responded);
  EXPECT_EQ(ping.rtt_ms, ping_ref.rtt_ms);
  EXPECT_EQ(ping.failure, ping_ref.failure);
  expect_same_rng_state(ping_actual, ping_expected);

  Rng trace_actual(probe_seed + 2), trace_expected(probe_seed + 2);
  const TracerouteResult trace = topo.traceroute(from, to, trace_actual);
  const TracerouteResult trace_ref = ref.traceroute(from, to, trace_expected);
  EXPECT_EQ(trace.reached_destination, trace_ref.reached_destination);
  ASSERT_EQ(trace.hops.size(), trace_ref.hops.size());
  for (size_t h = 0; h < trace.hops.size(); ++h) {
    EXPECT_EQ(trace.hops[h].node, trace_ref.hops[h].node);
    EXPECT_EQ(trace.hops[h].responded, trace_ref.hops[h].responded);
    EXPECT_EQ(trace.hops[h].rtt_ms, trace_ref.hops[h].rtt_ms);
  }
  expect_same_rng_state(trace_actual, trace_expected);
}

TEST_F(TopologyTest, StepWalkDrawsLikeHopVectorWalk) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("graph seed " + std::to_string(seed));
    Topology topo;
    HopVectorReference ref;
    build_random_graph(seed, topo, ref);
    topo.freeze();
    const auto n = static_cast<NodeId>(topo.node_count());
    // Random pairs, plus every same-node route and every route into the
    // last node (unreachable whenever the graph left it isolated).
    Rng pick(seed ^ 0x57e9ULL);
    for (int i = 0; i < 60; ++i) {
      const auto from = static_cast<NodeId>(pick.uniform_u64(0, n - 1));
      const auto to = static_cast<NodeId>(pick.uniform_u64(0, n - 1));
      expect_same_draws(topo, ref, from, to, seed * 7919 + static_cast<uint64_t>(i));
    }
    for (NodeId node = 0; node < n; ++node) {
      expect_same_draws(topo, ref, node, node, seed * 104729 + node);
      expect_same_draws(topo, ref, node, n - 1, seed * 130363 + node);
    }
  }
}

TEST_F(TopologyTest, LongRoutesSpillPastTheInlineBuffer) {
  // A 100-node chain: routes from one end are longer than the steps a
  // route holds on the stack.
  Topology topo;
  HopVectorReference ref;
  Rng rng(42);
  constexpr NodeId kNodes = 100;
  for (NodeId i = 0; i < kNodes; ++i) {
    Node node;
    node.processing = LatencyModel::jittered(0.5);
    topo.add_node(node);
    ref.add_node(node);
  }
  for (NodeId i = 0; i + 1 < kNodes; ++i) {
    const LatencyModel latency = LatencyModel::wan(rng.uniform(0.5, 3.0), 0.4);
    const double loss = i % 7 == 0 ? 0.01 : 0.0;
    topo.add_link(i, i + 1, latency, loss, /*tunneled=*/i % 5 == 0);
    ref.add_link(i, i + 1, latency, loss, /*tunneled=*/i % 5 == 0);
  }
  topo.freeze();
  EXPECT_EQ(topo.route(0, kNodes - 1).size(), kNodes);
  for (const NodeId to : {NodeId{1}, NodeId{32}, NodeId{33}, kNodes - 1}) {
    expect_same_draws(topo, ref, 0, to, 1000 + to);
    expect_same_draws(topo, ref, kNodes - 1, kNodes - 1 - to, 2000 + to);
  }
}

}  // namespace
}  // namespace curtain::net
