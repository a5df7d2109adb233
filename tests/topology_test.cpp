#include <gtest/gtest.h>

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
  const auto& path = topo_.route(a_, c_);
  EXPECT_EQ(path, (std::vector<NodeId>{a_, b_, c_}));
}

TEST_F(TopologyTest, RouteToSelf) {
  const auto& path = topo_.route(a_, a_);
  EXPECT_EQ(path, (std::vector<NodeId>{a_}));
}

TEST_F(TopologyTest, UnreachableNodeEmptyRoute) {
  const NodeId lonely = add_node("lonely", Topology::internet_zone(),
                                 Ipv4Addr{9, 9, 9, 9});
  EXPECT_TRUE(topo_.route(a_, lonely).empty());
  EXPECT_FALSE(topo_.transport_rtt_ms(a_, lonely, rng_).has_value());
}

TEST_F(TopologyTest, TransportRttSumsLinks) {
  const auto rtt = topo_.transport_rtt_ms(a_, c_, rng_);
  ASSERT_TRUE(rtt.has_value());
  EXPECT_DOUBLE_EQ(*rtt, 2.0 * (5.0 + 7.0));
}

TEST_F(TopologyTest, TransportCrossesFirewalls) {
  // Solicited traffic (DNS) is not affected by the probe firewall.
  EXPECT_TRUE(topo_.transport_rtt_ms(a_, r_, rng_).has_value());
}

TEST_F(TopologyTest, FindByIp) {
  EXPECT_EQ(topo_.find_by_ip(Ipv4Addr(10, 0, 0, 53)), r_);
  EXPECT_EQ(topo_.find_by_ip(Ipv4Addr(10, 0, 0, 54)), kInvalidNode);
}

TEST_F(TopologyTest, PingWithinInternetSucceeds) {
  const PingResult result = topo_.ping(a_, c_, rng_);
  EXPECT_TRUE(result.responded);
  EXPECT_DOUBLE_EQ(result.rtt_ms, 24.0);
}

TEST_F(TopologyTest, PingIntoFirewalledZoneBlocked) {
  const PingResult result = topo_.ping(a_, r_, rng_);
  EXPECT_FALSE(result.responded);
  EXPECT_EQ(result.failure, PingResult::Failure::kFirewalled);
}

TEST_F(TopologyTest, PingOutOfFirewalledZoneAllowed) {
  const PingResult result = topo_.ping(r_, c_, rng_);
  EXPECT_TRUE(result.responded);
}

TEST_F(TopologyTest, PingWithinFirewalledZoneAllowed) {
  EXPECT_TRUE(topo_.ping(g_, r_, rng_).responded);
}

TEST_F(TopologyTest, OwnerDirectionalPingPolicy) {
  // r answers outsiders but not its own subscribers (Verizon pattern).
  topo_.mutable_node(r_).owner_tag = 7;
  topo_.mutable_node(r_).ping_from_same_owner = false;
  topo_.mutable_node(r_).ping_from_other_owner = true;
  topo_.mutable_node(g_).owner_tag = 7;
  EXPECT_FALSE(topo_.ping(g_, r_, rng_).responded);
  EXPECT_EQ(topo_.ping(g_, r_, rng_).failure,
            PingResult::Failure::kUnresponsive);
  // From outside, the zone firewall is the stronger barrier; move r to
  // the open zone with a direct link to observe the flag in isolation.
  topo_.mutable_node(r_).zone = Topology::internet_zone();
  topo_.add_link(b_, r_, LatencyModel::fixed(1.0));
  EXPECT_TRUE(topo_.ping(a_, r_, rng_).responded);
}

TEST_F(TopologyTest, LossyLinkDropsPings) {
  const NodeId d = add_node("d", Topology::internet_zone(), Ipv4Addr{1, 0, 0, 4});
  topo_.add_link(c_, d, LatencyModel::fixed(1.0), /*loss=*/1.0);
  const PingResult result = topo_.ping(a_, d, rng_);
  EXPECT_FALSE(result.responded);
  EXPECT_EQ(result.failure, PingResult::Failure::kLoss);
}

TEST_F(TopologyTest, TracerouteListsIntermediateHops) {
  const TracerouteResult result = topo_.traceroute(a_, c_, rng_);
  ASSERT_EQ(result.hops.size(), 2u);
  EXPECT_EQ(result.hops[0].node, b_);
  EXPECT_EQ(result.hops[1].node, c_);
  EXPECT_TRUE(result.reached_destination);
  // Later hops have larger RTTs (cumulative one-way latency).
  EXPECT_LT(result.hops[0].rtt_ms, result.hops[1].rtt_ms);
}

TEST_F(TopologyTest, TracerouteStopsAtFirewall) {
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
  const TracerouteResult result = topo_.traceroute(g_, r2, rng_);
  ASSERT_EQ(result.hops.size(), 1u);  // only the destination
  EXPECT_EQ(result.hops[0].node, r2);
  EXPECT_TRUE(result.reached_destination);
}

TEST_F(TopologyTest, TracerouteAnonymousHopForNonResponder) {
  topo_.mutable_node(b_).responds_to_traceroute = false;
  const TracerouteResult result = topo_.traceroute(a_, c_, rng_);
  ASSERT_EQ(result.hops.size(), 2u);
  EXPECT_EQ(result.hops[0].node, kInvalidNode);  // "* * *"
  EXPECT_FALSE(result.hops[0].responded);
  EXPECT_TRUE(result.reached_destination);
}

TEST_F(TopologyTest, ZoneBoundaryFindsIngress) {
  EXPECT_EQ(topo_.zone_boundary(a_, r_), g_);
  EXPECT_EQ(topo_.zone_boundary(r_, a_), b_);
}

TEST_F(TopologyTest, ParallelLinksPickFastest) {
  topo_.add_link(a_, b_, LatencyModel::fixed(1.0));  // faster duplicate
  const auto rtt = topo_.transport_rtt_ms(a_, b_, rng_);
  ASSERT_TRUE(rtt.has_value());
  EXPECT_DOUBLE_EQ(*rtt, 2.0);
}

TEST_F(TopologyTest, RouteCacheFollowsMutationTopologyAndThread) {
  // The route cache belongs to the calling thread and is tagged with the
  // topology's stamp: mutating the graph, switching to another topology
  // and routing from another thread must all see the current graph.
  EXPECT_EQ(topo_.route(a_, c_), (std::vector<NodeId>{a_, b_, c_}));
  topo_.add_link(a_, c_, LatencyModel::fixed(1.0));  // new shortcut
  EXPECT_EQ(topo_.route(a_, c_), (std::vector<NodeId>{a_, c_}));

  Topology other;
  Node node;
  const NodeId x = other.add_node(node);
  const NodeId y = other.add_node(node);
  const NodeId z = other.add_node(node);
  other.add_link(x, y, LatencyModel::fixed(1.0));
  other.add_link(y, z, LatencyModel::fixed(1.0));
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

TEST_F(TopologyTest, ZoneAccessors) {
  EXPECT_EQ(topo_.zone(Topology::internet_zone()).name, "internet");
  EXPECT_TRUE(topo_.zone(cell_zone_).blocks_inbound_probes);
  EXPECT_EQ(topo_.zone_count(), 2u);
}

}  // namespace
}  // namespace curtain::net
