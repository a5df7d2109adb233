// Remaining net-substrate corners: route direction, boundary queries,
// metro catalogs, world-level wiring invariants.
#include <gtest/gtest.h>

#include <set>

#include "core/world.h"
#include "net/topology.h"

namespace curtain::net {
namespace {

TEST(TopologyCache, RouteIsDirectional) {
  Topology topo;
  auto add = [&topo](const char* name) {
    Node node;
    node.name = name;
    return topo.add_node(node);
  };
  const NodeId x = add("x");
  const NodeId y = add("y");
  topo.add_link(x, y, LatencyModel::fixed(1.0));
  topo.freeze();
  EXPECT_EQ(topo.route(x, y).front(), x);
  EXPECT_EQ(topo.route(y, x).front(), y);
}

TEST(Metros, DistinctNamesAndSaneCoordinates) {
  std::set<std::string> names;
  for (const auto* list : {&us_metros(), &kr_metros(), &world_metros()}) {
    for (const auto& metro : *list) {
      EXPECT_GE(metro.location.lat_deg, -60.0);
      EXPECT_LE(metro.location.lat_deg, 72.0);
      EXPECT_GE(metro.location.lon_deg, -180.0);
      EXPECT_LE(metro.location.lon_deg, 180.0);
      names.insert(metro.name);
    }
  }
  EXPECT_GT(names.size(), 30u);
}

class WorldWiringTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { world_ = new core::World(); }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static core::World* world_;
};

core::World* WorldWiringTest::world_ = nullptr;

TEST_F(WorldWiringTest, EveryAddressableNodeIsReachableFromVantage) {
  // Transport-level connectivity (firewalls aside) must be total: DNS and
  // HTTP go everywhere.
  auto& topo = world_->topology();
  net::Rng rng(1);
  size_t addressable = 0;
  for (NodeId id = 0; id < topo.node_count(); ++id) {
    if (topo.node(id).ip.is_unspecified()) continue;
    ++addressable;
    EXPECT_TRUE(
        topo.transport_rtt_ms(world_->vantage_node(), id, rng).has_value())
        << topo.node(id).name;
  }
  EXPECT_GT(addressable, 500u);
}

TEST_F(WorldWiringTest, IpUniquenessAcrossTheWorld) {
  auto& topo = world_->topology();
  std::set<uint32_t> seen;
  for (NodeId id = 0; id < topo.node_count(); ++id) {
    const Ipv4Addr ip = topo.node(id).ip;
    if (ip.is_unspecified()) continue;
    EXPECT_TRUE(seen.insert(ip.value()).second)
        << "duplicate " << ip.to_string() << " at " << topo.node(id).name;
  }
}

TEST_F(WorldWiringTest, NearestBackboneIsActuallyNearest) {
  const GeoPoint denver{39.74, -104.99};
  const auto& chosen =
      world_->topology().node(world_->nearest_backbone(denver));
  EXPECT_EQ(chosen.name, "ix-Denver");
}

TEST_F(WorldWiringTest, RegistryCoversAllResolverAddresses) {
  // Every resolver-ish address a client might query must dispatch.
  for (const auto& carrier : world_->carriers()) {
    for (const auto& client : carrier->client_resolvers()) {
      EXPECT_NE(world_->registry().find(client->ip()), nullptr);
    }
    for (const auto& external : carrier->external_resolvers()) {
      EXPECT_NE(world_->registry().find(external->ip()), nullptr);
    }
  }
  EXPECT_NE(world_->registry().find(Ipv4Addr{8, 8, 8, 8}), nullptr);
  EXPECT_NE(world_->registry().find(Ipv4Addr{208, 67, 222, 222}), nullptr);
  EXPECT_NE(world_->registry().find(world_->root_dns_ip()), nullptr);
}

TEST_F(WorldWiringTest, VantageCannotPingSubscriberGateways) {
  // NAT/firewall: carrier-internal hosts are unreachable to probes.
  auto& topo = world_->topology();
  net::Rng rng(2);
  auto& att = world_->carrier(0);
  const PingResult result =
      topo.ping(world_->vantage_node(), att.gateway_node(0), rng);
  EXPECT_FALSE(result.responded);
  EXPECT_EQ(result.failure, PingResult::Failure::kFirewalled);
}

}  // namespace
}  // namespace curtain::net
