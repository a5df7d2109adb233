// White-box tests of the carrier DNS deployment: site-/24 ownership,
// pairing scope, regional assignments and the 3G-era baseline profiles.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "cellular/device.h"
#include "core/world.h"
#include "net/device_state.h"

namespace curtain::cellular {
namespace {

class CarrierInternalsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { world_ = new core::World(); }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static core::World* world_;
  net::Rng rng_{606};
  // The one device whose resolver caches and NAT cursors the tests use.
  net::DeviceState device_{1};
};

core::World* CarrierInternalsTest::world_ = nullptr;

TEST_F(CarrierInternalsTest, Slash24sBelongToOneSite) {
  // Every external /24 must be announced at exactly one location —
  // otherwise the CDN's per-/24 hints would be meaningless (Fig. 10).
  for (const auto& carrier : world_->carriers()) {
    if (carrier->profile().dns.externals_collocated) continue;
    std::map<uint32_t, std::set<std::pair<int, int>>> locations;  // /24 -> {lat,lon}
    for (const auto& resolver : carrier->external_resolvers()) {
      const auto& node = world_->topology().node(resolver->node());
      locations[resolver->ip().slash24().value()].insert(
          {static_cast<int>(node.location.lat_deg * 100),
           static_cast<int>(node.location.lon_deg * 100)});
    }
    for (const auto& [prefix, sites] : locations) {
      EXPECT_EQ(sites.size(), 1u)
          << carrier->profile().name << " /24 " << prefix;
    }
  }
}

TEST_F(CarrierInternalsTest, AnycastInstanceFollowsSubscriberRegion) {
  auto& att = world_->carrier(0);
  ASSERT_EQ(att.profile().dns.kind, DnsArchKind::kAnycast);
  // Two subscribers behind different-region gateways hit different
  // instances of the same VIP.
  int region_a = att.region_of_gateway(0);
  int gateway_b = -1;
  for (int g = 1; g < att.num_gateways(); ++g) {
    if (att.region_of_gateway(g) != region_a) {
      gateway_b = g;
      break;
    }
  }
  ASSERT_GE(gateway_b, 0);
  const net::Ipv4Addr src_a = att.assign_ip(0, device_);
  const net::Ipv4Addr src_b = att.assign_ip(gateway_b, device_);
  EXPECT_NE(att.client_instance_node(0, src_a),
            att.client_instance_node(0, src_b));
  // And the same subscriber consistently hits the same instance.
  EXPECT_EQ(att.client_instance_node(0, src_a),
            att.client_instance_node(0, src_a));
}

TEST_F(CarrierInternalsTest, CollocatedForwardLegIsFree) {
  auto& skt = world_->carrier(4);
  const net::NodeId node = skt.external_resolvers()[0]->node();
  EXPECT_DOUBLE_EQ(skt.internal_forward_ms(node, node, rng_), 0.0);
}

TEST_F(CarrierInternalsTest, ForwardLegCostsForDistantPair) {
  auto& sprint = world_->carrier(1);
  const net::NodeId client = sprint.client_instance_node(
      0, sprint.assign_ip(0, device_));
  double max_cost = 0.0;
  for (const auto& resolver : sprint.external_resolvers()) {
    if (resolver->node() == client) continue;
    max_cost = std::max(
        max_cost, sprint.internal_forward_ms(client, resolver->node(), rng_));
  }
  EXPECT_GT(max_cost, 1.0);
}

TEST_F(CarrierInternalsTest, PoolCandidatesScopedToServingSite) {
  // A subscriber's query must always land on an external homed at its
  // serving site: over many windows the observed set stays a strict
  // subset of the whole pool.
  auto& lg = world_->carrier(5);
  const net::Ipv4Addr src = lg.assign_ip(0, device_);
  std::set<const void*> seen;
  for (int window = 0; window < 500; ++window) {
    const auto pick =
        lg.select_pair(0, src, net::SimTime::from_seconds(window * 600.0), rng_);
    seen.insert(pick.external);
  }
  EXPECT_GT(seen.size(), 3u);  // real load balancing
  EXPECT_LT(seen.size(), lg.external_resolvers().size());  // but site-scoped
}

TEST_F(CarrierInternalsTest, ConfiguredResolverIsRegionallyNearest) {
  auto& verizon = world_->carrier(3);
  for (int g = 0; g < verizon.num_gateways(); g += 7) {
    const net::Ipv4Addr configured = verizon.configured_resolver(1, g);
    const auto& gateway_node =
        world_->topology().node(verizon.gateway_node(g));
    // Find the chosen client resolver's node and check no other entry is
    // drastically closer (ties and shared metros allowed: 500 km slack).
    double chosen_distance = 0.0;
    double best_distance = 1e18;
    for (const auto& client : verizon.client_resolvers()) {
      const auto& node = world_->topology().node(
          verizon.client_instance_node(client->index(), net::Ipv4Addr{}));
      const double d =
          net::distance_km(gateway_node.location, node.location);
      if (client->ip() == configured) chosen_distance = d;
      best_distance = std::min(best_distance, d);
    }
    EXPECT_LT(chosen_distance, best_distance + 500.0) << "gateway " << g;
  }
}

TEST_F(CarrierInternalsTest, DmzExternalsLiveOutsideFirewalledZone) {
  for (const auto& carrier : world_->carriers()) {
    const bool dmz = carrier->profile().reach.externals_in_dmz;
    for (const auto& resolver : carrier->external_resolvers()) {
      const auto& node = world_->topology().node(resolver->node());
      const bool blocked =
          world_->topology().zone(node.zone).blocks_inbound_probes;
      EXPECT_EQ(blocked, !dmz) << carrier->profile().name;
    }
  }
}

TEST_F(CarrierInternalsTest, GatewayRegionsCoverAllRegions) {
  for (const auto& carrier : world_->carriers()) {
    std::set<int> regions;
    for (int g = 0; g < carrier->num_gateways(); ++g) {
      regions.insert(carrier->region_of_gateway(g));
    }
    EXPECT_EQ(static_cast<int>(regions.size()),
              std::min(carrier->profile().regions,
                       carrier->num_gateways()))
        << carrier->profile().name;
  }
}

// --- Xu-era (3G) baseline profiles ------------------------------------------

TEST(XuEra, FourUsCarriers) {
  const auto& carriers = xu_era_carriers();
  ASSERT_EQ(carriers.size(), 4u);
  for (const auto& p : carriers) {
    EXPECT_EQ(p.country, "US");
    EXPECT_GE(p.egress_points, 4);
    EXPECT_LE(p.egress_points, 6);  // Xu et al.'s 4-6 ingress points
    for (const auto& [tech, weight] : p.radio_mix) {
      EXPECT_NE(tech, RadioTech::kLte) << p.name;  // strictly pre-LTE
      (void)weight;
    }
    EXPECT_LE(p.dns.external_resolvers, 8);
  }
}

TEST(XuEra, BuildableWorld) {
  core::World world(
      core::Scenario::paper_2014().with_carriers(xu_era_carriers()));
  ASSERT_EQ(world.carriers().size(), 4u);
  net::DeviceState device_state(1);
  net::Rng rng(99);
  // A device can attach and resolve through the 3G deployment.
  Fleet fleet(&world.carrier(0), 1);
  fleet.enroll(0, 1, net::GeoPoint{40.71, -74.01});
  Device device = fleet.device(0);
  const auto snapshot =
      device.begin_experiment(net::SimTime::zero(), rng, device_state);
  EXPECT_FALSE(snapshot.configured_resolver.is_unspecified());
  EXPECT_NE(snapshot.radio, RadioTech::kLte);
  // Access latency is 3G-class: well above LTE's ~28 ms median.
  double access_sum = 0.0;
  for (int i = 0; i < 50; ++i) {
    device.begin_experiment(net::SimTime::from_hours(i + 1), rng, device_state);
    device.access_rtt_ms(net::SimTime::from_hours(i + 1), rng);  // bootstrap
    access_sum += device.access_rtt_ms(net::SimTime::from_hours(i + 1), rng);
  }
  EXPECT_GT(access_sum / 50.0, 50.0);
}

}  // namespace
}  // namespace curtain::cellular
