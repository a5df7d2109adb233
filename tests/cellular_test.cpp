#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <set>

#include "cellular/device.h"
#include "core/world.h"
#include "net/device_state.h"

namespace curtain::cellular {
namespace {

// --- radio model ---------------------------------------------------------

TEST(Radio, AllTechsHaveProfiles) {
  for (const RadioTech tech : all_radio_techs()) {
    const RadioProfile& profile = radio_profile(tech);
    EXPECT_EQ(profile.tech, tech);
    EXPECT_GT(profile.access_rtt.median_ms, 0.0);
    EXPECT_GT(profile.promotion.median_ms, 0.0);
    EXPECT_GT(profile.inactivity_timeout.seconds(), 0.0);
  }
}

TEST(Radio, GenerationOrderingOfLatency) {
  // Fig. 3's bands: 4G < 3G < 2G at the median.
  EXPECT_LT(radio_profile(RadioTech::kLte).access_rtt.median_ms,
            radio_profile(RadioTech::kEvdoA).access_rtt.median_ms);
  EXPECT_LT(radio_profile(RadioTech::kEhrpd).access_rtt.median_ms,
            radio_profile(RadioTech::kOneXRtt).access_rtt.median_ms);
  EXPECT_LT(radio_profile(RadioTech::kHspap).access_rtt.median_ms,
            radio_profile(RadioTech::kGprs).access_rtt.median_ms);
}

TEST(Radio, Names) {
  EXPECT_STREQ(radio_tech_name(RadioTech::kLte), "LTE");
  EXPECT_STREQ(radio_tech_name(RadioTech::kOneXRtt), "1xRTT");
  EXPECT_STREQ(radio_tech_name(RadioTech::kUmts), "UTMS");  // paper spelling
}

TEST(Radio, Generations) {
  EXPECT_EQ(radio_generation(RadioTech::kLte), RadioGeneration::k4G);
  EXPECT_EQ(radio_generation(RadioTech::kHspa), RadioGeneration::k3G);
  EXPECT_EQ(radio_generation(RadioTech::kGprs), RadioGeneration::k2G);
}

TEST(Rrc, PromotionPaidAfterIdle) {
  net::Rng rng(5);
  RrcState rrc;
  EXPECT_TRUE(rrc.is_idle(RadioTech::kLte, net::SimTime::zero()));
  const double cold =
      rrc.access_rtt_ms(RadioTech::kLte, net::SimTime::from_seconds(100), rng);
  const double warm = rrc.access_rtt_ms(
      RadioTech::kLte, net::SimTime::from_seconds(100.5), rng);
  // Promotion is ~260 ms; the cold access must clearly exceed the warm one.
  EXPECT_GT(cold, warm + 100.0);
}

TEST(Rrc, DemotesAfterInactivityTimeout) {
  net::Rng rng(5);
  RrcState rrc;
  rrc.access_rtt_ms(RadioTech::kLte, net::SimTime::from_seconds(10), rng);
  EXPECT_FALSE(rrc.is_idle(RadioTech::kLte, net::SimTime::from_seconds(15)));
  EXPECT_TRUE(rrc.is_idle(RadioTech::kLte, net::SimTime::from_seconds(25)));
}

// Property: every technology's access RTT stays positive and promotion
// strictly adds latency.
class RadioSweep : public ::testing::TestWithParam<RadioTech> {};

TEST_P(RadioSweep, AccessAlwaysPositive) {
  net::Rng rng(7);
  const RadioProfile& profile = radio_profile(GetParam());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(profile.access_rtt.sample(rng), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTechs, RadioSweep, ::testing::ValuesIn(all_radio_techs()),
    [](const ::testing::TestParamInfo<RadioTech>& tech_info) {
      std::string label = radio_tech_name(tech_info.param);
      for (char& c : label) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return label;
    });

// --- carrier profiles ------------------------------------------------------

TEST(CarrierProfiles, SixCarriersTableOne) {
  const auto& carriers = study_carriers();
  ASSERT_EQ(carriers.size(), 6u);
  int total_clients = 0;
  for (const auto& c : carriers) total_clients += c.study_clients;
  EXPECT_EQ(total_clients, 158);  // paper §3.1
}

TEST(CarrierProfiles, FindByName) {
  ASSERT_NE(find_carrier("Verizon"), nullptr);
  EXPECT_EQ(find_carrier("Verizon")->dns.kind, DnsArchKind::kTiered);
  EXPECT_EQ(find_carrier("nonesuch"), nullptr);
}

TEST(CarrierProfiles, VerizonIsFullyConsistentTiered) {
  const auto* verizon = find_carrier("Verizon");
  EXPECT_DOUBLE_EQ(verizon->dns.pairing_consistency, 1.0);
  EXPECT_EQ(verizon->client_as, 6167);
  EXPECT_EQ(verizon->external_as, 22394);
}

TEST(CarrierProfiles, SkCarriersShareSlash24s) {
  EXPECT_TRUE(find_carrier("SK Telecom")->dns.paired_same_slash24);
  EXPECT_TRUE(find_carrier("LG U+")->dns.paired_same_slash24);
  EXPECT_EQ(find_carrier("LG U+")->dns.external_resolvers, 89);
  EXPECT_EQ(find_carrier("SK Telecom")->dns.client_resolvers, 2);
}

TEST(CarrierProfiles, EgressCountsMatchSection52) {
  EXPECT_EQ(find_carrier("AT&T")->egress_points, 110);
  EXPECT_EQ(find_carrier("Sprint")->egress_points, 45);
  EXPECT_EQ(find_carrier("Verizon")->egress_points, 62);
  EXPECT_EQ(find_carrier("T-Mobile")->egress_points, 49);
}

class CarrierProfileSweep : public ::testing::TestWithParam<int> {};

TEST_P(CarrierProfileSweep, ProfileInvariants) {
  const CarrierProfile& p =
      study_carriers()[static_cast<size_t>(GetParam())];
  EXPECT_FALSE(p.name.empty());
  EXPECT_TRUE(p.country == "US" || p.country == "KR");
  EXPECT_GT(p.study_clients, 0);
  EXPECT_GT(p.egress_points, 0);
  EXPECT_GE(p.regions, 1);
  double weight_sum = 0.0;
  bool has_lte = false;
  for (const auto& [tech, weight] : p.radio_mix) {
    EXPECT_GT(weight, 0.0);
    weight_sum += weight;
    has_lte |= tech == RadioTech::kLte;
  }
  EXPECT_TRUE(has_lte);
  EXPECT_NEAR(weight_sum, 1.0, 0.01);
  EXPECT_GE(p.dns.client_resolvers, 1);
  EXPECT_GE(p.dns.external_resolvers, p.dns.client_resolvers);
  EXPECT_GT(p.dns.pairing_consistency, 0.0);
  EXPECT_LE(p.dns.pairing_consistency, 1.0);
  EXPECT_GE(p.dns.external_slash24s, 1);
}

INSTANTIATE_TEST_SUITE_P(AllCarriers, CarrierProfileSweep,
                         ::testing::Range(0, 6));

// --- built carriers in a world --------------------------------------------

class BuiltCarrierTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { world_ = new core::World(); }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static core::World* world_;
  net::Rng rng_{77};
  // The one device whose resolver caches and NAT cursors the tests use.
  net::DeviceState device_state_{1};
};

core::World* BuiltCarrierTest::world_ = nullptr;

TEST_F(BuiltCarrierTest, ResolverCountsMatchProfiles) {
  for (const auto& carrier : world_->carriers()) {
    const auto& profile = carrier->profile();
    EXPECT_EQ(carrier->client_resolvers().size(),
              static_cast<size_t>(profile.dns.client_resolvers));
    EXPECT_EQ(carrier->external_resolvers().size(),
              static_cast<size_t>(profile.dns.external_resolvers));
    EXPECT_EQ(carrier->num_gateways(), profile.egress_points);
  }
}

TEST_F(BuiltCarrierTest, ExternalsOccupyConfiguredSlash24s) {
  for (const auto& carrier : world_->carriers()) {
    std::set<uint32_t> prefixes;
    for (const auto& resolver : carrier->external_resolvers()) {
      prefixes.insert(resolver->ip().slash24().value());
    }
    EXPECT_EQ(prefixes.size(),
              static_cast<size_t>(carrier->profile().dns.external_slash24s))
        << carrier->profile().name;
  }
}

TEST_F(BuiltCarrierTest, SkPairsShareSlash24) {
  const auto& skt = world_->carrier(4);
  ASSERT_EQ(skt.profile().name, "SK Telecom");
  std::set<uint32_t> external24s;
  for (const auto& resolver : skt.external_resolvers()) {
    external24s.insert(resolver->ip().slash24().value());
  }
  for (const auto& client : skt.client_resolvers()) {
    EXPECT_TRUE(external24s.count(client->ip().slash24().value()))
        << client->ip().to_string();
  }
}

TEST_F(BuiltCarrierTest, NatPoolMapsBackToGateway) {
  auto& att = world_->carrier(0);
  for (int g = 0; g < 5; ++g) {
    const net::Ipv4Addr ip = att.assign_ip(g, device_state_);
    EXPECT_EQ(att.gateway_of_ip(ip), g);
  }
  EXPECT_EQ(att.gateway_of_ip(net::Ipv4Addr{1, 1, 1, 1}), -1);
}

TEST_F(BuiltCarrierTest, PickGatewayPrefersNearbyRegion) {
  auto& verizon = world_->carrier(3);
  const net::GeoPoint nyc{40.71, -74.01};
  int near = 0;
  for (int i = 0; i < 200; ++i) {
    const int g = verizon.pick_gateway(nyc, rng_);
    const auto& node =
        world_->topology().node(verizon.gateway_node(g));
    if (net::distance_km(node.location, nyc) < 1500.0) ++near;
  }
  EXPECT_GT(near, 150);  // mostly attaches close to home
}

TEST_F(BuiltCarrierTest, ConfiguredResolverStablePerDevice) {
  auto& sprint = world_->carrier(1);
  const net::Ipv4Addr first = sprint.configured_resolver(42, 0);
  EXPECT_EQ(sprint.configured_resolver(42, 0), first);
  // And it is one of the carrier's client resolver addresses.
  bool found = false;
  for (const auto& client : sprint.client_resolvers()) {
    found |= client->ip() == first;
  }
  EXPECT_TRUE(found);
}

TEST_F(BuiltCarrierTest, TieredPairingIsDeterministic) {
  auto& verizon = world_->carrier(3);
  const net::Ipv4Addr src = verizon.assign_ip(3, device_state_);
  const auto a = verizon.select_pair(2, src, net::SimTime::zero(), rng_);
  const auto b =
      verizon.select_pair(2, src, net::SimTime::from_days(100), rng_);
  EXPECT_EQ(a.external, b.external);  // 100% consistency, forever
}

TEST_F(BuiltCarrierTest, PoolPairingFlowSticky) {
  // Selection is flow-sticky: constant within a balancer window, variable
  // across windows with the configured consistency.
  auto& sprint = world_->carrier(1);
  const net::Ipv4Addr src = sprint.assign_ip(0, device_state_);
  const auto at = net::SimTime::from_hours(5.0);
  const auto a = sprint.select_pair(0, src, at, rng_);
  const auto b =
      sprint.select_pair(0, src, at + net::SimTime::from_seconds(30), rng_);
  EXPECT_EQ(a.external, b.external);

  std::map<const void*, int> counts;
  const int windows = 600;
  for (int w = 0; w < windows; ++w) {
    const auto pick =
        sprint.select_pair(0, src, net::SimTime::from_seconds(w * 600.0), rng_);
    ++counts[pick.external];
  }
  int modal = 0;
  for (const auto& [resolver, count] : counts) modal = std::max(modal, count);
  // Configured consistency is 0.65; epoch re-pairing adds a little more
  // spread on top, so accept a generous band.
  EXPECT_GT(modal, windows * 0.40);
  EXPECT_LT(modal, windows * 0.80);
  EXPECT_GT(counts.size(), 1u);  // load balancing does spread
}

TEST_F(BuiltCarrierTest, RepairEpochChangesHomeEventually) {
  auto& lg = world_->carrier(5);
  ASSERT_EQ(lg.profile().name, "LG U+");
  const net::Ipv4Addr src = lg.assign_ip(0, device_state_);
  std::set<const void*> homes;
  // Sample the modal pick across two weeks; LG U+ re-pairs every ~5 hours.
  for (int hour = 0; hour < 14 * 24; hour += 6) {
    std::map<const void*, int> counts;
    for (int i = 0; i < 30; ++i) {
      const auto pick =
          lg.select_pair(0, src, net::SimTime::from_hours(hour), rng_);
      ++counts[pick.external];
    }
    const void* modal = nullptr;
    int best = 0;
    for (const auto& [resolver, count] : counts) {
      if (count > best) {
        best = count;
        modal = resolver;
      }
    }
    homes.insert(modal);
  }
  EXPECT_GT(homes.size(), 5u);  // many distinct homes over two weeks
}

TEST_F(BuiltCarrierTest, DeviceChurnsIpOverTime) {
  auto& att = world_->carrier(0);
  Fleet fleet(&att, 1);
  fleet.enroll(0, 999, net::GeoPoint{40.7, -74.0});
  Device device = fleet.device(0);
  std::set<uint32_t> ips;
  std::set<int> gateways;
  for (int hour = 0; hour < 24 * 30; ++hour) {
    const auto snapshot =
        device.begin_experiment(net::SimTime::from_hours(hour), rng_,
                                device_state_);
    ips.insert(snapshot.public_ip.value());
    gateways.insert(snapshot.gateway_index);
  }
  EXPECT_GT(ips.size(), 20u);      // ~8h mean reassignment over 30 days
  EXPECT_GT(gateways.size(), 3u);  // egress churn even from one home
}

TEST_F(BuiltCarrierTest, DeviceRadioMixMostlyLte) {
  auto& verizon = world_->carrier(3);
  Fleet fleet(&verizon, 1);
  fleet.enroll(0, 1000, net::GeoPoint{40.7, -74.0});
  Device device = fleet.device(0);
  int lte = 0;
  const int trials = 400;
  for (int i = 0; i < trials; ++i) {
    const auto snapshot =
        device.begin_experiment(net::SimTime::from_hours(i), rng_,
                                device_state_);
    if (snapshot.radio == RadioTech::kLte) ++lte;
  }
  EXPECT_GT(lte, trials * 0.6);
  EXPECT_LT(lte, trials * 0.95);
}

TEST_F(BuiltCarrierTest, GatewayNodesAreVisibleBoundary) {
  const auto& att = world_->carrier(0);
  const auto& node = world_->topology().node(att.gateway_node(0));
  EXPECT_EQ(node.kind, net::NodeKind::kGateway);
  EXPECT_TRUE(node.responds_to_traceroute);
  EXPECT_TRUE(world_->topology().zone(node.zone).blocks_inbound_probes);
}

}  // namespace
}  // namespace curtain::cellular
