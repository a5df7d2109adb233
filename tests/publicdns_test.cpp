#include <gtest/gtest.h>

#include <set>

#include "core/world.h"
#include "dns/stub.h"

namespace curtain::publicdns {
namespace {

class PublicDnsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { world_ = new core::World(); }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static core::World* world_;
  net::Rng rng_{4242};
};

core::World* PublicDnsTest::world_ = nullptr;

TEST_F(PublicDnsTest, GoogleHasThirtyDistinctSlash24Sites) {
  const auto& sites = world_->google_dns().sites();
  ASSERT_EQ(sites.size(), 30u);  // paper §6.1
  std::set<uint32_t> prefixes;
  for (const auto& site : sites) {
    prefixes.insert(site.prefix.address().value());
    for (const auto& instance : site.instances) {
      EXPECT_TRUE(site.prefix.contains(instance->ip()));
    }
  }
  EXPECT_EQ(prefixes.size(), 30u);
}

TEST_F(PublicDnsTest, OpenDnsSmaller) {
  EXPECT_EQ(world_->open_dns().sites().size(), 20u);
}

TEST_F(PublicDnsTest, VipRegisteredInRegistry) {
  EXPECT_EQ(world_->registry().find(net::Ipv4Addr(8, 8, 8, 8)),
            &world_->google_dns());
  EXPECT_EQ(world_->registry().find(net::Ipv4Addr(208, 67, 222, 222)),
            &world_->open_dns());
}

TEST_F(PublicDnsTest, AnycastRoutesNearEgress) {
  // A subscriber behind an AT&T gateway should land on a site within a
  // continental distance of that gateway.
  auto& att = world_->carrier(0);
  const net::Ipv4Addr src = att.assign_ip(0, rng_);
  const auto& gateway_node = world_->topology().node(att.gateway_node(0));
  const net::NodeId site_node =
      world_->google_dns().node_for(src, net::SimTime::zero());
  const auto& site = world_->topology().node(site_node);
  EXPECT_LT(net::distance_km(gateway_node.location, site.location), 4500.0);
}

TEST_F(PublicDnsTest, IngressStableWithinEpoch) {
  auto& att = world_->carrier(0);
  const net::Ipv4Addr src = att.assign_ip(1, rng_);
  const auto t = net::SimTime::from_hours(3.0);
  const net::NodeId a = world_->google_dns().node_for(src, t);
  const net::NodeId b = world_->google_dns().node_for(
      src, t + net::SimTime::from_seconds(30));
  EXPECT_EQ(a, b);
}

TEST_F(PublicDnsTest, IngressDriftsAcrossEpochs) {
  // Over many ingress epochs a prefix visits several sites (Fig. 12).
  auto& att = world_->carrier(0);
  const net::Ipv4Addr src = att.assign_ip(2, rng_);
  std::set<net::NodeId> sites;
  for (int day = 0; day < 60; ++day) {
    sites.insert(
        world_->google_dns().node_for(src, net::SimTime::from_days(day)));
  }
  EXPECT_GT(sites.size(), 1u);
  EXPECT_LE(sites.size(), 4u);  // flips among the nearest few only
}

TEST_F(PublicDnsTest, ResolvesStudyDomainEndToEnd) {
  auto& att = world_->carrier(0);
  const net::Ipv4Addr src = att.assign_ip(3, rng_);
  dns::StubResolver stub(att.gateway_node(0), src, world_->topology(),
                         world_->registry());
  const auto result =
      stub.query(net::Ipv4Addr{8, 8, 8, 8}, *dns::DnsName::parse("m.yelp.com"),
                 dns::RRType::kA, net::SimTime::zero(), rng_);
  EXPECT_TRUE(result.responded);
  EXPECT_EQ(result.rcode, dns::Rcode::kNoError);
  EXPECT_FALSE(result.addresses().empty());
  EXPECT_GT(result.total_ms, 0.0);
}

TEST_F(PublicDnsTest, InstancesSpreadWithinSite) {
  // Repeated queries from one source within one ingress epoch land on one
  // site but are spread over several of its instance IPs (Table 5: many
  // IPs, few /24s). The research ADNS answers each query with the address
  // of the instance that asked, and every name is fresh, so each answer
  // names the instance the service picked.
  auto& att = world_->carrier(0);
  const net::Ipv4Addr src = att.assign_ip(4, rng_);
  std::set<uint32_t> instances;
  std::set<uint32_t> slash24s;
  for (int i = 0; i < 12; ++i) {
    const auto qname =
        *world_->research_apex().child("adns")->child("spread" + std::to_string(i));
    const auto served = world_->google_dns().serve_wire(
        dns::encode(dns::Message::query(static_cast<uint16_t>(9 + i), qname,
                                        dns::RRType::kA)),
        src, net::SimTime::from_seconds(i), rng_);
    const auto response = dns::decode(served.wire);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->header.id, 9 + i);
    EXPECT_EQ(response->header.rcode, dns::Rcode::kNoError);
    const auto addresses = response->answer_addresses();
    ASSERT_EQ(addresses.size(), 1u);
    instances.insert(addresses[0].value());
    slash24s.insert(addresses[0].slash24().value());
  }
  EXPECT_GT(instances.size(), 1u);
  EXPECT_EQ(slash24s.size(), 1u);
}

}  // namespace
}  // namespace curtain::publicdns
