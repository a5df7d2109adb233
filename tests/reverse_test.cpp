#include <gtest/gtest.h>

#include "core/world.h"
#include "dns/resolver.h"
#include "dns/reverse.h"
#include "net/device_state.h"
#include "util/strings.h"

namespace curtain::dns {
namespace {

TEST(ReverseName, RoundTrip) {
  const net::Ipv4Addr address{192, 0, 2, 77};
  const DnsName reverse = reverse_name(address);
  EXPECT_EQ(reverse.to_string(), "77.2.0.192.in-addr.arpa");
  const auto parsed = parse_reverse_name(reverse);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, address);
}

TEST(ReverseName, ParseRejectsMalformed) {
  EXPECT_FALSE(parse_reverse_name(*DnsName::parse("a.b.in-addr.arpa")));
  EXPECT_FALSE(
      parse_reverse_name(*DnsName::parse("1.2.3.4.in-addr.example")));
  EXPECT_FALSE(
      parse_reverse_name(*DnsName::parse("256.2.3.4.in-addr.arpa")));
  EXPECT_FALSE(parse_reverse_name(*DnsName::parse("x.2.3.4.in-addr.arpa")));
  EXPECT_FALSE(parse_reverse_name(*DnsName::parse("www.example.com")));
}

TEST(ReverseName, HostnameLabelSanitization) {
  EXPECT_EQ(hostname_label("AT&T-pgw-3"), "at-t-pgw-3");
  EXPECT_EQ(hostname_label("LG U+ hub Seoul"), "lg-u-hub-seoul");
  EXPECT_EQ(hostname_label("ix-New York"), "ix-new-york");
  EXPECT_EQ(hostname_label("***"), "host");
  EXPECT_EQ(hostname_label(std::string(100, 'a')).size(), 63u);
}

class ReverseZoneTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { world_ = new core::World(); }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static core::World* world_;
  net::Rng rng_{11011};
  // The one device whose resolver caches and NAT cursors the tests use.
  net::DeviceState device_{1};

  ResolutionResult resolve_ptr(net::Ipv4Addr address) {
    // A wired recursive resolver doing the PTR lookup a traceroute tool
    // would perform per hop, on the backbone router nearest the vantage
    // point (the world's topology is frozen).
    static RecursiveResolver* resolver = new RecursiveResolver(
        "ptr-probe", world_->nearest_backbone({42.05, -87.68}),
        net::Ipv4Addr{203, 0, 116, 1}, &world_->topology(),
        &world_->registry(), world_->root_dns_ip());
    return resolver->resolve(reverse_name(address), RRType::kPTR,
                             net::SimTime::zero(), rng_, device_);
  }
};

core::World* ReverseZoneTest::world_ = nullptr;

TEST_F(ReverseZoneTest, GatewayHopResolvesToCarrierName) {
  auto& att = world_->carrier(0);
  const auto& gateway = world_->topology().node(att.gateway_node(0));
  ASSERT_FALSE(gateway.ip.is_unspecified());
  const auto result = resolve_ptr(gateway.ip);
  ASSERT_EQ(result.rcode, Rcode::kNoError);
  ASSERT_FALSE(result.answers.empty());
  const auto& target =
      std::get<PtrRecord>(result.answers.front().rdata).target;
  // "at-t-pgw-0.rev.curtain-study.net": the hop is attributable to AT&T.
  EXPECT_TRUE(curtain::util::starts_with(target.to_string(), "at-t-pgw-"));
  EXPECT_TRUE(
      target.is_within(*DnsName::parse("rev.curtain-study.net")));
}

TEST_F(ReverseZoneTest, BackboneRouterResolves) {
  const auto& node =
      world_->topology().node(world_->nearest_backbone({41.88, -87.63}));
  const auto result = resolve_ptr(node.ip);
  ASSERT_EQ(result.rcode, Rcode::kNoError);
  const auto& target =
      std::get<PtrRecord>(result.answers.front().rdata).target;
  EXPECT_TRUE(curtain::util::starts_with(target.to_string(), "ix-chicago"));
}

TEST_F(ReverseZoneTest, UnknownAddressIsNxdomain) {
  const auto result = resolve_ptr(net::Ipv4Addr{203, 0, 113, 250});
  EXPECT_EQ(result.rcode, Rcode::kNxDomain);
}

TEST_F(ReverseZoneTest, ReplicaAddressResolvesToCdnName) {
  const auto& cluster = world_->cdn("fastedge").clusters().front();
  const auto result = resolve_ptr(cluster.replica_ips[0]);
  ASSERT_EQ(result.rcode, Rcode::kNoError);
  const auto& target =
      std::get<PtrRecord>(result.answers.front().rdata).target;
  EXPECT_TRUE(curtain::util::starts_with(target.to_string(), "fastedge-"));
}

}  // namespace
}  // namespace curtain::dns
