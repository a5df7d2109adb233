// EDNS client-subnet (RFC 7871) — codec, resolver and CDN behaviour.
//
// ECS is the study's "future work made concrete": it lets a far-away
// public resolver disclose the client's subnet so replica selection can
// key on the client. These tests cover the wire format, subnet-scoped
// caching, and the end-to-end effect on CDN mapping.
#include <gtest/gtest.h>

#include "cdn/domains.h"
#include "core/world.h"
#include "dns/hierarchy.h"
#include "dns/resolver.h"
#include "net/device_state.h"

namespace curtain::dns {
namespace {

DnsName name(const char* s) { return *DnsName::parse(s); }

// --- codec ---------------------------------------------------------------

TEST(EcsCodec, QueryRoundTrip) {
  Message query = Message::query(9, name("m.yelp.com"), RRType::kA);
  query.ecs = EdnsClientSubnet{net::Ipv4Addr{100, 64, 3, 77}, 24, 0};
  const auto decoded = decode(encode(query));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(decoded->ecs.has_value());
  // The address is truncated to the prefix on the wire.
  EXPECT_EQ(decoded->ecs->address, net::Ipv4Addr(100, 64, 3, 0));
  EXPECT_EQ(decoded->ecs->source_prefix_len, 24);
  EXPECT_EQ(decoded->ecs->scope_prefix_len, 0);
  EXPECT_TRUE(decoded->additionals.empty());  // OPT is not a visible record
}

TEST(EcsCodec, ShorterPrefixFewerAddressBytes) {
  Message query = Message::query(9, name("a.com"), RRType::kA);
  query.ecs = EdnsClientSubnet{net::Ipv4Addr{10, 20, 30, 40}, 16, 0};
  const auto wire = encode(query);
  const auto decoded = decode(wire);
  ASSERT_TRUE(decoded.has_value() && decoded->ecs.has_value());
  EXPECT_EQ(decoded->ecs->address, net::Ipv4Addr(10, 20, 0, 0));
  EXPECT_EQ(decoded->ecs->source_prefix_len, 16);
}

TEST(EcsCodec, ZeroPrefixCarriesNoAddress) {
  Message query = Message::query(9, name("a.com"), RRType::kA);
  query.ecs = EdnsClientSubnet{net::Ipv4Addr{1, 2, 3, 4}, 0, 0};
  const auto decoded = decode(encode(query));
  ASSERT_TRUE(decoded.has_value() && decoded->ecs.has_value());
  EXPECT_EQ(decoded->ecs->address, net::Ipv4Addr{});
}

TEST(EcsCodec, MessageWithoutEcsHasNone) {
  const auto decoded = decode(encode(Message::query(1, name("a.com"), RRType::kA)));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->ecs.has_value());
}

TEST(EcsCodec, EcsCoexistsWithAnswers) {
  Message response = Message::query(2, name("a.com"), RRType::kA).make_response();
  response.answers.push_back(
      ResourceRecord::a(name("a.com"), net::Ipv4Addr{1, 1, 1, 1}, 60));
  response.additionals.push_back(
      ResourceRecord::a(name("ns.a.com"), net::Ipv4Addr{2, 2, 2, 2}, 60));
  response.ecs = EdnsClientSubnet{net::Ipv4Addr{100, 64, 0, 0}, 24, 24};
  const auto decoded = decode(encode(response));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, response);
  EXPECT_EQ(decoded->additionals.size(), 1u);
}

TEST(EcsCodec, EqualityIncludesEcs) {
  Message a = Message::query(3, name("a.com"), RRType::kA);
  Message b = a;
  b.ecs = EdnsClientSubnet{net::Ipv4Addr{9, 9, 9, 0}, 24, 0};
  EXPECT_FALSE(a == b);
}

// --- subnet-scoped cache ---------------------------------------------------

TEST(EcsCache, ScopesAreIndependent) {
  Cache cache;
  const auto host = name("edge.cdn.net");
  cache.insert(host, RRType::kA,
               {ResourceRecord::a(host, net::Ipv4Addr{1, 1, 1, 1}, 60)},
               net::SimTime::zero(), /*scope=*/0x64400300);
  // Global partition does not see the scoped entry...
  EXPECT_FALSE(cache.lookup(host, RRType::kA, net::SimTime::zero()));
  // ...nor does another subnet's partition.
  EXPECT_FALSE(cache.lookup(host, RRType::kA, net::SimTime::zero(), 0x64400400));
  // The owning subnet does.
  EXPECT_TRUE(cache.lookup(host, RRType::kA, net::SimTime::zero(), 0x64400300));
}

// --- resolver: the option the authority sees --------------------------------

// A resolver with a non-/24 source prefix must hand the authority the
// client address masked to that prefix, the same option the wire would
// carry: the typed exchange runs no codec to mask it.
TEST(EcsResolver, NonSlash24PrefixMaskedBeforeAdns) {
  net::Topology topo;
  ServerRegistry registry;
  net::Node hub_node;
  hub_node.name = "hub";
  const net::NodeId hub = topo.add_node(hub_node);
  const auto attach = [&](const std::string& host, net::Ipv4Addr ip) {
    net::Node node;
    node.name = host;
    node.ip = ip;
    const net::NodeId id = topo.add_node(node);
    topo.add_link(id, hub, net::LatencyModel::fixed(1.0));
    return id;
  };
  DnsHierarchy hierarchy(
      [&](const std::string& host, net::NodeKind, const net::GeoPoint&,
          net::Ipv4Addr ip) { return attach(host, ip); },
      &registry);
  auto& cdn = hierarchy.create_zone(name("cdnzone.net"), {41, -87},
                                    net::Ipv4Addr{50, 0, 0, 2});
  std::optional<EdnsClientSubnet> seen;
  cdn.set_dynamic_handler(
      [&seen](const Question& question, net::Ipv4Addr,
              const std::optional<EdnsClientSubnet>& ecs, net::SimTime,
              net::Rng&) -> std::optional<std::vector<ResourceRecord>> {
        seen = ecs;
        return std::vector<ResourceRecord>{
            ResourceRecord::a(question.name, net::Ipv4Addr{60, 1, 2, 3}, 0)};
      },
      /*dynamic_ttl_s=*/0);

  const net::Ipv4Addr client{100, 64, 19, 77};
  const struct {
    uint8_t prefix;
    net::Ipv4Addr expected;
  } cases[] = {{16, {100, 64, 0, 0}}, {20, {100, 64, 16, 0}},
               {24, {100, 64, 19, 0}}, {32, {100, 64, 19, 0}}};
  // One resolver per case, all on one node.
  const net::NodeId resolver_node = attach("resolver", {});
  topo.freeze();
  for (const auto& c : cases) {
    RecursiveResolver resolver("ecs-prefix", resolver_node,
                               net::Ipv4Addr{9, 9, 9, 9}, &topo, &registry,
                               hierarchy.root_ip());
    resolver.enable_ecs(c.prefix);
    net::DeviceState device(1);
    net::Rng rng(7);
    seen.reset();
    const auto result = resolver.resolve(name("edge.cdnzone.net"), RRType::kA,
                                         net::SimTime::zero(), rng, device,
                                         client);
    ASSERT_EQ(result.rcode, Rcode::kNoError);
    ASSERT_TRUE(seen.has_value()) << int{c.prefix};
    EXPECT_EQ(seen->address, c.expected) << int{c.prefix};
    EXPECT_EQ(seen->source_prefix_len, c.prefix);
    EXPECT_EQ(seen->scope_prefix_len, 0);
    // The typed option is already what the codec would put on the wire.
    Message query = Message::query(1, name("edge.cdnzone.net"), RRType::kA);
    query.ecs = seen;
    const auto decoded = decode(encode(query));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->ecs, seen) << int{c.prefix};
  }
}

// --- end-to-end: ECS fixes public-DNS replica mapping ----------------------

class EcsWorldTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new core::World(
        core::Scenario::paper_2014().with_google_ecs(true));
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static core::World* world_;
  net::Rng rng_{555};
  // The one device whose resolver caches and NAT cursors the tests use.
  net::DeviceState device_{1};
};

core::World* EcsWorldTest::world_ = nullptr;

TEST_F(EcsWorldTest, GoogleInstancesSendEcs) {
  for (const auto& site : world_->google_dns().sites()) {
    for (const auto& instance : site.instances) {
      EXPECT_TRUE(instance->ecs_enabled());
    }
  }
  for (const auto& site : world_->open_dns().sites()) {
    for (const auto& instance : site.instances) {
      EXPECT_FALSE(instance->ecs_enabled());
    }
  }
}

TEST_F(EcsWorldTest, CdnMapsByClientSubnetWhenEcsPresent) {
  // A Seattle-area subscriber queried through a far-away resolver: with
  // ECS the CDN must serve the Seattle cluster regardless of where the
  // resolver sits.
  auto& provider = world_->cdn("curtaincdn");
  auto& carrier = world_->carrier(3);  // Verizon
  int seattle_gateway = -1;
  for (int g = 0; g < carrier.num_gateways(); ++g) {
    const auto& node = world_->topology().node(carrier.gateway_node(g));
    if (net::distance_km(node.location, {47.61, -122.33}) < 100.0) {
      seattle_gateway = g;
    }
  }
  ASSERT_GE(seattle_gateway, 0);
  const net::Ipv4Addr client = carrier.assign_ip(seattle_gateway, device_);

  // An ECS-enabled probe resolver far from the client (NYC), at the
  // backbone router there: the world's topology is frozen.
  RecursiveResolver resolver(
      "ecs-probe", world_->nearest_backbone({40.71, -74.01}),
      net::Ipv4Addr{203, 0, 115, 1}, &world_->topology(), &world_->registry(),
      world_->root_dns_ip());
  resolver.enable_ecs();

  const auto result = resolver.resolve(name("m.yelp.com"), RRType::kA,
                                       net::SimTime::zero(), rng_, device_,
                                       client);
  ASSERT_EQ(result.rcode, Rcode::kNoError);
  ASSERT_FALSE(result.addresses().empty());
  for (const auto address : result.addresses()) {
    const auto* cluster = provider.cluster_of_replica(address);
    ASSERT_NE(cluster, nullptr);
    EXPECT_EQ(cluster->metro, "Seattle");
  }
}

TEST_F(EcsWorldTest, ScopedAnswersNotSharedAcrossSubnets) {
  RecursiveResolver resolver(
      "ecs-probe2", world_->nearest_backbone({41.88, -87.63}),
      net::Ipv4Addr{203, 0, 115, 2}, &world_->topology(), &world_->registry(),
      world_->root_dns_ip());
  resolver.enable_ecs();

  auto& carrier = world_->carrier(0);  // AT&T
  const net::Ipv4Addr client_a = carrier.assign_ip(0, device_);
  const net::Ipv4Addr client_b = carrier.assign_ip(1, device_);
  ASSERT_NE(client_a.slash24(), client_b.slash24());

  const auto first = resolver.resolve(name("www.bing.com"), RRType::kA,
                                      net::SimTime::zero(), rng_, device_,
                                      client_a);
  ASSERT_FALSE(first.addresses().empty());
  // Same subnet immediately after: cache hit.
  const auto repeat = resolver.resolve(name("www.bing.com"), RRType::kA,
                                       net::SimTime::from_seconds(1), rng_,
                                       device_,
                                       client_a);
  EXPECT_TRUE(repeat.from_cache);
  // Different subnet: the tailored entry must not be reused.
  const auto other = resolver.resolve(name("www.bing.com"), RRType::kA,
                                      net::SimTime::from_seconds(2), rng_,
                                      device_,
                                      client_b);
  EXPECT_FALSE(other.from_cache);
}

TEST_F(EcsWorldTest, ResearchAdnsStillSeesResolver) {
  // Identification must keep returning the *resolver's* address even when
  // the query carries the client's subnet.
  const net::Ipv4Addr resolver_ip{203, 0, 115, 3};
  RecursiveResolver resolver(
      "ecs-probe3", world_->nearest_backbone({32.78, -96.80}), resolver_ip,
      &world_->topology(), &world_->registry(), world_->root_dns_ip());
  resolver.enable_ecs();
  auto& carrier = world_->carrier(1);
  const net::Ipv4Addr client = carrier.assign_ip(0, device_);
  const auto probe = name("r1.d9.adns.curtain-study.net");
  const auto result =
      resolver.resolve(probe, RRType::kA, net::SimTime::zero(), rng_, device_,
                       client);
  ASSERT_FALSE(result.addresses().empty());
  EXPECT_EQ(result.addresses()[0], resolver_ip);
}

}  // namespace
}  // namespace curtain::dns
