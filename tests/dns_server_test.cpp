#include <gtest/gtest.h>

#include "dns/hierarchy.h"
#include "dns/resolver.h"
#include "dns/stub.h"

namespace curtain::dns {
namespace {

DnsName name(const char* s) { return *DnsName::parse(s); }

// A miniature internet: one backbone router, a root + TLD hierarchy, two
// zones (an origin and a CDN-style dynamic zone), one recursive resolver
// and a stub client host.
class DnsWorldTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net::Node hub;
    hub.name = "hub";
    hub.processing = net::LatencyModel::fixed(0.0);
    hub_ = topo_.add_node(hub);

    hierarchy_ = std::make_unique<DnsHierarchy>(
        [this](const std::string& host_name, net::NodeKind kind,
               const net::GeoPoint& location, net::Ipv4Addr ip) {
          return attach(host_name, kind, location, ip);
        },
        &registry_);

    // Origin zone: www.example.com CNAME edge.cdnzone.net; static A for
    // static.example.com.
    origin_ = &hierarchy_->create_zone(name("example.com"), {40, -74},
                                       net::Ipv4Addr{50, 0, 0, 1});
    origin_->add_record(ResourceRecord::cname(name("www.example.com"),
                                              name("edge.cdnzone.net"), 300));
    origin_->add_record(ResourceRecord::a(name("static.example.com"),
                                          net::Ipv4Addr{50, 1, 1, 1}, 600));
    origin_->add_record(ResourceRecord::txt(name("static.example.com"),
                                            {"hello"}, 600));

    // CDN zone with a dynamic handler answering per-resolver.
    cdn_ = &hierarchy_->create_zone(name("cdnzone.net"), {41, -87},
                                    net::Ipv4Addr{50, 0, 0, 2});
    cdn_->set_dynamic_handler(
        [this](const Question& question, net::Ipv4Addr resolver_ip,
               const std::optional<EdnsClientSubnet>&, net::SimTime, net::Rng&)
            -> std::optional<std::vector<ResourceRecord>> {
          if (question.type != RRType::kA) return std::nullopt;
          ++dynamic_calls_;
          last_seen_resolver_ = resolver_ip;
          return std::vector<ResourceRecord>{ResourceRecord::a(
              question.name, net::Ipv4Addr{60, 1, 2, 3}, 0)};
        },
        /*dynamic_ttl_s=*/30);

    const net::NodeId resolver_node = attach(
        "resolver", net::NodeKind::kResolver, {42, -88}, net::Ipv4Addr{});
    resolver_ = std::make_unique<RecursiveResolver>(
        "resolver", resolver_node, net::Ipv4Addr{9, 9, 9, 9}, &topo_,
        &registry_, hierarchy_->root_ip());
    registry_.add(resolver_.get());

    client_node_ = attach("client", net::NodeKind::kVantagePoint, {42, -87},
                          net::Ipv4Addr{7, 7, 7, 7});
  }

  net::NodeId attach(const std::string& host_name, net::NodeKind kind,
                     const net::GeoPoint& location, net::Ipv4Addr ip) {
    net::Node node;
    node.name = host_name;
    node.kind = kind;
    node.location = location;
    node.ip = ip;
    node.processing = net::LatencyModel::fixed(0.0);
    const net::NodeId id = topo_.add_node(node);
    topo_.add_link(id, hub_, net::LatencyModel::fixed(1.0));
    return id;
  }

  WireResponse ask_auth(AuthoritativeServer& server, const char* qname,
                        RRType type, net::Ipv4Addr source = {9, 9, 9, 9}) {
    const Message query = Message::query(77, name(qname), type);
    return server.serve_wire(encode(query), source, net::SimTime::zero(),
                             rng_);
  }

  net::Topology topo_;
  ServerRegistry registry_;
  std::unique_ptr<DnsHierarchy> hierarchy_;
  AuthoritativeServer* origin_ = nullptr;
  AuthoritativeServer* cdn_ = nullptr;
  std::unique_ptr<RecursiveResolver> resolver_;
  net::NodeId hub_ = 0;
  net::NodeId client_node_ = 0;
  net::Rng rng_{12345};
  int dynamic_calls_ = 0;
  net::Ipv4Addr last_seen_resolver_;
};

// --- authoritative behaviour -------------------------------------------

TEST_F(DnsWorldTest, AuthAnswersStaticA) {
  const auto served = ask_auth(*origin_, "static.example.com", RRType::kA);
  const auto response = decode(served.wire);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->header.rcode, Rcode::kNoError);
  EXPECT_TRUE(response->header.aa);
  ASSERT_EQ(response->answers.size(), 1u);
  EXPECT_EQ(response->answer_addresses()[0], net::Ipv4Addr(50, 1, 1, 1));
}

TEST_F(DnsWorldTest, AuthNxdomainCarriesSoa) {
  const auto response =
      decode(ask_auth(*origin_, "missing.example.com", RRType::kA).wire);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->header.rcode, Rcode::kNxDomain);
  ASSERT_EQ(response->authorities.size(), 1u);
  EXPECT_EQ(response->authorities[0].type(), RRType::kSOA);
}

TEST_F(DnsWorldTest, AuthNodataKeepsNoError) {
  // static.example.com exists (A, TXT) but has no CNAME.
  const auto response =
      decode(ask_auth(*origin_, "static.example.com", RRType::kCNAME).wire);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->header.rcode, Rcode::kNoError);
  EXPECT_TRUE(response->answers.empty());
  ASSERT_EQ(response->authorities.size(), 1u);  // SOA for negative caching
}

TEST_F(DnsWorldTest, AuthOutOfZoneCnameReturnsLinkOnly) {
  const auto response =
      decode(ask_auth(*origin_, "www.example.com", RRType::kA).wire);
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->answers.size(), 1u);
  EXPECT_EQ(response->answers[0].type(), RRType::kCNAME);
}

TEST_F(DnsWorldTest, AuthInZoneCnameChased) {
  origin_->add_record(ResourceRecord::cname(name("alias.example.com"),
                                            name("static.example.com"), 60));
  const auto response =
      decode(ask_auth(*origin_, "alias.example.com", RRType::kA).wire);
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->answers.size(), 2u);
  EXPECT_EQ(response->answers[0].type(), RRType::kCNAME);
  EXPECT_EQ(response->answers[1].type(), RRType::kA);
}

TEST_F(DnsWorldTest, AuthRefusesForeignZones) {
  const auto response =
      decode(ask_auth(*origin_, "www.elsewhere.org", RRType::kA).wire);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->header.rcode, Rcode::kRefused);
}

TEST_F(DnsWorldTest, AuthDynamicHandlerSeesResolverIp) {
  const auto served = ask_auth(*cdn_, "edge.cdnzone.net", RRType::kA,
                               net::Ipv4Addr{9, 9, 9, 9});
  const auto response = decode(served.wire);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(dynamic_calls_, 1);
  EXPECT_EQ(last_seen_resolver_, net::Ipv4Addr(9, 9, 9, 9));
  ASSERT_EQ(response->answers.size(), 1u);
  EXPECT_EQ(response->answers[0].ttl, 30u);  // default TTL filled in
}

TEST_F(DnsWorldTest, AuthMalformedQueryGetsFormErr) {
  const std::vector<uint8_t> garbage{1, 2, 3};
  const auto served = origin_->serve_wire(garbage, net::Ipv4Addr{1, 1, 1, 1},
                                          net::SimTime::zero(), rng_);
  const auto response = decode(served.wire);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->header.rcode, Rcode::kFormErr);
}

TEST_F(DnsWorldTest, RootDelegatesToTld) {
  auto& root = hierarchy_->root();
  const auto response = decode(
      root.serve_wire(encode(Message::query(1, name("static.example.com"),
                                            RRType::kA)),
                      net::Ipv4Addr{9, 9, 9, 9}, net::SimTime::zero(), rng_)
          .wire);
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->answers.empty());
  ASSERT_FALSE(response->authorities.empty());
  EXPECT_EQ(response->authorities[0].type(), RRType::kNS);
  ASSERT_FALSE(response->additionals.empty());  // glue
  EXPECT_FALSE(response->header.aa);
}

// --- recursive resolution ------------------------------------------------

TEST_F(DnsWorldTest, ColdResolutionWalksHierarchy) {
  const auto result = resolver_->resolve(name("static.example.com"), RRType::kA,
                                         net::SimTime::zero(), rng_);
  EXPECT_EQ(result.rcode, Rcode::kNoError);
  ASSERT_FALSE(result.addresses().empty());
  EXPECT_EQ(result.addresses()[0], net::Ipv4Addr(50, 1, 1, 1));
  EXPECT_FALSE(result.from_cache);
  // root -> tld(com) -> example.com = 3 upstream queries.
  EXPECT_EQ(result.upstream_queries, 3);
  EXPECT_GT(result.upstream_ms, 0.0);
}

TEST_F(DnsWorldTest, WarmResolutionServedFromCache) {
  resolver_->resolve(name("static.example.com"), RRType::kA,
                     net::SimTime::zero(), rng_);
  const auto warm = resolver_->resolve(name("static.example.com"), RRType::kA,
                                       net::SimTime::from_seconds(10), rng_);
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(warm.upstream_queries, 0);
  EXPECT_DOUBLE_EQ(warm.upstream_ms, 0.0);
}

TEST_F(DnsWorldTest, CachedTldCutShortensSecondResolution) {
  resolver_->resolve(name("static.example.com"), RRType::kA,
                     net::SimTime::zero(), rng_);
  // Different name, same zone: NS for example.com is cached, so the
  // resolver goes straight to the zone ADNS.
  origin_->add_record(ResourceRecord::a(name("other.example.com"),
                                        net::Ipv4Addr{50, 1, 1, 2}, 600));
  const auto result = resolver_->resolve(name("other.example.com"), RRType::kA,
                                         net::SimTime::from_seconds(1), rng_);
  EXPECT_EQ(result.upstream_queries, 1);
}

TEST_F(DnsWorldTest, CrossZoneCnameChase) {
  const auto result = resolver_->resolve(name("www.example.com"), RRType::kA,
                                         net::SimTime::zero(), rng_);
  EXPECT_EQ(result.rcode, Rcode::kNoError);
  ASSERT_EQ(result.answers.size(), 2u);
  EXPECT_EQ(result.answers[0].type(), RRType::kCNAME);
  EXPECT_EQ(result.answers[1].type(), RRType::kA);
  EXPECT_EQ(result.addresses()[0], net::Ipv4Addr(60, 1, 2, 3));
}

TEST_F(DnsWorldTest, NxdomainIsNegativeCached) {
  const auto first = resolver_->resolve(name("missing.example.com"), RRType::kA,
                                        net::SimTime::zero(), rng_);
  EXPECT_EQ(first.rcode, Rcode::kNxDomain);
  const auto second = resolver_->resolve(name("missing.example.com"),
                                         RRType::kA,
                                         net::SimTime::from_seconds(5), rng_);
  EXPECT_EQ(second.rcode, Rcode::kNxDomain);
  EXPECT_EQ(second.upstream_queries, 0);
}

TEST_F(DnsWorldTest, ExpiredEntryRefetched) {
  resolver_->resolve(name("static.example.com"), RRType::kA,
                     net::SimTime::zero(), rng_);
  const auto later = resolver_->resolve(name("static.example.com"), RRType::kA,
                                        net::SimTime::from_seconds(601), rng_);
  EXPECT_FALSE(later.from_cache);
  EXPECT_GT(later.upstream_queries, 0);
}

TEST_F(DnsWorldTest, TtlZeroAnswersNeverCached) {
  // The CDN dynamic answer above has TTL 0 after the handler's explicit 0?
  // No — the handler returns TTL 0 records, which the server rewrites to
  // its dynamic TTL (30). Use the research-ADNS pattern instead: TTL 0 on
  // a zone whose dynamic TTL is also 0.
  cdn_->set_dynamic_handler(
      [](const Question& question, net::Ipv4Addr resolver_ip,
         const std::optional<EdnsClientSubnet>&, net::SimTime,
         net::Rng&) -> std::optional<std::vector<ResourceRecord>> {
        return std::vector<ResourceRecord>{
            ResourceRecord::a(question.name, resolver_ip, 0)};
      },
      /*dynamic_ttl_s=*/0);
  const auto first = resolver_->resolve(name("unique1.cdnzone.net"), RRType::kA,
                                        net::SimTime::zero(), rng_);
  EXPECT_FALSE(first.addresses().empty());
  const auto again = resolver_->resolve(name("unique1.cdnzone.net"), RRType::kA,
                                        net::SimTime::from_millis(1), rng_);
  EXPECT_FALSE(again.from_cache);  // TTL 0 was not cached
}

// An interarrival this small leaves ttl + I == ttl in double arithmetic,
// so the warm probability ttl / (ttl + I) is exactly 1.0.
constexpr double kAlwaysWarmInterarrivalS = 1e-30;

TEST_F(DnsWorldTest, WarmHitProbabilityServesMissAsHit) {
  resolver_->set_background_load(kAlwaysWarmInterarrivalS);
  const auto result = resolver_->resolve(name("static.example.com"), RRType::kA,
                                         net::SimTime::zero(), rng_);
  EXPECT_TRUE(result.from_cache);
  EXPECT_DOUBLE_EQ(result.upstream_ms, 0.0);
  EXPECT_FALSE(result.addresses().empty());
}

TEST_F(DnsWorldTest, WarmEligibilityExcludesNames) {
  const DnsName research = name("curtain-study.net");
  resolver_->set_background_load(kAlwaysWarmInterarrivalS,
                                 [research](const DnsName& n) {
    return !n.is_within(research);
  });
  const auto excluded = resolver_->resolve(name("r1.adns.curtain-study.net"),
                                           RRType::kA, net::SimTime::zero(),
                                           rng_);
  EXPECT_FALSE(excluded.from_cache);  // warming skipped, real iteration ran
}

TEST_F(DnsWorldTest, ResolverHandleQueryWire) {
  const Message query =
      Message::query(321, name("static.example.com"), RRType::kA);
  const auto served = resolver_->serve_wire(
      encode(query), net::Ipv4Addr{7, 7, 7, 7}, net::SimTime::zero(), rng_);
  EXPECT_GT(served.server_side_ms, 0.0);
  const auto response = decode(served.wire);
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->header.ra);
  EXPECT_EQ(response->header.id, 321);
  EXPECT_FALSE(response->answer_addresses().empty());
}

TEST_F(DnsWorldTest, UnknownTldServfails) {
  const auto result = resolver_->resolve(name("host.nosuchtld"), RRType::kA,
                                         net::SimTime::zero(), rng_);
  EXPECT_EQ(result.rcode, Rcode::kNxDomain);  // the root answers NXDOMAIN
}

// --- stub ----------------------------------------------------------------

TEST_F(DnsWorldTest, StubEndToEnd) {
  StubResolver stub(client_node_, net::Ipv4Addr{7, 7, 7, 7}, topo_,
                    registry_);
  const auto result =
      stub.query(net::Ipv4Addr{9, 9, 9, 9}, name("static.example.com"),
                 RRType::kA, net::SimTime::zero(), rng_, /*extra=*/25.0);
  EXPECT_TRUE(result.responded);
  EXPECT_EQ(result.rcode, Rcode::kNoError);
  EXPECT_FALSE(result.addresses().empty());
  // extra latency + client-resolver RTT (4 ms) + upstream work.
  EXPECT_GT(result.total_ms, 29.0);
}

TEST_F(DnsWorldTest, StubUnknownResolverFails) {
  StubResolver stub(client_node_, net::Ipv4Addr{7, 7, 7, 7}, topo_,
                    registry_);
  const auto result =
      stub.query(net::Ipv4Addr{203, 0, 113, 1}, name("static.example.com"),
                 RRType::kA, net::SimTime::zero(), rng_);
  EXPECT_FALSE(result.responded);
}

}  // namespace
}  // namespace curtain::dns
