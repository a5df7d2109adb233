// Typed-vs-wire equivalence: DnsServer::serve_wire() must answer exactly
// what DnsServer::serve() answers.
//
// The campaign exchanges typed messages and never runs the codec, so this
// suite is what keeps the wire format honest. Each test builds two
// identical worlds and replays the same query sequence against both: one
// through serve(), one through serve_wire(encode(query)). The decoded wire
// answer must equal the typed answer, the server-side latency must match,
// and both RNGs must end in the same state (the codec draws nothing). The
// sequence covers every server kind and every message shape the servers
// emit: referrals with glue, in-zone and cross-zone CNAME chains, ECS
// queries, NXDOMAIN and NODATA with a SOA, REFUSED, and cache hits. Every
// packet seen is then round-tripped and run through the truncation and
// bit-flip sweeps of wire_damage.h.
//
// Resolver caches, query ids and NAT cursors live in a net::DeviceState,
// and the twins' owners share slot numbers, so one state cannot hold both
// worlds' state: each twin has a DeviceState of its own, and both run on
// the test thread.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cdn/domains.h"
#include "core/world.h"
#include "dns/hierarchy.h"
#include "dns/resolver.h"
#include "net/device_state.h"
#include "wire_damage.h"

namespace curtain::dns {
namespace {

DnsName name(const std::string& s) { return *DnsName::parse(s); }

// A small internet: root and TLDs, an origin zone delegating a child zone,
// a CDN zone whose dynamic handler reads ECS and draws from the RNG, one
// plain and one ECS-enabled (/16) recursive resolver. Links jitter, so
// server-side latency depends on the RNG stream.
class MiniWorld {
 public:
  MiniWorld() {
    net::Node hub;
    hub.name = "hub";
    hub_ = topo_.add_node(hub);
    hierarchy_ = std::make_unique<DnsHierarchy>(
        [this](const std::string& host, net::NodeKind, const net::GeoPoint&,
               net::Ipv4Addr ip) { return attach(host, ip); },
        &registry_);

    origin_ = &hierarchy_->create_zone(name("example.com"), {40, -74},
                                       net::Ipv4Addr{50, 0, 0, 1});
    origin_->add_record(ResourceRecord::a(name("static.example.com"),
                                          net::Ipv4Addr{50, 1, 1, 1}, 600));
    origin_->add_record(ResourceRecord::cname(name("alias.example.com"),
                                              name("static.example.com"), 60));
    origin_->add_record(ResourceRecord::cname(name("www.example.com"),
                                              name("edge.cdnzone.net"), 300));
    child_ = &hierarchy_->create_zone(name("child.example.com"), {39, -77},
                                      net::Ipv4Addr{50, 0, 0, 3});
    origin_->delegate(name("child.example.com"), name("ns1.child.example.com"),
                      child_->ip());
    child_->add_record(ResourceRecord::a(name("host.child.example.com"),
                                         net::Ipv4Addr{50, 3, 3, 3}, 120));

    cdn_ = &hierarchy_->create_zone(name("cdnzone.net"), {41, -87},
                                    net::Ipv4Addr{50, 0, 0, 2});
    cdn_->set_dynamic_handler(
        [this](const Question& question, net::Ipv4Addr resolver_ip,
               const std::optional<EdnsClientSubnet>& ecs, net::SimTime,
               net::Rng& rng) -> std::optional<std::vector<ResourceRecord>> {
          if (question.type != RRType::kA) return std::nullopt;
          ecs_seen_.push_back(ecs);
          const uint32_t base =
              ecs ? ecs->address.value() : resolver_ip.slash24().value();
          std::vector<ResourceRecord> answers;
          const auto count = 1 + rng.uniform_u64(0, 2);
          for (uint64_t i = 0; i < count; ++i) {
            answers.push_back(ResourceRecord::a(
                question.name, net::Ipv4Addr(base | static_cast<uint32_t>(i + 1)),
                0));
          }
          return answers;
        },
        /*dynamic_ttl_s=*/20);

    resolver_ = std::make_unique<RecursiveResolver>(
        "resolver", attach("resolver", {}), net::Ipv4Addr{9, 9, 9, 9}, &topo_,
        &registry_, hierarchy_->root_ip());
    registry_.add(resolver_.get());
    ecs_resolver_ = std::make_unique<RecursiveResolver>(
        "ecs-resolver", attach("ecs-resolver", {}), net::Ipv4Addr{9, 9, 9, 10},
        &topo_, &registry_, hierarchy_->root_ip());
    ecs_resolver_->enable_ecs(16);
    registry_.add(ecs_resolver_.get());
    topo_.freeze();
  }
  MiniWorld(const MiniWorld&) = delete;
  MiniWorld& operator=(const MiniWorld&) = delete;

  AuthoritativeServer& root() { return hierarchy_->root(); }
  AuthoritativeServer& origin() { return *origin_; }
  AuthoritativeServer& cdn() { return *cdn_; }
  RecursiveResolver& resolver() { return *resolver_; }
  RecursiveResolver& ecs_resolver() { return *ecs_resolver_; }
  const std::vector<std::optional<EdnsClientSubnet>>& ecs_seen() const {
    return ecs_seen_;
  }

 private:
  net::NodeId attach(const std::string& host, net::Ipv4Addr ip) {
    net::Node node;
    node.name = host;
    node.ip = ip;
    node.processing = net::LatencyModel::jittered(0.3);
    const net::NodeId id = topo_.add_node(node);
    topo_.add_link(id, hub_, net::LatencyModel::jittered(1.0, 0.4));
    return id;
  }

  net::Topology topo_;
  ServerRegistry registry_;
  net::NodeId hub_ = 0;
  std::unique_ptr<DnsHierarchy> hierarchy_;
  AuthoritativeServer* origin_ = nullptr;
  AuthoritativeServer* child_ = nullptr;
  AuthoritativeServer* cdn_ = nullptr;
  std::unique_ptr<RecursiveResolver> resolver_;
  std::unique_ptr<RecursiveResolver> ecs_resolver_;
  std::vector<std::optional<EdnsClientSubnet>> ecs_seen_;
};

/// Orders packets by length, then byte by byte. (std::less on two byte
/// vectors inlines a memcmp whose length GCC 12 at -O3 cannot bound, and
/// -Wstringop-overread fires.)
struct ShorterThenBytes {
  bool operator()(const std::vector<uint8_t>& a,
                  const std::vector<uint8_t>& b) const {
    if (a.size() != b.size()) return a.size() < b.size();
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[i]) return a[i] < b[i];
    }
    return false;
  }
};

/// Runs queries through serve() on one world and serve_wire() on its
/// twin, asserting identical outcomes, and keeps every packet for the
/// codec sweeps. Each world has its own RNG and its own device state.
class Exchanger {
 public:
  explicit Exchanger(uint64_t seed) : typed_rng_(seed), wire_rng_(seed) {}

  /// The device state each twin's queries run against.
  net::DeviceState& typed_device() { return typed_device_; }
  net::DeviceState& wire_device() { return wire_device_; }

  /// Returns the typed answer so callers can assert the case's shape.
  Message exchange(DnsServer& typed, DnsServer& wire, const Message& query,
                   net::Ipv4Addr source, net::SimTime now,
                   const std::string& label) {
    SCOPED_TRACE(label);
    const ServedResponse served =
        typed.serve(query, source, now, typed_rng_, typed_device_);
    const std::vector<uint8_t> query_wire = encode(query);
    const WireResponse wired =
        wire.serve_wire(query_wire, source, now, wire_rng_, wire_device_);
    const auto decoded = decode(wired.wire);
    EXPECT_TRUE(decoded.has_value());
    if (decoded) {
      EXPECT_EQ(*decoded, served.message);
    }
    EXPECT_EQ(wired.server_side_ms, served.server_side_ms);
    net::Rng typed_next = typed_rng_;
    net::Rng wire_next = wire_rng_;
    EXPECT_EQ(typed_next.next_u64(), wire_next.next_u64()) << "RNG streams diverged";
    corpus_.insert(query_wire);
    corpus_.insert(wired.wire);
    return served.message;
  }

  const std::set<std::vector<uint8_t>, ShorterThenBytes>& corpus() const {
    return corpus_;
  }

 private:
  net::Rng typed_rng_;
  net::Rng wire_rng_;
  net::DeviceState typed_device_{1};
  net::DeviceState wire_device_{1};
  std::set<std::vector<uint8_t>, ShorterThenBytes> corpus_;
};

/// Round-trips and damages every packet an Exchanger saw.
void expect_corpus_survives(
    const std::set<std::vector<uint8_t>, ShorterThenBytes>& corpus) {
  for (const auto& wire : corpus) {
    const auto decoded = decode(wire);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(encode(*decoded), wire);
    wiretest::expect_truncations_rejected(wire);
    wiretest::expect_bit_flips_survived(wire);
  }
}

bool has_glued_referral(const Message& m) {
  for (const auto& ns : m.authorities) {
    const auto* rdata = std::get_if<NsRecord>(&ns.rdata);
    if (rdata == nullptr) continue;
    for (const auto& glue : m.additionals) {
      if (glue.name == rdata->nameserver && glue.type() == RRType::kA) return true;
    }
  }
  return false;
}

size_t count_type(const Section& section, RRType type) {
  size_t n = 0;
  for (const auto& rr : section) n += rr.type() == type ? 1u : 0u;
  return n;
}

TEST(DnsWireEquivalence, MiniWorldEveryServerShape) {
  MiniWorld typed;
  MiniWorld wire;
  Exchanger ex(20141105);
  const net::Ipv4Addr resolver_ip{9, 9, 9, 9};
  const net::Ipv4Addr client{100, 64, 3, 77};
  uint16_t next_id = 100;
  const auto query = [&](const char* qname, RRType type) {
    return Message::query(next_id++, name(qname), type);
  };
  const auto at = [](double seconds) { return net::SimTime::from_seconds(seconds); };

  // --- authoritative servers --------------------------------------------
  Message m = ex.exchange(typed.root(), wire.root(),
                          query("static.example.com", RRType::kA), resolver_ip,
                          at(0), "root referral");
  EXPECT_TRUE(has_glued_referral(m));
  EXPECT_FALSE(m.header.aa);

  m = ex.exchange(typed.origin(), wire.origin(),
                  query("host.child.example.com", RRType::kA), resolver_ip,
                  at(0), "zone referral to child");
  EXPECT_TRUE(has_glued_referral(m));

  m = ex.exchange(typed.origin(), wire.origin(),
                  query("missing.example.com", RRType::kA), resolver_ip, at(0),
                  "nxdomain");
  EXPECT_EQ(m.header.rcode, Rcode::kNxDomain);
  EXPECT_EQ(count_type(m.authorities, RRType::kSOA), 1u);

  m = ex.exchange(typed.origin(), wire.origin(),
                  query("static.example.com", RRType::kCNAME), resolver_ip,
                  at(0), "nodata");
  EXPECT_EQ(m.header.rcode, Rcode::kNoError);
  EXPECT_EQ(count_type(m.authorities, RRType::kSOA), 1u);

  m = ex.exchange(typed.origin(), wire.origin(),
                  query("alias.example.com", RRType::kA), resolver_ip, at(0),
                  "in-zone cname chain");
  EXPECT_EQ(count_type(m.answers, RRType::kCNAME), 1u);
  EXPECT_EQ(count_type(m.answers, RRType::kA), 1u);

  m = ex.exchange(typed.origin(), wire.origin(),
                  query("www.example.com", RRType::kA), resolver_ip, at(0),
                  "cross-zone cname link");
  EXPECT_EQ(count_type(m.answers, RRType::kCNAME), 1u);

  m = ex.exchange(typed.origin(), wire.origin(),
                  query("www.elsewhere.org", RRType::kA), resolver_ip, at(0),
                  "refused");
  EXPECT_EQ(m.header.rcode, Rcode::kRefused);

  Message ecs_query = query("edge.cdnzone.net", RRType::kA);
  ecs_query.ecs = EdnsClientSubnet{client.slash24(), 24, 0};
  m = ex.exchange(typed.cdn(), wire.cdn(), ecs_query, resolver_ip, at(0),
                  "authority ecs query");
  EXPECT_FALSE(m.answers.empty());

  // --- recursive resolvers (each hop below is itself typed) -------------
  m = ex.exchange(typed.resolver(), wire.resolver(),
                  query("www.example.com", RRType::kA), client, at(1),
                  "recursive cross-zone cname chain");
  EXPECT_EQ(count_type(m.answers, RRType::kCNAME), 1u);
  EXPECT_GE(count_type(m.answers, RRType::kA), 1u);

  m = ex.exchange(typed.resolver(), wire.resolver(),
                  query("host.child.example.com", RRType::kA), client, at(2),
                  "recursive through child referral");
  EXPECT_EQ(count_type(m.answers, RRType::kA), 1u);

  m = ex.exchange(typed.resolver(), wire.resolver(),
                  query("missing.example.com", RRType::kA), client, at(3),
                  "recursive nxdomain");
  EXPECT_EQ(m.header.rcode, Rcode::kNxDomain);

  m = ex.exchange(typed.resolver(), wire.resolver(),
                  query("www.example.com", RRType::kA), client, at(4),
                  "recursive cache hit");
  EXPECT_FALSE(m.answers.empty());

  for (int i = 0; i < 3; ++i) {
    m = ex.exchange(typed.ecs_resolver(), wire.ecs_resolver(),
                    query("www.example.com", RRType::kA),
                    net::Ipv4Addr{100, 64, static_cast<uint8_t>(3 + 40 * i), 77},
                    at(5 + i), "recursive with ecs /16");
    EXPECT_FALSE(m.answers.empty());
  }

  // The CDN authority saw the same options on both paths, masked to the
  // resolver's /16 when the ECS resolver asked.
  EXPECT_EQ(typed.ecs_seen(), wire.ecs_seen());
  bool saw_slash16 = false;
  for (const auto& ecs : typed.ecs_seen()) {
    if (ecs && ecs->source_prefix_len == 16) {
      saw_slash16 = true;
      EXPECT_EQ(ecs->address.value() & 0xffffu, 0u);
    }
  }
  EXPECT_TRUE(saw_slash16);

  expect_corpus_survives(ex.corpus());
}

// The study's own servers, in two identical worlds: every carrier's
// client-facing and external resolvers, and both public DNS services
// (Google with ECS on).
TEST(DnsWireEquivalence, StudyWorldEveryServerKind) {
  const core::Scenario scenario = core::Scenario::paper_2014().with_google_ecs(true);
  core::World typed(scenario);
  core::World wire(scenario);
  Exchanger ex(20140301);
  uint16_t next_id = 1;
  const auto& domains = cdn::study_domains();
  ASSERT_EQ(typed.carriers().size(), wire.carriers().size());

  for (size_t c = 0; c < typed.carriers().size(); ++c) {
    auto& typed_carrier = typed.carrier(c);
    auto& wire_carrier = wire.carrier(c);
    const net::Ipv4Addr source =
        typed_carrier.assign_ip(0, ex.typed_device());
    ASSERT_EQ(wire_carrier.assign_ip(0, ex.wire_device()), source);
    const std::string label = typed_carrier.profile().name;

    std::vector<DnsName> names;
    for (size_t d = c % 3; d < domains.size(); d += 3) {
      names.push_back(name(domains[d].host));
    }
    names.push_back(*typed.research_apex().child("adns")->child(
        "equiv" + std::to_string(c)));

    for (int round = 0; round < 2; ++round) {
      const net::SimTime now = net::SimTime::from_seconds(60.0 * static_cast<double>(c) + round);
      for (const DnsName& qname : names) {
        const Message query = Message::query(next_id++, qname, RRType::kA);
        const Message m = ex.exchange(
            *typed_carrier.client_resolvers().front(),
            *wire_carrier.client_resolvers().front(), query, source, now,
            label + " client-facing " + qname.to_string());
        EXPECT_EQ(m.header.rcode, Rcode::kNoError);
        EXPECT_FALSE(m.answers.empty());
        ex.exchange(*typed_carrier.external_resolvers().front(),
                    *wire_carrier.external_resolvers().front(), query, source,
                    now, label + " external " + qname.to_string());
        ex.exchange(typed.google_dns(), wire.google_dns(), query, source, now,
                    label + " google " + qname.to_string());
        ex.exchange(typed.open_dns(), wire.open_dns(), query, source, now,
                    label + " opendns " + qname.to_string());
      }
    }
  }
  expect_corpus_survives(ex.corpus());
}

}  // namespace
}  // namespace curtain::dns
