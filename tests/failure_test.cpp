// Failure injection: lossy links, unresponsive servers, corrupted
// packets, exhausted referral chains. The suite checks that every failure
// degrades to a clean, observable outcome — never a crash or a bogus
// success.
#include <gtest/gtest.h>

#include <initializer_list>

#include "dns/hierarchy.h"
#include "dns/resolver.h"
#include "dns/stub.h"
#include "measure/probes.h"
#include "net/device_state.h"

namespace curtain {
namespace {

using namespace dns;

DnsName name(const char* s) { return *DnsName::parse(s); }

// Tests freeze the topology once they have attached every host they need.
class FailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net::Node hub;
    hub.name = "hub";
    hub.processing = net::LatencyModel::fixed(0.0);
    hub_ = topo_.add_node(hub);
    hierarchy_ = std::make_unique<DnsHierarchy>(
        [this](const std::string& host_name, net::NodeKind kind,
               const net::GeoPoint& location, net::Ipv4Addr ip) {
          return attach(host_name, kind, location, ip, 0.0);
        },
        &registry_);
    zone_ = &hierarchy_->create_zone(name("example.com"), {40, -74},
                                     net::Ipv4Addr{50, 0, 0, 1});
    zone_->add_record(ResourceRecord::a(name("www.example.com"),
                                        net::Ipv4Addr{50, 1, 1, 1}, 60));
    const net::NodeId rnode = attach("resolver", net::NodeKind::kResolver,
                                     {41, -87}, net::Ipv4Addr{}, 0.0);
    resolver_ = std::make_unique<RecursiveResolver>(
        "resolver", rnode, net::Ipv4Addr{9, 9, 9, 9}, &topo_, &registry_,
        hierarchy_->root_ip());
    registry_.add(resolver_.get());
    client_ = attach("client", net::NodeKind::kVantagePoint, {42, -87},
                     net::Ipv4Addr{7, 7, 7, 7}, 0.0);
  }

  net::NodeId attach(const std::string& host_name, net::NodeKind kind,
                     const net::GeoPoint& location, net::Ipv4Addr ip,
                     double loss) {
    net::Node node;
    node.name = host_name;
    node.kind = kind;
    node.location = location;
    node.ip = ip;
    node.processing = net::LatencyModel::fixed(0.0);
    const net::NodeId id = topo_.add_node(node);
    topo_.add_link(id, hub_, net::LatencyModel::fixed(1.0), loss);
    return id;
  }

  net::Topology topo_;
  ServerRegistry registry_;
  std::unique_ptr<DnsHierarchy> hierarchy_;
  AuthoritativeServer* zone_ = nullptr;
  std::unique_ptr<RecursiveResolver> resolver_;
  net::NodeId hub_ = 0;
  net::NodeId client_ = 0;
  net::Rng rng_{777};
  // The one device whose resolver caches and query ids the tests use.
  net::DeviceState device_{1};
};

TEST_F(FailureTest, GluelessDelegationDegradesToError) {
  topo_.freeze();
  // Delegate a child zone whose nameserver has no registered server.
  zone_->delegate(name("broken.example.com"), name("ns.broken.example.com"),
                  net::Ipv4Addr{203, 0, 113, 99});
  const auto result = resolver_->resolve(name("www.broken.example.com"),
                                         RRType::kA, net::SimTime::zero(),
                                         rng_, device_);
  EXPECT_EQ(result.rcode, Rcode::kServFail);
  EXPECT_TRUE(result.addresses().empty());
  // The attempt cost real time (timeout), mirroring a client's experience.
  EXPECT_GE(result.upstream_ms, 1000.0);
}

TEST_F(FailureTest, SelfReferentialDelegationTerminates) {
  topo_.freeze();
  // A zone that "delegates" to its own server would loop forever without
  // the referral guard.
  zone_->delegate(name("loop.example.com"), name("ns1.example.com"),
                  zone_->ip());
  const auto result = resolver_->resolve(name("www.loop.example.com"),
                                         RRType::kA, net::SimTime::zero(),
                                         rng_, device_);
  EXPECT_NE(result.rcode, Rcode::kNoError);
}

TEST_F(FailureTest, CnameLoopTerminates) {
  topo_.freeze();
  zone_->add_record(ResourceRecord::cname(name("a.example.com"),
                                          name("b.example.com"), 60));
  zone_->add_record(ResourceRecord::cname(name("b.example.com"),
                                          name("a.example.com"), 60));
  const auto result = resolver_->resolve(name("a.example.com"), RRType::kA,
                                         net::SimTime::zero(), rng_, device_);
  EXPECT_EQ(result.rcode, Rcode::kServFail);
}

TEST_F(FailureTest, StubSurvivesGarbageResponder) {
  // Garbage bytes in must give a decodable FORMERR out, from every server
  // kind, without touching the RNG (the packet never reaches serve()).
  const std::vector<uint8_t> garbage{0xde, 0xad, 0xbe};
  ASSERT_FALSE(decode(garbage).has_value());
  std::vector<uint8_t> formerr_wire;
  for (DnsServer* server :
       std::initializer_list<DnsServer*>{resolver_.get(), zone_}) {
    net::Rng before = rng_;
    const WireResponse served =
        server->serve_wire(garbage, net::Ipv4Addr{7, 7, 7, 7},
                           net::SimTime::zero(), rng_, device_);
    EXPECT_EQ(rng_.next_u64(), before.next_u64());
    const auto response = decode(served.wire);
    ASSERT_TRUE(response.has_value());
    EXPECT_TRUE(response->header.qr);
    EXPECT_EQ(response->header.id, 0);
    EXPECT_EQ(response->header.rcode, Rcode::kFormErr);
    formerr_wire = served.wire;
  }

  // A responder whose reply is garbage must read as "no response". On the
  // typed path the closest such reply is what a server's wire boundary
  // makes of an undecodable packet: a FORMERR with no question and id 0,
  // which does not echo the stub's first transaction id (1).
  class GarbageServer : public DnsServer {
   public:
    GarbageServer(net::NodeId node, net::Ipv4Addr ip, Message reply)
        : node_(node), ip_(ip), reply_(std::move(reply)) {}
    ServedResponse serve(const Message&, net::Ipv4Addr, net::SimTime,
                         net::Rng&, net::DeviceState&) override {
      return ServedResponse{reply_, 0.0};
    }
    net::NodeId node() const override { return node_; }
    net::Ipv4Addr ip() const override { return ip_; }

   private:
    net::NodeId node_;
    net::Ipv4Addr ip_;
    Message reply_;
  };
  const net::NodeId gnode = attach("garbage", net::NodeKind::kResolver,
                                   {40, -80}, net::Ipv4Addr{6, 6, 6, 6}, 0.0);
  topo_.freeze();
  GarbageServer garbage_server(gnode, net::Ipv4Addr{6, 6, 6, 6},
                               *decode(formerr_wire));
  registry_.add(&garbage_server);

  StubResolver stub(client_, net::Ipv4Addr{7, 7, 7, 7}, topo_, registry_);
  const auto result = stub.query(net::Ipv4Addr{6, 6, 6, 6},
                                 name("www.example.com"), RRType::kA,
                                 net::SimTime::zero(), rng_, device_);
  EXPECT_FALSE(result.responded);
}

TEST_F(FailureTest, MismatchedQueryIdRejected) {
  // A server echoing the wrong transaction id must be ignored
  // (cache-poisoning hygiene), by the stub and by the recursive resolver.
  class WrongIdServer : public DnsServer {
   public:
    WrongIdServer(net::NodeId node, net::Ipv4Addr ip) : node_(node), ip_(ip) {}
    ServedResponse serve(const Message& query, net::Ipv4Addr, net::SimTime,
                         net::Rng&, net::DeviceState&) override {
      ServedResponse served{query.make_response(), 0.0};
      served.message.header.id = static_cast<uint16_t>(query.header.id + 1);
      served.message.answers.push_back(ResourceRecord::a(
          query.question->name, net::Ipv4Addr{66, 66, 66, 66}, 60));
      return served;
    }
    net::NodeId node() const override { return node_; }
    net::Ipv4Addr ip() const override { return ip_; }

   private:
    net::NodeId node_;
    net::Ipv4Addr ip_;
  };
  const net::NodeId wnode = attach("wrongid", net::NodeKind::kResolver,
                                   {40, -81}, net::Ipv4Addr{6, 6, 6, 7}, 0.0);
  topo_.freeze();
  WrongIdServer wrong(wnode, net::Ipv4Addr{6, 6, 6, 7});
  registry_.add(&wrong);

  StubResolver stub(client_, net::Ipv4Addr{7, 7, 7, 7}, topo_, registry_);
  const auto result =
      stub.query(net::Ipv4Addr{6, 6, 6, 7}, name("www.example.com"),
                 RRType::kA, net::SimTime::zero(), rng_, device_);
  EXPECT_FALSE(result.responded);
  EXPECT_TRUE(result.addresses().empty());

  // A zone delegated to the same server: the resolver drops the poisoned
  // referral answer and surfaces SERVFAIL.
  zone_->delegate(name("poison.example.com"), name("ns.poison.example.com"),
                  net::Ipv4Addr{6, 6, 6, 7});
  const auto resolved = resolver_->resolve(name("www.poison.example.com"),
                                           RRType::kA, net::SimTime::zero(),
                                           rng_, device_);
  EXPECT_EQ(resolved.rcode, Rcode::kServFail);
  EXPECT_TRUE(resolved.addresses().empty());
}

TEST_F(FailureTest, LossyLinkStillResolvesTransport) {
  // Transport (solicited two-way) abstracts retransmission; probes don't.
  const net::NodeId lossy = attach("lossy-host", net::NodeKind::kReplica,
                                   {39, -75}, net::Ipv4Addr{8, 1, 1, 1},
                                   /*loss=*/0.9);
  topo_.freeze();
  int ping_ok = 0;
  for (int i = 0; i < 200; ++i) {
    if (topo_.ping(client_, lossy, rng_).responded) ++ping_ok;
  }
  // Two traversals at 90% loss each: ~1% success.
  EXPECT_LT(ping_ok, 20);
  EXPECT_TRUE(topo_.transport_rtt_ms(client_, lossy, rng_).has_value());
}

TEST_F(FailureTest, ProbeEngineUnknownTarget) {
  topo_.freeze();
  measure::ProbeEngine probes(measure::WorldView{topo_, registry_});
  const measure::ProbeOrigin origin{client_, net::Ipv4Addr{7, 7, 7, 7}, 10.0};
  const auto ping =
      probes.ping(origin, net::Ipv4Addr{203, 0, 113, 200}, net::SimTime::zero(),
                  rng_);
  EXPECT_FALSE(ping.responded);
  const auto http = probes.http_get(origin, net::Ipv4Addr{203, 0, 113, 200},
                                    net::SimTime::zero(), rng_);
  EXPECT_FALSE(http.responded);
  const auto trace = probes.traceroute(origin, net::Ipv4Addr{203, 0, 113, 200},
                                       net::SimTime::zero(), rng_);
  EXPECT_FALSE(trace.reached);
  EXPECT_TRUE(trace.hop_names.empty());
}

TEST_F(FailureTest, ProbeEngineAddsAccessLatency) {
  topo_.freeze();
  measure::ProbeEngine probes(measure::WorldView{topo_, registry_});
  const measure::ProbeOrigin wired{client_, net::Ipv4Addr{7, 7, 7, 7}, 0.0};
  const measure::ProbeOrigin radio{client_, net::Ipv4Addr{7, 7, 7, 7}, 50.0};
  const auto a = probes.ping(wired, net::Ipv4Addr{50, 0, 0, 1},
                             net::SimTime::zero(), rng_);
  const auto b = probes.ping(radio, net::Ipv4Addr{50, 0, 0, 1},
                             net::SimTime::zero(), rng_);
  ASSERT_TRUE(a.responded && b.responded);
  EXPECT_NEAR(b.rtt_ms - a.rtt_ms, 50.0, 1.0);
}

TEST_F(FailureTest, HttpTtfbCountsTwoRoundTrips) {
  topo_.freeze();
  measure::ProbeEngine probes(measure::WorldView{topo_, registry_});
  const measure::ProbeOrigin radio{client_, net::Ipv4Addr{7, 7, 7, 7}, 25.0};
  const auto http = probes.http_get(radio, net::Ipv4Addr{50, 0, 0, 1},
                                    net::SimTime::zero(), rng_);
  ASSERT_TRUE(http.responded);
  // 2 radio RTTs (50) + 2 wired RTTs of 4 ms (client-hub-server, 1 ms
  // fixed per link, both ways).
  EXPECT_NEAR(http.ttfb_ms, 58.0, 1.0);
}

}  // namespace
}  // namespace curtain
