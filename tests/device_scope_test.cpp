// Device-scoped state (net/device_scope.h): what a device's timeline
// leaves in the world's resolvers, client-facing instances and NAT
// cursors dies with its net::DeviceScope, and reading device state with
// no scope bound aborts.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cellular/carrier.h"
#include "cellular/carrier_profile.h"
#include "dns/resolver.h"
#include "net/device_scope.h"
#include "net/ip_allocator.h"
#include "obs/metrics.h"

namespace curtain {
namespace {

using dns::DnsName;
using dns::Message;
using dns::RRType;

DnsName name(const char* s) { return *DnsName::parse(s); }

/// A root that answers every A query itself and records the transaction
/// id of each query it sees.
class RecordingRoot : public dns::DnsServer {
 public:
  RecordingRoot(net::NodeId node, net::Ipv4Addr ip) : node_(node), ip_(ip) {}

  dns::ServedResponse serve(const Message& query, net::Ipv4Addr, net::SimTime,
                            net::Rng&) override {
    ids.push_back(query.header.id);
    dns::ServedResponse served{query.make_response(), 0.0};
    served.message.header.aa = true;
    served.message.answers.push_back(dns::ResourceRecord::a(
        query.question->name, net::Ipv4Addr{50, 1, 1, 1}, 3600));
    return served;
  }
  net::NodeId node() const override { return node_; }
  net::Ipv4Addr ip() const override { return ip_; }

  std::vector<uint16_t> ids;

 private:
  net::NodeId node_;
  net::Ipv4Addr ip_;
};

class DeviceScopeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net::Node node;
    node.processing = net::LatencyModel::fixed(0.0);
    hub_ = topology_.add_node(node);
    root_ = std::make_unique<RecordingRoot>(attach(kRootIp), kRootIp);
    registry_.add(root_.get());
    resolver_ = std::make_unique<dns::RecursiveResolver>(
        "resolver", attach(net::Ipv4Addr{9, 9, 9, 9}),
        net::Ipv4Addr{9, 9, 9, 9}, &topology_, &registry_, kRootIp);
  }

  net::NodeId attach(net::Ipv4Addr ip) {
    net::Node node;
    node.ip = ip;
    node.processing = net::LatencyModel::fixed(0.0);
    const net::NodeId id = topology_.add_node(node);
    topology_.add_link(id, hub_, net::LatencyModel::fixed(1.0));
    return id;
  }

  /// AT&T's deployment on this topology, its externals iterating from
  /// the recording root.
  cellular::CellularNetwork& build_carrier() {
    cellular::CarrierBuildContext context;
    context.topology = &topology_;
    context.registry = &registry_;
    context.allocator = &allocator_;
    context.nearest_backbone = [this](const net::GeoPoint&) { return hub_; };
    context.root_dns_ip = kRootIp;
    context.build_seed = 11;
    carrier_ = std::make_unique<cellular::CellularNetwork>(
        cellular::study_carriers().front(), /*owner_tag=*/1, context);
    return *carrier_;
  }

  dns::ResolutionResult resolve(const char* qname) {
    return resolver_->resolve(name(qname), RRType::kA, net::SimTime::zero(),
                              rng_);
  }

  static constexpr net::Ipv4Addr kRootIp{198, 41, 0, 4};
  net::Topology topology_;
  dns::ServerRegistry registry_;
  net::NodeId hub_ = 0;
  std::unique_ptr<RecordingRoot> root_;
  std::unique_ptr<dns::RecursiveResolver> resolver_;
  net::IpAllocator allocator_{net::Prefix(net::Ipv4Addr{20, 0, 0, 0}, 6)};
  std::unique_ptr<cellular::CellularNetwork> carrier_;
  net::Rng rng_{2014};
};

TEST_F(DeviceScopeTest, SecondDeviceSeesColdResolver) {
  {
    net::DeviceScope device(1);
    EXPECT_FALSE(resolve("www.example.com").from_cache);
    EXPECT_TRUE(resolve("www.example.com").from_cache);
    EXPECT_EQ(root_->ids, (std::vector<uint16_t>{1}));
  }
  root_->ids.clear();
  {
    // Same thread, same resolver, next device: nothing of device 1's
    // cache or query-id counter is left.
    net::DeviceScope device(2);
    EXPECT_FALSE(resolve("www.example.com").from_cache);
    EXPECT_FALSE(resolve("other.example.com").from_cache);
    EXPECT_EQ(root_->ids, (std::vector<uint16_t>{1, 2}));
  }
}

TEST_F(DeviceScopeTest, SecondDeviceSeesColdClientFacingInstance) {
  cellular::CellularNetwork& carrier = build_carrier();
  cellular::ClientFacingResolver& client = *carrier.client_resolvers().front();
  obs::Counter& hits =
      obs::metrics().counter("curtain_cell_client_cache_hits_total");

  const net::SimTime now = net::SimTime::from_hours(1.0);
  constexpr int kNames = 12;
  auto ask = [&](int i, net::Ipv4Addr source) {
    const std::string qname = "n" + std::to_string(i) + ".example.com";
    client.serve(Message::query(7, name(qname.c_str()), RRType::kA), source,
                 now, rng_);
  };

  net::Ipv4Addr source;
  {
    net::DeviceScope device(1);
    source = carrier.assign_ip(0);
    const uint64_t before = hits.value();
    for (int i = 0; i < kNames; ++i) ask(i, source);
    for (int i = 0; i < kNames; ++i) ask(i, source);
    // Most repeats land on a warm machine of the instance.
    EXPECT_GT(hits.value() - before, uint64_t{kNames / 2});
  }
  root_->ids.clear();
  {
    // Same thread, same instance, same source address, next device.
    net::DeviceScope device(2);
    const uint64_t before = hits.value();
    for (int i = 0; i < kNames; ++i) ask(i, source);
    EXPECT_EQ(hits.value(), before) << "device 2 hit device 1's cache";
    ASSERT_FALSE(root_->ids.empty());
    EXPECT_EQ(root_->ids.front(), 1);
  }
}

TEST_F(DeviceScopeTest, NatCursorRestartsWithEachScope) {
  cellular::CellularNetwork& carrier = build_carrier();
  auto first_two = [&] {
    return std::vector<net::Ipv4Addr>{carrier.assign_ip(0),
                                      carrier.assign_ip(0)};
  };
  std::vector<net::Ipv4Addr> first;
  {
    net::DeviceScope device(5);
    first = first_two();
  }
  EXPECT_NE(first[0], first[1]);  // the cursor walks within a timeline
  {
    // A device's address sequence is a function of its ordinal alone.
    net::DeviceScope device(5);
    EXPECT_EQ(first_two(), first);
  }
}

TEST_F(DeviceScopeTest, ResolvingWithNoScopeBoundAborts) {
  // Device state exists only inside a scope: there is no copy for code
  // with no device bound to fall back on.
  EXPECT_DEATH(resolve("www.example.com"),
               "device state read with no DeviceScope bound");
}

}  // namespace
}  // namespace curtain
