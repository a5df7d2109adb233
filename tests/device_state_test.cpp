// Device state (net/device_state.h): what a device's timeline leaves in
// the world's resolvers, client-facing instances and NAT cursors lives in
// its net::DeviceState and dies with it (or with its reset for the next
// device); two devices' states never mix, however their calls interleave.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cellular/carrier.h"
#include "cellular/carrier_profile.h"
#include "dns/resolver.h"
#include "net/device_state.h"
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
                            net::Rng&, net::DeviceState&) override {
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

class DeviceStateTest : public ::testing::Test {
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
  /// the recording root. Completes the topology, so it freezes it.
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
    topology_.freeze();
    return *carrier_;
  }

  /// The first two addresses `device` draws from gateway 0 of the carrier.
  std::vector<net::Ipv4Addr> first_two_addresses(net::DeviceState& device) {
    return {carrier_->assign_ip(0, device), carrier_->assign_ip(0, device)};
  }

  dns::ResolutionResult resolve(const char* qname, net::DeviceState& device) {
    return resolver_->resolve(name(qname), RRType::kA, net::SimTime::zero(),
                              rng_, device);
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

TEST_F(DeviceStateTest, SecondDeviceSeesColdResolver) {
  topology_.freeze();
  net::DeviceState device(1);
  EXPECT_FALSE(resolve("www.example.com", device).from_cache);
  EXPECT_TRUE(resolve("www.example.com", device).from_cache);
  EXPECT_EQ(root_->ids, (std::vector<uint16_t>{1}));

  root_->ids.clear();
  // Same state object, same resolver, next device (as exec::Shard runs
  // them): nothing of device 1's cache or query-id counter is left.
  device.reset(2);
  EXPECT_EQ(device.ordinal(), 2);
  EXPECT_FALSE(resolve("www.example.com", device).from_cache);
  EXPECT_FALSE(resolve("other.example.com", device).from_cache);
  EXPECT_EQ(root_->ids, (std::vector<uint16_t>{1, 2}));
}

TEST_F(DeviceStateTest, SecondDeviceSeesColdClientFacingInstance) {
  cellular::CellularNetwork& carrier = build_carrier();
  cellular::ClientFacingResolver& client = *carrier.client_resolvers().front();
  obs::Counter& hits =
      obs::metrics().counter("curtain_cell_client_cache_hits_total");

  const net::SimTime now = net::SimTime::from_hours(1.0);
  constexpr int kNames = 12;
  net::DeviceState device(1);
  auto ask = [&](int i, net::Ipv4Addr source) {
    std::string qname = "n";
    qname += std::to_string(i);
    qname += ".example.com";
    client.serve(Message::query(7, name(qname.c_str()), RRType::kA), source,
                 now, rng_, device);
  };

  const net::Ipv4Addr source = carrier.assign_ip(0, device);
  const uint64_t warm_before = hits.value();
  for (int i = 0; i < kNames; ++i) ask(i, source);
  for (int i = 0; i < kNames; ++i) ask(i, source);
  // Most repeats land on a warm machine of the instance.
  EXPECT_GT(hits.value() - warm_before, uint64_t{kNames / 2});

  root_->ids.clear();
  // Same state object, same instance, same source address, next device.
  device.reset(2);
  const uint64_t cold_before = hits.value();
  for (int i = 0; i < kNames; ++i) ask(i, source);
  EXPECT_EQ(hits.value(), cold_before) << "device 2 hit device 1's cache";
  ASSERT_FALSE(root_->ids.empty());
  EXPECT_EQ(root_->ids.front(), 1);
}

TEST_F(DeviceStateTest, NatCursorRestartsWithEachDevice) {
  build_carrier();
  net::DeviceState device(5);
  const std::vector<net::Ipv4Addr> first = first_two_addresses(device);
  EXPECT_NE(first[0], first[1]);  // the cursor walks within a timeline
  // A device's address sequence is a function of its ordinal alone.
  device.reset(5);
  EXPECT_EQ(first_two_addresses(device), first);
}

TEST_F(DeviceStateTest, InterleavedDevicesKeepSeparateState) {
  cellular::CellularNetwork& carrier = build_carrier();
  // What each device's NAT cursor hands out when it runs alone.
  net::DeviceState alone(1);
  const std::vector<net::Ipv4Addr> alone1 = first_two_addresses(alone);
  alone.reset(2);
  const std::vector<net::Ipv4Addr> alone2 = first_two_addresses(alone);
  ASSERT_NE(alone1, alone2);

  // Two devices alternating call by call on one thread, against one
  // resolver and one carrier.
  net::DeviceState first(1);
  net::DeviceState second(2);
  EXPECT_FALSE(resolve("www.example.com", first).from_cache);
  EXPECT_FALSE(resolve("www.example.com", second).from_cache);
  EXPECT_TRUE(resolve("www.example.com", first).from_cache);
  EXPECT_TRUE(resolve("www.example.com", second).from_cache);
  EXPECT_FALSE(resolve("other.example.com", first).from_cache);
  EXPECT_FALSE(resolve("other.example.com", second).from_cache);
  // Each device numbers its own queries from 1.
  EXPECT_EQ(root_->ids, (std::vector<uint16_t>{1, 1, 2, 2}));

  std::vector<net::Ipv4Addr> addresses1;
  std::vector<net::Ipv4Addr> addresses2;
  for (int i = 0; i < 2; ++i) {
    addresses1.push_back(carrier.assign_ip(0, first));
    addresses2.push_back(carrier.assign_ip(0, second));
  }
  EXPECT_EQ(addresses1, alone1);
  EXPECT_EQ(addresses2, alone2);
}

TEST_F(DeviceStateTest, SlotSharedByTwoOwnersAborts) {
  // A second topology numbers its owners from 0 again, so its resolver
  // holds the slot this fixture's resolver holds; one device using both
  // would mix their states.
  net::Topology other;
  net::Node node;
  node.ip = net::Ipv4Addr{9, 9, 9, 10};
  dns::RecursiveResolver twin("twin", other.add_node(node), node.ip, &other,
                              &registry_, kRootIp);
  other.freeze();
  topology_.freeze();
  net::DeviceState device(1);
  resolve("www.example.com", device);
  EXPECT_DEATH(twin.resolve(name("www.example.com"), RRType::kA,
                            net::SimTime::zero(), rng_, device),
               "claimed by two owners");
}

}  // namespace
}  // namespace curtain
