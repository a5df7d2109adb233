#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <thread>

#include "core/world.h"
#include "dns/stub.h"
#include "net/device_state.h"

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

// The anycast site choice made from scratch, as before rankings were
// memoized: find the source's egress the way World does, rank every site
// by distance from it, then apply the per-(/24, epoch) draw.
net::NodeId fresh_site_node(const core::World& world,
                            const PublicDnsService& service,
                            net::Ipv4Addr source, net::SimTime now) {
  net::NodeId egress = world.topology().find_by_ip(source);
  for (const auto& carrier : world.carriers()) {
    const int gateway = carrier->gateway_of_ip(source);
    if (gateway >= 0) {
      egress = carrier->gateway_node(gateway);
      break;
    }
  }
  const uint64_t seed = net::mix_key(world.config().seed,
                                     net::hash_tag(service.service_name()));
  const uint64_t draw =
      net::mix_key(net::mix_key(seed, source.slash24().value()),
                   static_cast<uint64_t>(now.hours() / 8.0));
  const auto& sites = service.sites();
  size_t site = draw % sites.size();
  if (egress != net::kInvalidNode) {
    const net::GeoPoint& location = world.topology().node(egress).location;
    std::vector<std::pair<double, size_t>> ranked;
    for (size_t s = 0; s < sites.size(); ++s) {
      ranked.emplace_back(net::distance_km(location, sites[s].location), s);
    }
    std::sort(ranked.begin(), ranked.end());
    const size_t candidates = std::min<size_t>(4, ranked.size());
    const double weights[] = {0.70, 0.16, 0.09, 0.05};
    double target = static_cast<double>(draw % 10000) / 10000.0;
    for (size_t c = 0; c < candidates; ++c) {
      site = ranked[c].second;
      if (target < weights[c]) break;
      target -= weights[c];
    }
  }
  return sites[site].instances.front()->node();
}

// One subscriber address behind every gateway of every carrier, plus an
// address owned by a plain node and one nobody owns. Subscriber addresses
// come from device NAT cursors, here those of one device.
std::vector<net::Ipv4Addr> ingress_sources(core::World& world) {
  net::DeviceState device(1);
  std::vector<net::Ipv4Addr> sources;
  for (const auto& carrier : world.carriers()) {
    for (int g = 0; g < carrier->num_gateways(); ++g) {
      sources.push_back(carrier->assign_ip(g, device));
    }
  }
  sources.push_back(world.vantage_ip());
  sources.push_back(net::Ipv4Addr{203, 0, 113, 9});
  return sources;
}

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
  net::DeviceState device(1);
  auto& att = world_->carrier(0);
  const net::Ipv4Addr src = att.assign_ip(0, device);
  const auto& gateway_node = world_->topology().node(att.gateway_node(0));
  const net::NodeId site_node =
      world_->google_dns().node_for(src, net::SimTime::zero());
  const auto& site = world_->topology().node(site_node);
  EXPECT_LT(net::distance_km(gateway_node.location, site.location), 4500.0);
}

TEST_F(PublicDnsTest, IngressStableWithinEpoch) {
  net::DeviceState device(1);
  auto& att = world_->carrier(0);
  const net::Ipv4Addr src = att.assign_ip(1, device);
  const auto t = net::SimTime::from_hours(3.0);
  const net::NodeId a = world_->google_dns().node_for(src, t);
  const net::NodeId b = world_->google_dns().node_for(
      src, t + net::SimTime::from_seconds(30));
  EXPECT_EQ(a, b);
}

TEST_F(PublicDnsTest, IngressDriftsAcrossEpochs) {
  // Over many ingress epochs a prefix visits several sites (Fig. 12).
  net::DeviceState device(1);
  auto& att = world_->carrier(0);
  const net::Ipv4Addr src = att.assign_ip(2, device);
  std::set<net::NodeId> sites;
  for (int day = 0; day < 60; ++day) {
    sites.insert(
        world_->google_dns().node_for(src, net::SimTime::from_days(day)));
  }
  EXPECT_GT(sites.size(), 1u);
  EXPECT_LE(sites.size(), 4u);  // flips among the nearest few only
}

TEST_F(PublicDnsTest, ResolvesStudyDomainEndToEnd) {
  net::DeviceState device(1);
  auto& att = world_->carrier(0);
  const net::Ipv4Addr src = att.assign_ip(3, device);
  dns::StubResolver stub(att.gateway_node(0), src, world_->topology(),
                         world_->registry());
  const auto result =
      stub.query(net::Ipv4Addr{8, 8, 8, 8}, *dns::DnsName::parse("m.yelp.com"),
                 dns::RRType::kA, net::SimTime::zero(), rng_, device);
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
  net::DeviceState device(1);
  auto& att = world_->carrier(0);
  const net::Ipv4Addr src = att.assign_ip(4, device);
  std::set<uint32_t> instances;
  std::set<uint32_t> slash24s;
  for (int i = 0; i < 12; ++i) {
    const auto qname =
        *world_->research_apex().child("adns")->child("spread" + std::to_string(i));
    const auto served = world_->google_dns().serve_wire(
        dns::encode(dns::Message::query(static_cast<uint16_t>(9 + i), qname,
                                        dns::RRType::kA)),
        src, net::SimTime::from_seconds(i), rng_, device);
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

TEST_F(PublicDnsTest, IngressMemoMatchesFreshRanking) {
  // Every source over many ingress epochs, on both services, twice: the
  // second pass reads rankings the first one memoized.
  const auto sources = ingress_sources(*world_);
  for (const PublicDnsService* service :
       {&world_->google_dns(), &world_->open_dns()}) {
    for (int pass = 0; pass < 2; ++pass) {
      for (int epoch = 0; epoch < 12; ++epoch) {
        const auto now = net::SimTime::from_hours(8.0 * epoch + 1.0);
        for (const net::Ipv4Addr source : sources) {
          ASSERT_EQ(service->node_for(source, now),
                    fresh_site_node(*world_, *service, source, now))
              << service->service_name() << " " << source.to_string();
        }
      }
    }
  }

  // Worlds built one after the other on this thread, with different site
  // sets: each must rank its own sites, whatever the last one memoized.
  for (const int google_sites : {30, 7, 30}) {
    core::Scenario scenario;
    scenario.google_sites = google_sites;
    auto world = std::make_unique<core::World>(scenario);
    const auto& google = world->google_dns();
    ASSERT_EQ(google.sites().size(), static_cast<size_t>(google_sites));
    for (const net::Ipv4Addr source : ingress_sources(*world)) {
      for (int epoch = 0; epoch < 3; ++epoch) {
        const auto now = net::SimTime::from_hours(8.0 * epoch);
        ASSERT_EQ(google.node_for(source, now),
                  fresh_site_node(*world, google, source, now))
            << google_sites << " sites, " << source.to_string();
      }
    }
  }

  // Two threads querying one service of a freshly built World at once:
  // both race to rank the same empty ingress slots, without locks, and
  // must agree with each other and with a fresh ranking.
  const auto fresh = std::make_unique<core::World>();
  const auto fresh_sources = ingress_sources(*fresh);
  const auto& google = fresh->google_dns();
  std::vector<net::NodeId> expected;
  for (int epoch = 0; epoch < 4; ++epoch) {
    for (const net::Ipv4Addr source : fresh_sources) {
      expected.push_back(fresh_site_node(
          *fresh, google, source, net::SimTime::from_hours(8.0 * epoch)));
    }
  }
  std::atomic<bool> go{false};
  const auto query_all = [&](std::vector<net::NodeId>& out) {
    while (!go.load()) std::this_thread::yield();
    for (int epoch = 0; epoch < 4; ++epoch) {
      for (const net::Ipv4Addr source : fresh_sources) {
        out.push_back(
            google.node_for(source, net::SimTime::from_hours(8.0 * epoch)));
      }
    }
  };
  std::vector<net::NodeId> first;
  std::vector<net::NodeId> second;
  std::thread a(query_all, std::ref(first));
  std::thread b(query_all, std::ref(second));
  go.store(true);
  a.join();
  b.join();
  EXPECT_EQ(first, expected);
  EXPECT_EQ(second, expected);
}

}  // namespace
}  // namespace curtain::publicdns
