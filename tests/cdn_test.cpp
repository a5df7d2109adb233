#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cdn/domains.h"
#include "core/world.h"
#include "dns/resolver.h"
#include "net/device_state.h"

namespace curtain::cdn {
namespace {

class CdnTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { world_ = new core::World(); }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static core::World* world_;
  net::Rng rng_{31337};
  // The one device whose resolver caches and NAT cursors the tests use.
  net::DeviceState device_{1};
};

core::World* CdnTest::world_ = nullptr;

TEST_F(CdnTest, NineStudyDomains) {
  ASSERT_EQ(study_domains().size(), 9u);
  bool has_yelp = false;
  bool has_buzzfeed = false;
  for (const auto& domain : study_domains()) {
    has_yelp |= domain.host == "m.yelp.com";        // Table 2 survivor
    has_buzzfeed |= domain.host == "www.buzzfeed.com";  // Fig. 10's domain
  }
  EXPECT_TRUE(has_yelp);
  EXPECT_TRUE(has_buzzfeed);
}

TEST_F(CdnTest, EveryDomainRidesAKnownCdn) {
  const auto cdns = study_cdn_names();
  for (const auto& domain : study_domains()) {
    EXPECT_NE(std::find(cdns.begin(), cdns.end(), domain.cdn), cdns.end())
        << domain.host;
  }
}

TEST_F(CdnTest, ClustersCoverUsAndKrMetros) {
  const auto& provider = world_->cdn("curtaincdn");
  ASSERT_EQ(provider.clusters().size(), 10u);  // 8 US + 2 KR POPs
  size_t us = 0;
  size_t kr = 0;
  for (const auto& cluster : provider.clusters()) {
    (cluster.country == "US" ? us : kr) += 1;
  }
  EXPECT_EQ(us, 8u);
  EXPECT_EQ(kr, 2u);
  std::set<uint32_t> prefixes;
  for (const auto& cluster : provider.clusters()) {
    EXPECT_FALSE(cluster.replica_ips.empty());
    for (const auto ip : cluster.replica_ips) {
      EXPECT_TRUE(cluster.prefix.contains(ip));  // one /24 per cluster
    }
    prefixes.insert(cluster.prefix.address().value());
  }
  EXPECT_EQ(prefixes.size(), provider.clusters().size());
}

TEST_F(CdnTest, OpaquePrefixMappingIsSticky) {
  const auto& provider = world_->cdn("curtaincdn");
  const net::Ipv4Addr resolver{100, 77, 3, 10};
  const auto& first = provider.cluster_for_resolver(resolver);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(provider.cluster_for_resolver(resolver).index, first.index);
  }
  // Same /24, different host: same cluster (Fig. 10's aggregation).
  EXPECT_EQ(provider.cluster_for_resolver(net::Ipv4Addr{100, 77, 3, 99}).index,
            first.index);
}

TEST_F(CdnTest, DifferentSlash24sUsuallyMapDifferently) {
  const auto& provider = world_->cdn("curtaincdn");
  std::set<int> clusters;
  for (int i = 0; i < 32; ++i) {
    clusters.insert(provider
                        .cluster_for_resolver(net::Ipv4Addr(
                            100, 80, static_cast<uint8_t>(i), 1))
                        .index);
  }
  EXPECT_GT(clusters.size(), 5u);
}

TEST_F(CdnTest, HintedPrefixMapsNearest) {
  auto& provider = world_->cdn("curtaincdn");
  const net::GeoPoint seattle{47.61, -122.33};
  provider.add_prefix_hint(net::Prefix(net::Ipv4Addr{203, 0, 113, 0}, 24),
                           seattle, "US");
  const auto& cluster =
      provider.cluster_for_resolver(net::Ipv4Addr{203, 0, 113, 7});
  EXPECT_EQ(cluster.metro, "Seattle");
}

TEST_F(CdnTest, CountryOnlyPrefixStaysInCountry) {
  auto& provider = world_->cdn("curtaincdn");
  provider.add_prefix_country(net::Prefix(net::Ipv4Addr{198, 18, 5, 0}, 24),
                              "KR");
  const auto& cluster =
      provider.cluster_for_resolver(net::Ipv4Addr{198, 18, 5, 1});
  EXPECT_EQ(cluster.country, "KR");
}

TEST_F(CdnTest, CountryWithoutClustersHashesOverEveryCluster) {
  // A carrier outside the US and KR (say a with_carriers profile with
  // country "JP") registers /24s in a country where the provider has no
  // cluster. The mapping stays a sticky per-/24 hash, over every cluster.
  auto& provider = world_->cdn("curtaincdn");
  std::set<std::string> countries;
  for (int i = 0; i < 64; ++i) {
    const net::Ipv4Addr resolver(198, 19, static_cast<uint8_t>(i), 1);
    provider.add_prefix_country(net::Prefix(resolver, 24), "JP");
    const auto& cluster = provider.cluster_for_resolver(resolver);
    EXPECT_EQ(provider.cluster_for_resolver(resolver).index, cluster.index);
    EXPECT_EQ(provider.cluster_for_resolver(net::Ipv4Addr(
                  198, 19, static_cast<uint8_t>(i), 200)).index,
              cluster.index);
    countries.insert(cluster.country);
  }
  EXPECT_EQ(countries, (std::set<std::string>{"KR", "US"}));
}

TEST_F(CdnTest, NearestClusterGeometry) {
  const auto& provider = world_->cdn("curtaincdn");
  EXPECT_EQ(provider.nearest_cluster({40.71, -74.01}, "US").metro, "New York");
  EXPECT_EQ(provider.nearest_cluster({37.57, 126.98}, "KR").metro, "Seoul");
}

TEST_F(CdnTest, ClusterOfReplicaInverse) {
  const auto& provider = world_->cdn("curtaincdn");
  const auto& cluster = provider.clusters().front();
  const auto* found = provider.cluster_of_replica(cluster.replica_ips[0]);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->index, cluster.index);
  EXPECT_EQ(provider.cluster_of_replica(net::Ipv4Addr{1, 1, 1, 1}), nullptr);
}

// End-to-end resolution through a real recursive resolver: the CDN ADNS
// must answer with replicas of the cluster mapped to *that resolver*. The
// probe resolvers sit on backbone routers, since the world's topology is
// frozen; the CDN maps them by their address, not their node.
TEST_F(CdnTest, AdnsSelectsByResolverAddress) {
  dns::RecursiveResolver resolver(
      "probe", world_->nearest_backbone({47.61, -122.33}),
      net::Ipv4Addr{203, 0, 114, 1}, &world_->topology(), &world_->registry(),
      world_->root_dns_ip());

  const auto result =
      resolver.resolve(*dns::DnsName::parse("m.yelp.com"), dns::RRType::kA,
                       net::SimTime::zero(), rng_, device_);
  ASSERT_EQ(result.rcode, dns::Rcode::kNoError);
  const auto addresses = result.addresses();
  ASSERT_FALSE(addresses.empty());

  const auto& provider = world_->cdn("curtaincdn");
  const auto& expected =
      provider.cluster_for_resolver(net::Ipv4Addr{203, 0, 114, 1});
  for (const auto address : addresses) {
    const auto* cluster = provider.cluster_of_replica(address);
    ASSERT_NE(cluster, nullptr);
    EXPECT_EQ(cluster->index, expected.index);
  }
  // The CNAME chain is present (the paper picked CNAME-fronted domains).
  EXPECT_EQ(result.answers.front().type(), dns::RRType::kCNAME);
}

TEST_F(CdnTest, ShortTtlOnReplicaAnswers) {
  dns::RecursiveResolver resolver(
      "probe2", world_->nearest_backbone({40.71, -74.01}),
      net::Ipv4Addr{203, 0, 114, 2}, &world_->topology(), &world_->registry(),
      world_->root_dns_ip());
  const auto result =
      resolver.resolve(*dns::DnsName::parse("www.buzzfeed.com"),
                       dns::RRType::kA, net::SimTime::zero(), rng_, device_);
  for (const auto& rr : result.answers) {
    if (rr.type() == dns::RRType::kA) {
      EXPECT_LE(rr.ttl, world_->config().cdn_answer_ttl_s);
    }
  }
}

TEST_F(CdnTest, RotationVariesWithinCluster) {
  dns::RecursiveResolver resolver(
      "probe3", world_->nearest_backbone({41.88, -87.63}),
      net::Ipv4Addr{203, 0, 114, 3}, &world_->topology(), &world_->registry(),
      world_->root_dns_ip());
  std::set<uint32_t> replicas_seen;
  for (int minute = 0; minute < 60; minute += 2) {
    const auto result = resolver.resolve(
        *dns::DnsName::parse("www.amazon.com"), dns::RRType::kA,
        net::SimTime::from_seconds(minute * 60.0), rng_, device_);
    for (const auto address : result.addresses()) {
      replicas_seen.insert(address.value());
    }
  }
  // The 30 s rotation should cycle through more than one response's worth
  // of replicas inside an hour.
  EXPECT_GT(replicas_seen.size(), 2u);
}

// A hinted /24's nearest cluster is scanned once and memoized in its hint.
// The memo must read what a fresh scan gives in every World a thread
// builds, after a hint moves, and when two threads fill it at once.
TEST_F(CdnTest, NearestClusterMemoMatchesFreshScan) {
  struct Hinted {
    net::Ipv4Addr ip;
    net::GeoPoint location;
    std::string country;
  };
  // Hints on distinct /24s starting at `first`, spread over the US, Korea
  // and elsewhere, with countries that have clusters, none, or no filter.
  const auto make_hints = [](net::Ipv4Addr first, uint64_t seed) {
    net::Rng rng(seed);
    const char* countries[] = {"US", "KR", "", "JP"};
    std::vector<Hinted> hints;
    for (uint32_t i = 0; i < 120; ++i) {
      Hinted hint;
      hint.ip = net::Ipv4Addr(first.value() + (i << 8) + 7);
      hint.location = {rng.uniform(20.0, 50.0), rng.uniform(-125.0, 130.0)};
      hint.country = countries[i % 4];
      hints.push_back(hint);
    }
    return hints;
  };
  const auto add_hints = [](CdnProvider& provider,
                            const std::vector<Hinted>& hints) {
    for (const Hinted& hint : hints) {
      provider.add_prefix_hint(net::Prefix(hint.ip.slash24(), 24),
                               hint.location, hint.country);
    }
  };
  const auto mismatches = [](const CdnProvider& provider,
                             const std::vector<Hinted>& hints) {
    int count = 0;
    for (int pass = 0; pass < 2; ++pass) {  // the second reads the memo
      for (const Hinted& hint : hints) {
        count += provider.cluster_for_resolver(hint.ip).index !=
                 provider.nearest_cluster(hint.location, hint.country).index;
      }
    }
    return count;
  };

  // Worlds built one after the other on this thread, each with its own
  // hints; then the same /24s re-hinted elsewhere.
  for (const uint64_t seed : {1u, 2u, 3u}) {
    core::Scenario scenario;
    scenario.seed = seed;
    core::World world(scenario);
    CdnProvider& provider = world.cdn("gcache");
    const auto hints = make_hints(net::Ipv4Addr{198, 18, 0, 0}, seed);
    add_hints(provider, hints);
    EXPECT_EQ(mismatches(provider, hints), 0) << "seed " << seed;
    const auto moved = make_hints(net::Ipv4Addr{198, 18, 0, 0}, seed + 100);
    add_hints(provider, moved);
    EXPECT_EQ(mismatches(provider, moved), 0) << "seed " << seed << ", moved";
  }

  // Two threads filling one provider's fresh memos at once.
  CdnProvider& provider = world_->cdn("fastedge");
  const auto hints = make_hints(net::Ipv4Addr{100, 80, 0, 0}, 7);
  add_hints(provider, hints);
  int first = -1;
  int second = -1;
  std::thread a([&] { first = mismatches(provider, hints); });
  std::thread b([&] { second = mismatches(provider, hints); });
  a.join();
  b.join();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 0);
}

}  // namespace
}  // namespace curtain::cdn
