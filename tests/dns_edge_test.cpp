// Additional DNS edge cases: compression limits, hierarchy reuse, cache
// expiry under sustained inserts, record formatting, EDNS-in-fuzz round trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dns/cache.h"
#include "dns/hierarchy.h"
#include "dns/message.h"
#include "net/rng.h"

namespace curtain::dns {
namespace {

DnsName name(const char* s) { return *DnsName::parse(s); }

TEST(DnsEdge, ManyRecordsRoundTrip) {
  // A large response exercises compression-table growth and counts.
  Message m = Message::query(1, name("big.example.com"), RRType::kA)
                  .make_response();
  for (int i = 0; i < 120; ++i) {
    m.answers.push_back(ResourceRecord::a(
        name("big.example.com"), net::Ipv4Addr(0x0a000000u + static_cast<uint32_t>(i)), 30));
  }
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, m);
  // Compression: 120 repeated names cost 2 bytes each after the first.
  EXPECT_LT(encode(m).size(), 12u + 21u + 4u + 17u + 120u * (2 + 10 + 4) + 64u);
}

TEST(DnsEdge, MaxLengthNameRoundTrip) {
  // Build a 255-octet wire-length name (the RFC 1035 limit).
  std::vector<std::string> labels;
  size_t wire = 1;
  while (wire + 16 <= 255) {
    labels.push_back(std::string(15, static_cast<char>('a' + static_cast<int>(labels.size() % 26))));
    wire += 16;
  }
  const auto max_name = DnsName::from_labels(labels);
  ASSERT_TRUE(max_name.has_value());
  ASSERT_LE(max_name->wire_length(), 255u);
  const Message m = Message::query(2, *max_name, RRType::kA);
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->question->name, *max_name);
}

TEST(DnsEdge, TxtWithEmptyAndLongStrings) {
  Message m = Message::query(3, name("t.example.com"), RRType::kTXT)
                  .make_response();
  m.answers.push_back(ResourceRecord::txt(
      name("t.example.com"), {"", std::string(255, 'x'), "middle"}, 60));
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, m);
}

TEST(DnsEdge, OversizedTxtStringTruncatedTo255) {
  Message m = Message::query(4, name("t.example.com"), RRType::kTXT)
                  .make_response();
  m.answers.push_back(ResourceRecord::txt(
      name("t.example.com"), {std::string(300, 'y')}, 60));
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.has_value());
  const auto& txt = std::get<TxtRecord>(decoded->answers[0].rdata);
  EXPECT_EQ(txt.strings[0].size(), 255u);
}

TEST(DnsEdge, FuzzWithEcsRoundTrips) {
  net::Rng rng(4711);
  for (int i = 0; i < 100; ++i) {
    Message m = Message::query(static_cast<uint16_t>(rng.next_u64()),
                               name("www.example.com"), RRType::kA);
    if (rng.bernoulli(0.7)) {
      m.ecs = EdnsClientSubnet{
          net::Ipv4Addr(static_cast<uint32_t>(rng.next_u64())),
          static_cast<uint8_t>(rng.uniform_u64(0, 32)),
          static_cast<uint8_t>(rng.uniform_u64(0, 32))};
      // Canonicalize the address the way the wire will.
      const uint8_t len = m.ecs->source_prefix_len;
      const uint32_t mask = len == 0 ? 0 : 0xffffffffu << (32 - len);
      m.ecs->address = net::Ipv4Addr(m.ecs->address.value() & mask);
    }
    if (rng.bernoulli(0.5)) {
      m.answers.push_back(ResourceRecord::a(
          name("www.example.com"),
          net::Ipv4Addr(static_cast<uint32_t>(rng.next_u64())), 30));
    }
    const auto decoded = decode(encode(m));
    ASSERT_TRUE(decoded.has_value()) << i;
    EXPECT_EQ(*decoded, m) << i;
  }
}

TEST(DnsEdge, TruncatedOptRejected) {
  Message m = Message::query(5, name("a.com"), RRType::kA);
  m.ecs = EdnsClientSubnet{net::Ipv4Addr{1, 2, 3, 0}, 24, 0};
  auto wire = encode(m);
  for (size_t cut = 1; cut <= 8; ++cut) {
    const std::span<const uint8_t> prefix(wire.data(), wire.size() - cut);
    EXPECT_FALSE(decode(prefix).has_value()) << cut;
  }
}

TEST(DnsEdge, HierarchyReusesTldServers) {
  net::Topology topo;
  ServerRegistry registry;
  net::Node hub;
  hub.name = "hub";
  const net::NodeId hub_id = topo.add_node(hub);
  int hosts_created = 0;
  DnsHierarchy hierarchy(
      [&](const std::string& host, net::NodeKind kind,
          const net::GeoPoint& location, net::Ipv4Addr ip) {
        (void)kind;
        (void)location;
        ++hosts_created;
        net::Node node;
        node.name = host;
        node.ip = ip;
        const net::NodeId id = topo.add_node(node);
        topo.add_link(id, hub_id, net::LatencyModel::fixed(1.0));
        return id;
      },
      &registry);
  hierarchy.create_zone(name("one.com"), {40, -74}, net::Ipv4Addr{50, 0, 0, 1});
  hierarchy.create_zone(name("two.com"), {40, -74}, net::Ipv4Addr{50, 0, 0, 2});
  hierarchy.create_zone(name("three.net"), {40, -74},
                        net::Ipv4Addr{50, 0, 0, 3});
  topo.freeze();
  // root + tld(com) + tld(net) + 3 zone hosts = 6 host nodes.
  EXPECT_EQ(hosts_created, 6);
  EXPECT_EQ(registry.size(), 6u);
}

TEST(DnsEdge, CacheEvictionUnderSustainedPressure) {
  // One insert a second, TTLs 30-89 s: the cache never holds more than
  // the entries whose TTL window covers now.
  Cache cache;
  std::vector<int64_t> expires_s;
  for (int i = 0; i < 1000; ++i) {
    std::string host_name = "h";
    host_name += std::to_string(i);
    host_name += ".example.com";
    const auto host = DnsName::parse(host_name);
    const uint32_t ttl = 30 + static_cast<uint32_t>(i % 60);
    cache.insert(*host, RRType::kA,
                 {ResourceRecord::a(*host, net::Ipv4Addr{1, 1, 1, 1}, ttl)},
                 net::SimTime::from_seconds(i));
    expires_s.push_back(int64_t{i} + ttl);
    const auto live = static_cast<size_t>(std::count_if(
        expires_s.begin(), expires_s.end(),
        [i](int64_t expires) { return expires > i; }));
    EXPECT_LE(cache.size(), live) << "t=" << i;
  }
  EXPECT_GT(cache.stats().expired_evictions, 900u);
}

TEST(DnsEdge, RecordToStringAllTypes) {
  EXPECT_EQ(ResourceRecord::a(name("a.com"), net::Ipv4Addr{1, 2, 3, 4}, 60)
                .to_string(),
            "a.com 60 IN A 1.2.3.4");
  EXPECT_EQ(ResourceRecord::cname(name("w.a.com"), name("e.cdn.net"), 300)
                .to_string(),
            "w.a.com 300 IN CNAME e.cdn.net");
  EXPECT_EQ(ResourceRecord::ns(name("a.com"), name("ns1.a.com"), 3600)
                .to_string(),
            "a.com 3600 IN NS ns1.a.com");
  EXPECT_EQ(ResourceRecord::txt(name("a.com"), {"x", "y"}, 60).to_string(),
            "a.com 60 IN TXT \"x\" \"y\"");
  const ResourceRecord ptr{name("1.2.0.192.in-addr.arpa"), RRClass::kIN, 60,
                           PtrRecord{name("host.a.com")}};
  EXPECT_EQ(ptr.to_string(), "1.2.0.192.in-addr.arpa 60 IN PTR host.a.com");
}

TEST(DnsEdge, RrtypeNames) {
  EXPECT_STREQ(rrtype_name(RRType::kA), "A");
  EXPECT_STREQ(rrtype_name(RRType::kCNAME), "CNAME");
  EXPECT_STREQ(rrtype_name(RRType::kSOA), "SOA");
  EXPECT_STREQ(rrtype_name(RRType::kPTR), "PTR");
}

}  // namespace
}  // namespace curtain::dns
