#include <gtest/gtest.h>

#include "dns/message.h"
#include "net/rng.h"
#include "wire_damage.h"

namespace curtain::dns {
namespace {

DnsName name(const char* s) { return *DnsName::parse(s); }

Message sample_response() {
  Message q = Message::query(0x1234, name("www.buzzfeed.com"), RRType::kA);
  Message r = q.make_response();
  r.header.aa = false;
  r.header.ra = true;
  r.answers.push_back(ResourceRecord::cname(
      name("www.buzzfeed.com"), name("buzzfeed-www.fastedge.net"), 300));
  r.answers.push_back(ResourceRecord::a(name("buzzfeed-www.fastedge.net"),
                                        net::Ipv4Addr{20, 1, 2, 3}, 30));
  r.answers.push_back(ResourceRecord::a(name("buzzfeed-www.fastedge.net"),
                                        net::Ipv4Addr{20, 1, 2, 4}, 30));
  r.authorities.push_back(
      ResourceRecord::ns(name("fastedge.net"), name("ns1.fastedge.net"), 3600));
  r.additionals.push_back(ResourceRecord::a(name("ns1.fastedge.net"),
                                            net::Ipv4Addr{20, 9, 9, 9}, 3600));
  return r;
}

TEST(DnsMessage, QueryRoundTrip) {
  const Message q = Message::query(7, name("m.yelp.com"), RRType::kA);
  const auto wire = encode(q);
  const auto decoded = decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, q);
}

TEST(DnsMessage, ResponseRoundTrip) {
  const Message r = sample_response();
  const auto decoded = decode(encode(r));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, r);
}

TEST(DnsMessage, HeaderFlagsRoundTrip) {
  Message m = Message::query(0xffff, name("a.b"), RRType::kTXT);
  m.header.qr = true;
  m.header.aa = true;
  m.header.tc = true;
  m.header.rd = false;
  m.header.ra = true;
  m.header.rcode = Rcode::kNxDomain;
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->header, m.header);
}

TEST(DnsMessage, CompressionShrinksRepeatedNames) {
  const Message r = sample_response();
  const auto wire = encode(r);
  // Uncompressed, the four fastedge.net names alone would be ~100 bytes;
  // compression should keep the whole message well under that ceiling.
  size_t uncompressed = 12;
  if (r.question) uncompressed += r.question->name.wire_length() + 4;
  for (const auto* section : {&r.answers, &r.authorities, &r.additionals}) {
    for (const auto& rr : *section) {
      uncompressed += rr.name.wire_length() + 10;
      uncompressed += 32;  // generous rdata allowance
    }
  }
  EXPECT_LT(wire.size(), uncompressed * 3 / 4);
}

TEST(DnsMessage, SoaRoundTrip) {
  Message m = Message::query(1, name("example.com"), RRType::kSOA);
  Message r = m.make_response();
  SoaRecord soa;
  soa.mname = name("ns1.example.com");
  soa.rname = name("hostmaster.example.com");
  soa.serial = 2014030100;
  soa.refresh = 7200;
  soa.retry = 900;
  soa.expire = 1209600;
  soa.minimum = 300;
  r.answers.push_back(ResourceRecord::soa(name("example.com"), soa, 3600));
  const auto decoded = decode(encode(r));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, r);
}

TEST(DnsMessage, TxtRoundTrip) {
  Message r = Message::query(2, name("t.example.com"), RRType::kTXT)
                  .make_response();
  r.answers.push_back(ResourceRecord::txt(
      name("t.example.com"), {"resolver=10.0.0.53", "second string"}, 60));
  const auto decoded = decode(encode(r));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, r);
}

TEST(DnsMessage, PtrAndNsRoundTrip) {
  Message r = Message::query(3, name("x.example.com"), RRType::kPTR)
                  .make_response();
  r.answers.push_back(ResourceRecord{name("x.example.com"), RRClass::kIN, 60,
                                     PtrRecord{name("host.example.com")}});
  r.answers.push_back(
      ResourceRecord::ns(name("example.com"), name("ns2.example.com"), 60));
  const auto decoded = decode(encode(r));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, r);
}

TEST(DnsMessage, EmptyWireRejected) {
  EXPECT_FALSE(decode({}).has_value());
}

TEST(DnsMessage, TruncatedHeaderRejected) {
  const std::vector<uint8_t> wire{0x12, 0x34, 0x01};
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(DnsMessage, TruncatedBodyRejected) {
  auto wire = encode(sample_response());
  wire.resize(wire.size() - 3);
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(DnsMessage, EveryTruncationFailsCleanly) {
  // Property: no prefix of a valid message decodes (counts would dangle).
  const auto wire = encode(sample_response());
  for (size_t n = 0; n < wire.size(); ++n) {
    const std::span<const uint8_t> prefix(wire.data(), n);
    EXPECT_FALSE(decode(prefix).has_value()) << "prefix length " << n;
  }
}

TEST(DnsMessage, ForwardCompressionPointerRejected) {
  // Hand-craft a question whose name is a pointer to itself.
  std::vector<uint8_t> wire{
      0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0xc0, 0x0c,  // pointer to offset 12 = its own first byte
      0x00, 0x01, 0x00, 0x01,
  };
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(DnsMessage, PointerLoopRejected) {
  // Two pointers chasing each other.
  std::vector<uint8_t> wire{
      0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0xc0, 0x0e,  // at 12: points to 14
      0xc0, 0x0c,  // at 14: points back to 12
      0x00, 0x01, 0x00, 0x01,
  };
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(DnsMessage, ReservedLabelBitsRejected) {
  std::vector<uint8_t> wire{
      0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x40, 'x',  // 0x40 label type is reserved
      0x00, 0x00, 0x01, 0x00, 0x01,
  };
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(DnsMessage, NonInClassRejected) {
  auto wire = encode(Message::query(5, name("a.com"), RRType::kA));
  // Question class is the last two bytes; set to CH (3).
  wire[wire.size() - 1] = 3;
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(DnsMessage, SecondQuestionRejected) {
  // RFC 9619: a message carries at most one question. Append a copy of
  // the question and count it in QDCOUNT.
  auto wire = encode(Message::query(9, name("a.com"), RRType::kA));
  const std::vector<uint8_t> question(wire.begin() + 12, wire.end());
  wire.insert(wire.end(), question.begin(), question.end());
  wire[5] = 2;
  EXPECT_FALSE(decode(wire).has_value());
  wire[5] = 1;
  wire.resize(wire.size() - question.size());
  ASSERT_TRUE(decode(wire).has_value());
  EXPECT_EQ(decode(wire)->question->name, name("a.com"));
}

TEST(DnsMessage, BadRdlengthRejected) {
  Message r = Message::query(6, name("a.com"), RRType::kA).make_response();
  r.answers.push_back(ResourceRecord::a(name("a.com"), net::Ipv4Addr{1, 2, 3, 4}, 60));
  auto wire = encode(r);
  // The A record's RDLENGTH=4 sits 6 bytes before the end; corrupt it.
  wire[wire.size() - 5] = 7;
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(DnsMessage, AnswerHelpers) {
  const Message r = sample_response();
  ASSERT_TRUE(r.first_answer(RRType::kCNAME).has_value());
  EXPECT_FALSE(r.first_answer(RRType::kSOA).has_value());
  const auto addrs = r.answer_addresses();
  ASSERT_EQ(addrs.size(), 2u);
  EXPECT_EQ(addrs[0], net::Ipv4Addr(20, 1, 2, 3));
}

TEST(DnsMessage, RecordToStringReadable) {
  const auto rr = ResourceRecord::a(name("a.com"), net::Ipv4Addr{1, 2, 3, 4}, 60);
  EXPECT_EQ(rr.to_string(), "a.com 60 IN A 1.2.3.4");
}

// ---- property sweep: randomized message round-trips ------------------------

class CodecFuzzRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodecFuzzRoundTrip, RandomMessagesRoundTrip) {
  net::Rng rng(GetParam());
  const std::vector<std::string> labels{"www", "cdn", "edge", "a", "m",
                                        "example", "test", "net", "com", "kr"};
  const auto random_name = [&]() {
    std::vector<std::string> parts;
    const auto depth = 1 + rng.uniform_u64(0, 3);
    for (uint64_t i = 0; i < depth; ++i) parts.push_back(rng.pick(labels));
    return *DnsName::from_labels(std::move(parts));
  };

  for (int iteration = 0; iteration < 50; ++iteration) {
    Message m = Message::query(static_cast<uint16_t>(rng.next_u64()),
                               random_name(), RRType::kA);
    m.header.qr = rng.bernoulli(0.5);
    m.header.rcode = rng.bernoulli(0.2) ? Rcode::kNxDomain : Rcode::kNoError;
    const auto records = rng.uniform_u64(0, 6);
    for (uint64_t i = 0; i < records; ++i) {
      const auto kind = rng.uniform_u64(0, 3);
      ResourceRecord rr;
      switch (kind) {
        case 0:
          rr = ResourceRecord::a(random_name(),
                                 net::Ipv4Addr(static_cast<uint32_t>(rng.next_u64())),
                                 static_cast<uint32_t>(rng.uniform_u64(0, 3600)));
          break;
        case 1:
          rr = ResourceRecord::cname(random_name(), random_name(), 30);
          break;
        case 2:
          rr = ResourceRecord::ns(random_name(), random_name(), 3600);
          break;
        default:
          rr = ResourceRecord::txt(random_name(), {"x", "longer string"}, 60);
          break;
      }
      const auto section = rng.uniform_u64(0, 2);
      (section == 0 ? m.answers : section == 1 ? m.authorities : m.additionals)
          .push_back(std::move(rr));
    }
    const auto decoded = decode(encode(m));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, m);
  }
}

/// A random message in one of the shapes the simulator's servers emit:
/// a referral with glue, a CNAME chain, NXDOMAIN or NODATA with a SOA, or
/// an ECS query or scoped response. Names share suffixes, so compression
/// pointers are exercised.
Message random_server_message(net::Rng& rng) {
  const std::vector<std::string> labels{"www", "cdn", "edge", "m", "ns1",
                                        "example", "yelp", "net", "com"};
  const auto random_name = [&](size_t min_depth) {
    std::vector<std::string> parts;
    const auto depth = min_depth + rng.uniform_u64(0, 2);
    for (uint64_t i = 0; i < depth; ++i) parts.push_back(rng.pick(labels));
    return *DnsName::from_labels(std::move(parts));
  };
  const auto random_addr = [&] {
    return net::Ipv4Addr(static_cast<uint32_t>(rng.next_u64()));
  };
  const auto ttl = [&] { return static_cast<uint32_t>(rng.uniform_u64(0, 86400)); };

  const DnsName qname = random_name(2);
  Message m = Message::query(static_cast<uint16_t>(rng.next_u64()), qname,
                             RRType::kA)
                  .make_response();
  m.header.ra = rng.bernoulli(0.5);
  switch (rng.uniform_u64(0, 4)) {
    case 0: {  // referral: NS set in authority, glue A records in additional
      const DnsName zone = qname.parent();
      const auto servers = 1 + rng.uniform_u64(0, 2);
      for (uint64_t i = 0; i < servers; ++i) {
        const DnsName ns = *zone.child("ns" + std::to_string(i));
        m.authorities.push_back(ResourceRecord::ns(zone, ns, ttl()));
        m.additionals.push_back(ResourceRecord::a(ns, random_addr(), ttl()));
      }
      break;
    }
    case 1: {  // CNAME chain, possibly crossing zones, ending in A records
      m.header.aa = rng.bernoulli(0.5);
      DnsName owner = qname;
      const auto links = 1 + rng.uniform_u64(0, 3);
      for (uint64_t i = 0; i < links; ++i) {
        const DnsName target = random_name(2);
        m.answers.push_back(ResourceRecord::cname(owner, target, ttl()));
        owner = target;
      }
      const auto addresses = rng.uniform_u64(0, 3);
      for (uint64_t i = 0; i < addresses; ++i) {
        m.answers.push_back(ResourceRecord::a(owner, random_addr(), ttl()));
      }
      break;
    }
    case 2: {  // NXDOMAIN or NODATA with the zone's SOA
      m.header.aa = true;
      m.header.rcode = rng.bernoulli(0.7) ? Rcode::kNxDomain : Rcode::kNoError;
      const DnsName zone = qname.parent();
      SoaRecord soa;
      soa.mname = *zone.child("ns1");
      soa.rname = *zone.child("hostmaster");
      soa.serial = static_cast<uint32_t>(rng.next_u64());
      soa.minimum = ttl();
      m.authorities.push_back(ResourceRecord::soa(zone, soa, ttl()));
      break;
    }
    default: {  // ECS query (as a resolver sends it) or scoped answer
      const auto prefix = static_cast<uint8_t>(rng.uniform_u64(0, 32));
      const net::Prefix subnet(random_addr(), prefix);
      const bool response = rng.bernoulli(0.5);
      if (!response) m = Message::query(m.header.id, qname, RRType::kA);
      m.ecs = EdnsClientSubnet{subnet.address(), prefix,
                               response ? prefix : uint8_t{0}};
      if (response) m.answers.push_back(ResourceRecord::a(qname, random_addr(), ttl()));
      break;
    }
  }
  return m;
}

TEST_P(CodecFuzzRoundTrip, ServerShapedMessagesRoundTrip) {
  net::Rng rng(GetParam());
  for (int iteration = 0; iteration < 50; ++iteration) {
    const Message m = random_server_message(rng);
    const auto decoded = decode(encode(m));
    ASSERT_TRUE(decoded.has_value()) << iteration;
    EXPECT_EQ(*decoded, m) << iteration;
  }
}

TEST_P(CodecFuzzRoundTrip, ServerShapedMessagesSurviveDamage) {
  net::Rng rng(GetParam());
  for (int iteration = 0; iteration < 10; ++iteration) {
    const auto wire = encode(random_server_message(rng));
    wiretest::expect_truncations_rejected(wire);
    wiretest::expect_bit_flips_survived(wire);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzzRoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace curtain::dns
