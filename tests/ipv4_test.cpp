#include <gtest/gtest.h>

#include <charconv>
#include <cstring>
#include <string>

#include "net/ip_allocator.h"
#include "net/ipv4.h"
#include "net/rng.h"

namespace curtain::net {
namespace {

TEST(Ipv4, ParseDottedQuad) {
  const auto addr = Ipv4Addr::parse("192.0.2.1");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->value(), 0xc0000201u);
}

TEST(Ipv4, ParseBounds) {
  EXPECT_TRUE(Ipv4Addr::parse("0.0.0.0").has_value());
  EXPECT_TRUE(Ipv4Addr::parse("255.255.255.255").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("256.0.0.1").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("a.b.c.d").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("1..2.3").has_value());
}

TEST(Ipv4, ToStringRoundTrip) {
  const Ipv4Addr addr{10, 20, 30, 40};
  EXPECT_EQ(addr.to_string(), "10.20.30.40");
  EXPECT_EQ(Ipv4Addr::parse(addr.to_string()), addr);
}

TEST(Ipv4, ToCharsFillsAtMostMaxChars) {
  // The stack formatter is what to_string and the CSV export use; check
  // its widths and every octet value against a plain decimal rendering.
  char buf[Ipv4Addr::kMaxChars];
  const auto text = [&](Ipv4Addr a) {
    return std::string(buf, a.to_chars(buf, buf + sizeof(buf)));
  };
  EXPECT_EQ(text(Ipv4Addr{}), "0.0.0.0");
  EXPECT_EQ(text(Ipv4Addr{255, 255, 255, 255}), "255.255.255.255");
  EXPECT_EQ(text(Ipv4Addr{255, 255, 255, 255}).size(), Ipv4Addr::kMaxChars);
  for (int v = 0; v < 256; ++v) {
    const auto o = static_cast<uint8_t>(v);
    const std::string d = std::to_string(v);
    ASSERT_EQ(text(Ipv4Addr{o, 9, o, 100}), d + ".9." + d + ".100");
    ASSERT_EQ(Ipv4Addr(o, 0, 10, o).to_string(), d + ".0.10." + d);
  }
}

// The reference: each octet through std::to_chars, joined by dots.
std::string reference_quad(Ipv4Addr a) {
  std::string out;
  for (int i = 0; i < 4; ++i) {
    char digits[3];
    if (i != 0) out += '.';
    out.append(digits, std::to_chars(digits, digits + 3, a.octet(i)).ptr);
  }
  return out;
}

// to_chars formats from an octet table with fixed-width copies; bytes
// after the text are scratch, but nothing may land past kMaxChars.
TEST(Ipv4, ToCharsMatchesReferenceForEveryOctet) {
  constexpr char kGuard = '#';
  char buf[Prefix::kMaxChars + 8];
  const auto text = [&](Ipv4Addr a) {
    std::memset(buf, kGuard, sizeof(buf));
    const char* end = a.to_chars(buf, buf + Ipv4Addr::kMaxChars);
    for (size_t i = Ipv4Addr::kMaxChars; i < sizeof(buf); ++i) {
      EXPECT_EQ(buf[i], kGuard) << "byte " << i << " of " << a.to_string();
    }
    return std::string(static_cast<const char*>(buf), end);
  };
  // Every value in every position, beside the widest and narrowest
  // neighbours.
  for (int pos = 0; pos < 4; ++pos) {
    for (const uint8_t other : {uint8_t{0}, uint8_t{7}, uint8_t{255}}) {
      for (int v = 0; v < 256; ++v) {
        uint8_t octets[4] = {other, other, other, other};
        octets[pos] = static_cast<uint8_t>(v);
        const Ipv4Addr a(octets[0], octets[1], octets[2], octets[3]);
        ASSERT_EQ(text(a), reference_quad(a));
        ASSERT_EQ(a.to_string(), reference_quad(a));
      }
    }
  }
  net::Rng rng(20141105);
  for (int i = 0; i < 100000; ++i) {
    const Ipv4Addr a(static_cast<uint32_t>(rng.next_u64()));
    ASSERT_EQ(text(a), reference_quad(a));
  }
  // Prefix appends "/len" to the network's quad at every length.
  const Ipv4Addr host{255, 255, 255, 255};
  for (int length = 0; length <= 32; ++length) {
    const Prefix prefix(host, length);
    std::memset(buf, kGuard, sizeof(buf));
    const char* end = prefix.to_chars(buf, buf + Prefix::kMaxChars);
    for (size_t i = Prefix::kMaxChars; i < sizeof(buf); ++i) {
      ASSERT_EQ(buf[i], kGuard) << "byte " << i << " at /" << length;
    }
    std::string expected = reference_quad(prefix.address());
    expected += '/';
    expected += std::to_string(length);
    ASSERT_EQ(std::string(static_cast<const char*>(buf), end), expected);
  }
}

TEST(Prefix, ToCharsAndToStringAgree) {
  char buf[Prefix::kMaxChars];
  const Prefix widest(Ipv4Addr{255, 255, 255, 255}, 32);
  EXPECT_EQ(std::string(buf, widest.to_chars(buf, buf + sizeof(buf))),
            "255.255.255.255/32");
  EXPECT_EQ(widest.to_string().size(), Prefix::kMaxChars);
  EXPECT_EQ(Prefix(Ipv4Addr{192, 0, 2, 77}, 24).to_string(), "192.0.2.0/24");
  EXPECT_EQ(Prefix(Ipv4Addr{10, 1, 2, 3}, 0).to_string(), "0.0.0.0/0");
  EXPECT_EQ(Prefix::parse("172.16.0.0/12")->to_string(), "172.16.0.0/12");
}

TEST(Ipv4, Octets) {
  const Ipv4Addr addr{1, 2, 3, 4};
  EXPECT_EQ(addr.octet(0), 1);
  EXPECT_EQ(addr.octet(3), 4);
}

TEST(Ipv4, Slash24) {
  EXPECT_EQ(Ipv4Addr(192, 0, 2, 77).slash24(), Ipv4Addr(192, 0, 2, 0));
  EXPECT_EQ(Ipv4Addr(192, 0, 2, 0).slash24(), Ipv4Addr(192, 0, 2, 0));
}

TEST(Ipv4, Ordering) {
  EXPECT_LT(Ipv4Addr(1, 0, 0, 0), Ipv4Addr(2, 0, 0, 0));
  EXPECT_EQ(Ipv4Addr(1, 2, 3, 4), Ipv4Addr(1, 2, 3, 4));
}

TEST(Prefix, CanonicalizesHostBits) {
  const Prefix p(Ipv4Addr{192, 0, 2, 77}, 24);
  EXPECT_EQ(p.address(), Ipv4Addr(192, 0, 2, 0));
  EXPECT_EQ(p.to_string(), "192.0.2.0/24");
}

TEST(Prefix, Contains) {
  const Prefix p(Ipv4Addr{10, 0, 0, 0}, 8);
  EXPECT_TRUE(p.contains(Ipv4Addr(10, 255, 1, 2)));
  EXPECT_FALSE(p.contains(Ipv4Addr(11, 0, 0, 0)));
}

TEST(Prefix, ContainsPrefix) {
  const Prefix outer(Ipv4Addr{10, 0, 0, 0}, 8);
  const Prefix inner(Ipv4Addr{10, 1, 2, 0}, 24);
  EXPECT_TRUE(outer.contains(inner));
  EXPECT_FALSE(inner.contains(outer));
}

TEST(Prefix, ZeroLengthContainsEverything) {
  const Prefix all(Ipv4Addr{}, 0);
  EXPECT_TRUE(all.contains(Ipv4Addr(255, 255, 255, 255)));
  EXPECT_EQ(all.size(), uint64_t{1} << 32);
}

TEST(Prefix, ParseValid) {
  const auto p = Prefix::parse("172.16.0.0/12");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->length(), 12);
  EXPECT_TRUE(p->contains(Ipv4Addr(172, 31, 255, 255)));
  EXPECT_FALSE(p->contains(Ipv4Addr(172, 32, 0, 0)));
}

TEST(Prefix, ParseInvalid) {
  EXPECT_FALSE(Prefix::parse("10.0.0.0").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/33").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0/8").has_value());
}

TEST(Prefix, HostIndexing) {
  const Prefix p(Ipv4Addr{192, 0, 2, 0}, 24);
  EXPECT_EQ(p.host(1), Ipv4Addr(192, 0, 2, 1));
  EXPECT_EQ(p.host(255), Ipv4Addr(192, 0, 2, 255));
  // Wraps modulo the block size.
  EXPECT_EQ(p.host(256), Ipv4Addr(192, 0, 2, 0));
}

TEST(Prefix, SlashSizes) {
  EXPECT_EQ(Prefix(Ipv4Addr{}, 24).size(), 256u);
  EXPECT_EQ(Prefix(Ipv4Addr{}, 32).size(), 1u);
}

TEST(IpAllocator, BlocksAreDisjoint) {
  IpAllocator alloc(Prefix(Ipv4Addr{20, 0, 0, 0}, 8));
  const Prefix a = alloc.alloc_block(24);
  const Prefix b = alloc.alloc_block(24);
  EXPECT_NE(a, b);
  EXPECT_FALSE(a.contains(b));
  EXPECT_FALSE(b.contains(a));
}

TEST(IpAllocator, HostsStayInBlockAndSkipNetworkAddress) {
  IpAllocator alloc(Prefix(Ipv4Addr{20, 0, 0, 0}, 8));
  const Prefix block = alloc.alloc_block(24);
  for (int i = 0; i < 300; ++i) {
    const Ipv4Addr host = alloc.alloc_host(block);
    EXPECT_TRUE(block.contains(host));
    EXPECT_NE(host, block.address());  // never the .0 address
  }
}

TEST(IpAllocator, HostsAreSequentialWithinBlock) {
  IpAllocator alloc(Prefix(Ipv4Addr{20, 0, 0, 0}, 8));
  const Prefix block = alloc.alloc_block(24);
  EXPECT_EQ(alloc.alloc_host(block), block.host(1));
  EXPECT_EQ(alloc.alloc_host(block), block.host(2));
}

}  // namespace
}  // namespace curtain::net
