#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <random>
#include <string>
#include <vector>

#include "core/world.h"
#include "dns/message.h"
#include "dns/name_table.h"

namespace curtain::dns {
namespace {

DnsName name(const std::string& s) { return *DnsName::parse(s); }

/// The labels of `n` as a dynamic name, whatever `n` is.
DnsName dynamic_copy(const DnsName& n) { return name(n.to_string()); }

/// FNV-1a over each lowercased label followed by a 0xff separator: the
/// hash DnsName has always had, written out independently.
size_t fnv(const std::vector<std::string>& labels) {
  size_t h = 0xcbf29ce484222325ULL;
  for (const std::string& label : labels) {
    for (const char c : label) {
      h ^= static_cast<uint8_t>(c);
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Random names over a tiny alphabet, so labels collide, nest and share
/// prefixes; mixed case, which parsing lowercases.
std::vector<DnsName> random_names(std::mt19937_64& random, size_t count) {
  const char alphabet[] = "abAB-1";
  std::vector<DnsName> out;
  while (out.size() < count) {
    std::string text;
    const size_t labels = 1 + random() % 4;
    for (size_t l = 0; l < labels; ++l) {
      if (l > 0) text += '.';
      const size_t length = 1 + random() % 3;
      for (size_t k = 0; k < length; ++k) text += alphabet[random() % 6];
    }
    out.push_back(name(text));
  }
  return out;
}

TEST(NameTable, IdOrderIsNameOrder) {
  std::mt19937_64 random(20141105);
  std::vector<DnsName> texts = random_names(random, 300);
  // Same bytes, different label breaks; and a prefix pair.
  for (const char* text : {"ab.c", "a.bc", "a.b.c", "abc", "ab", "a"}) {
    texts.push_back(name(text));
  }
  NameTable table;
  for (const DnsName& text : texts) table.add(text);
  table.freeze();

  std::vector<DnsName> handles;
  for (NameId id = 0; id < table.size(); ++id) {
    const DnsName& handle = table.name(id);
    ASSERT_TRUE(handle.interned());
    EXPECT_EQ(handle.id(), id);
    EXPECT_EQ(handle.table(), &table);
    handles.push_back(handle);
  }
  std::vector<DnsName> copies;
  for (const DnsName& handle : handles) copies.push_back(dynamic_copy(handle));
  for (size_t i = 0; i < handles.size(); ++i) {
    const DnsName& a = copies[i];
    for (size_t j = 0; j < handles.size(); ++j) {
      const DnsName& b = copies[j];
      ASSERT_EQ(handles[i] < handles[j], a < b) << a.to_string() << " vs "
                                                << b.to_string();
      ASSERT_EQ(handles[i] < handles[j], i < j);
      ASSERT_EQ(handles[i] == handles[j], i == j);
    }
  }
  // Label-wise, not byte-wise: "a.bc" sorts before "ab.c".
  EXPECT_LT(table.find(name("a.bc")), table.find(name("ab.c")));
  EXPECT_NE(table.find(name("a.bc")), table.find(name("ab.c")));
}

TEST(NameTable, HoldsEveryAncestorAndLinksParents) {
  NameTable table;
  table.add(name("www.Example.COM"));
  table.add(name("x.y.org"));
  table.freeze();
  for (const char* text : {"", "com", "example.com", "www.example.com", "org",
                           "y.org", "x.y.org"}) {
    EXPECT_NE(table.find(name(text)), kNoNameId) << text;
  }
  EXPECT_EQ(table.size(), 7u);
  const DnsName& www = table.name(table.find(name("www.example.com")));
  EXPECT_EQ(*www.static_parent(), name("example.com"));
  EXPECT_TRUE(www.static_parent()->interned());
  EXPECT_EQ(www.parent(), name("example.com"));
  EXPECT_TRUE(www.parent().interned());
  const DnsName& root = table.name(table.find(DnsName{}));
  EXPECT_TRUE(root.is_root());
  EXPECT_EQ(root.static_parent(), &root);
  EXPECT_EQ(table.parent(root.id()), root.id());
  EXPECT_TRUE(www.is_within(root));
  EXPECT_TRUE(www.is_within(*www.static_parent()));
  EXPECT_FALSE(www.is_within(table.name(table.find(name("org")))));
  // A dynamic name's deepest static ancestor.
  EXPECT_EQ(table.closest(name("a.b.www.example.com")), www.id());
  EXPECT_EQ(table.closest(name("q.y.org")), table.find(name("y.org")));
  EXPECT_EQ(table.closest(name("nowhere.net")), root.id());
  EXPECT_EQ(table.find(name("nowhere.net")), kNoNameId);
}

TEST(NameTable, ParsedAndDecodedCopiesFindTheSameId) {
  std::mt19937_64 random(20140301);
  NameTable table;
  const std::vector<DnsName> texts = random_names(random, 200);
  for (const DnsName& text : texts) table.add(text);
  table.freeze();
  for (NameId id = 0; id < table.size(); ++id) {
    const DnsName& handle = table.name(id);
    const std::string text = handle.to_string();
    EXPECT_EQ(table.find(name(text)), id) << text;
    // Upper case and a trailing dot parse to the same text.
    std::string shouted = text;
    std::transform(shouted.begin(), shouted.end(), shouted.begin(),
                   [](char c) { return static_cast<char>(std::toupper(c)); });
    EXPECT_EQ(table.find(name(shouted + ".")), id) << shouted;
    // Through the wire codec: the decoder builds a dynamic name.
    const auto decoded =
        decode(encode(Message::query(7, handle, RRType::kA)));
    ASSERT_TRUE(decoded && decoded->question);
    EXPECT_FALSE(decoded->question->name.interned());
    EXPECT_EQ(table.find(decoded->question->name), id) << text;
    EXPECT_EQ(decoded->question->name, handle);
    // Interning a copy gives back the handle itself.
    DnsName copy = name(text);
    table.intern(copy);
    EXPECT_TRUE(copy.interned());
    EXPECT_EQ(copy.id(), id);
  }
}

TEST(NameTable, MixedPairsAgreeWithDynamicNames) {
  std::mt19937_64 random(7);
  NameTable table;
  for (const DnsName& text : random_names(random, 150)) table.add(text);
  table.freeze();
  // Dynamic names drawn from the same alphabet: many spell static names.
  const std::vector<DnsName> probes = random_names(random, 150);
  size_t static_probes = 0;
  for (const DnsName& probe : probes) {
    if (table.find(probe) != kNoNameId) ++static_probes;
    EXPECT_EQ(probe.hash(), fnv(probe.labels())) << probe.to_string();
  }
  EXPECT_GT(static_probes, 10u);
  EXPECT_LT(static_probes, probes.size());
  for (NameId id = 0; id < table.size(); ++id) {
    const DnsName& handle = table.name(id);
    const DnsName text = dynamic_copy(handle);
    // The stored hash is the name's own FNV hash, not an id mix.
    ASSERT_EQ(handle.hash(), fnv(text.labels())) << text.to_string();
    ASSERT_EQ(handle.hash(), text.hash());
    for (const DnsName& probe : probes) {
      ASSERT_EQ(handle == probe, text == probe);
      ASSERT_EQ(probe == handle, probe == text);
      ASSERT_EQ(handle < probe, text < probe);
      ASSERT_EQ(probe < handle, probe < text);
      ASSERT_EQ(probe.is_within(handle), probe.is_within(text));
      ASSERT_EQ(handle.is_within(probe), text.is_within(probe));
    }
  }
}

TEST(NameTable, HandlesOfTwoTablesCompareByText) {
  NameTable first;
  NameTable second;
  for (const char* text : {"a.com", "b.com", "c.net"}) {
    first.add(name(text));
    second.add(name(text));
  }
  second.add(name("aa.com"));  // shifts second's ids
  first.freeze();
  second.freeze();
  const DnsName& a1 = first.name(first.find(name("a.com")));
  const DnsName& a2 = second.name(second.find(name("a.com")));
  const DnsName& b2 = second.name(second.find(name("b.com")));
  EXPECT_EQ(a1, a2);
  EXPECT_FALSE(a1 < a2);
  EXPECT_TRUE(a1 < b2);
  EXPECT_EQ(second.find(a1), a2.id());
}

TEST(NameTable, WorldInternsItsZoneData) {
  core::World world;
  const NameTable& names = world.names();
  ASSERT_TRUE(names.frozen());
  EXPECT_EQ(world.research_apex().table(), &names);
  for (const char* text :
       {"www.amazon.com", "amazon-www.curtaincdn.net", "curtaincdn.net",
        "ns1.curtaincdn.net", "tld-ns.com", "in-addr.arpa"}) {
    EXPECT_NE(names.find(name(text)), kNoNameId) << text;
  }
  // A probe name under the research apex is dynamic, and its deepest
  // static ancestor is the apex.
  const DnsName probe = name("r1.d7.adns.curtain-study.net");
  EXPECT_EQ(names.find(probe), kNoNameId);
  EXPECT_EQ(names.closest(probe), world.research_apex().id());
}

}  // namespace
}  // namespace curtain::dns
