#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "dns/cache.h"
#include "dns/name_table.h"

namespace curtain::dns {
namespace {

using net::SimTime;

DnsName name(const char* s) { return *DnsName::parse(s); }

ResourceRecord a_record(const char* host, uint32_t ttl) {
  return ResourceRecord::a(name(host), net::Ipv4Addr{1, 2, 3, 4}, ttl);
}

TEST(Cache, MissOnEmpty) {
  Cache cache;
  EXPECT_FALSE(cache.lookup(name("a.com"), RRType::kA, SimTime::zero()));
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, HitWithinTtl) {
  Cache cache;
  cache.insert(name("a.com"), RRType::kA, {a_record("a.com", 30)},
               SimTime::zero());
  const auto hit = cache.lookup(name("a.com"), RRType::kA,
                                SimTime::from_seconds(29));
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(hit->negative());
  ASSERT_EQ(hit->records().size(), 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(Cache, TtlAging) {
  Cache cache;
  cache.insert(name("a.com"), RRType::kA, {a_record("a.com", 30)},
               SimTime::zero());
  const auto hit = cache.lookup(name("a.com"), RRType::kA,
                                SimTime::from_seconds(12));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->elapsed_s(), 12u);
  EXPECT_EQ(hit->aged_records()[0].ttl, 18u);
  // The stored record keeps its original TTL; aging never rewrites it.
  EXPECT_EQ(hit->records()[0].ttl, 30u);
}

TEST(Cache, HitIsViewNotCopy) {
  Cache cache;
  cache.insert(name("a.com"), RRType::kA, {a_record("a.com", 30)},
               SimTime::zero());
  const auto first = cache.lookup(name("a.com"), RRType::kA,
                                  SimTime::from_seconds(1));
  const auto second = cache.lookup(name("a.com"), RRType::kA,
                                   SimTime::from_seconds(2));
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  // Both hits borrow the same stored section — lookup copies nothing.
  EXPECT_EQ(&first->records(), &second->records());
  EXPECT_EQ(first->aged_ttl(30), 29u);
  EXPECT_EQ(second->aged_ttl(30), 28u);
}

TEST(Cache, ExpiresExactlyAtTtl) {
  Cache cache;
  cache.insert(name("a.com"), RRType::kA, {a_record("a.com", 30)},
               SimTime::zero());
  EXPECT_FALSE(
      cache.lookup(name("a.com"), RRType::kA, SimTime::from_seconds(30)));
  EXPECT_EQ(cache.stats().expired_evictions, 1u);
}

TEST(Cache, EntryTtlIsMinOfRrset) {
  Cache cache;
  cache.insert(name("a.com"), RRType::kA,
               {a_record("a.com", 30), a_record("a.com", 10)}, SimTime::zero());
  EXPECT_TRUE(
      cache.lookup(name("a.com"), RRType::kA, SimTime::from_seconds(9)));
  EXPECT_FALSE(
      cache.lookup(name("a.com"), RRType::kA, SimTime::from_seconds(11)));
}

TEST(Cache, ZeroTtlNeverCached) {
  Cache cache;
  cache.insert(name("a.com"), RRType::kA, {a_record("a.com", 0)},
               SimTime::zero());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(name("a.com"), RRType::kA, SimTime::zero()));
  cache.insert_negative(name("nx.com"), RRType::kA, 0, SimTime::zero());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(Cache, TypesAreIndependent) {
  Cache cache;
  cache.insert(name("a.com"), RRType::kA, {a_record("a.com", 60)},
               SimTime::zero());
  EXPECT_FALSE(cache.lookup(name("a.com"), RRType::kCNAME, SimTime::zero()));
  EXPECT_TRUE(cache.lookup(name("a.com"), RRType::kA, SimTime::zero()));
}

TEST(Cache, NamesCompareCaseInsensitively) {
  Cache cache;
  cache.insert(name("A.CoM"), RRType::kA, {a_record("a.com", 60)},
               SimTime::zero());
  EXPECT_TRUE(cache.lookup(name("a.com"), RRType::kA, SimTime::zero()));
}

TEST(Cache, NegativeEntry) {
  Cache cache;
  cache.insert_negative(name("nx.com"), RRType::kA, 300, SimTime::zero());
  const auto hit = cache.lookup(name("nx.com"), RRType::kA,
                                SimTime::from_seconds(100));
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->negative());
  EXPECT_TRUE(hit->records().empty());
  EXPECT_FALSE(
      cache.lookup(name("nx.com"), RRType::kA, SimTime::from_seconds(301)));
}

TEST(Cache, OverwriteRefreshesEntry) {
  Cache cache;
  cache.insert(name("a.com"), RRType::kA, {a_record("a.com", 10)},
               SimTime::zero());
  cache.insert(name("a.com"), RRType::kA, {a_record("a.com", 10)},
               SimTime::from_seconds(8));
  EXPECT_TRUE(
      cache.lookup(name("a.com"), RRType::kA, SimTime::from_seconds(15)));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(Cache, NegativeEntryExpires) {
  Cache cache;
  cache.insert_negative(name("nx.com"), RRType::kA, 300, SimTime::zero());
  EXPECT_FALSE(
      cache.lookup(name("nx.com"), RRType::kA, SimTime::from_seconds(300)));
  EXPECT_EQ(cache.stats().expired_evictions, 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(Cache, TtlBoundsClampInsertions) {
  // Delegations carry TTL 172800; the cache keeps nothing past one day.
  Cache cache;
  cache.insert(name("com"), RRType::kNS,
               {ResourceRecord::ns(name("com"), name("a.gtld.net"), 172800)},
               SimTime::zero());
  EXPECT_TRUE(cache.lookup(name("com"), RRType::kNS,
                           SimTime::from_seconds(86399)));
  EXPECT_FALSE(cache.lookup(name("com"), RRType::kNS,
                            SimTime::from_seconds(86400)));
  cache.insert_negative(name("nx.com"), RRType::kA, 172800, SimTime::zero());
  EXPECT_TRUE(cache.lookup(name("nx.com"), RRType::kA,
                           SimTime::from_seconds(86399)));
  EXPECT_FALSE(cache.lookup(name("nx.com"), RRType::kA,
                            SimTime::from_seconds(86400)));
  // Shorter TTLs are kept as they are.
  cache.insert(name("short.com"), RRType::kA, {a_record("short.com", 5)},
               SimTime::zero());
  EXPECT_TRUE(
      cache.lookup(name("short.com"), RRType::kA, SimTime::from_seconds(4)));
  EXPECT_FALSE(
      cache.lookup(name("short.com"), RRType::kA, SimTime::from_seconds(5)));
}

TEST(Cache, KeepsEveryLiveEntry) {
  // No size cap: one past what used to be the default cap, all live, all
  // still hit.
  constexpr int kEntries = 100001;
  Cache cache;
  std::vector<DnsName> hosts;
  hosts.reserve(kEntries);
  for (int i = 0; i < kEntries; ++i) {
    std::string host = "h";
    host += std::to_string(i);
    host += ".example.com";
    hosts.push_back(name(host.c_str()));
    cache.insert(hosts.back(), RRType::kA,
                 {ResourceRecord::a(hosts.back(), net::Ipv4Addr{1, 2, 3, 4},
                                    3600)},
                 SimTime::zero());
  }
  EXPECT_EQ(cache.size(), static_cast<size_t>(kEntries));
  int hits = 0;
  for (const DnsName& host : hosts) {
    if (cache.lookup(host, RRType::kA, SimTime::from_seconds(1))) ++hits;
  }
  EXPECT_EQ(hits, kEntries);
  EXPECT_EQ(cache.stats().expired_evictions, 0u);
}

TEST(Cache, ClearEmptiesEverything) {
  Cache cache;
  cache.insert(name("a.com"), RRType::kA, {a_record("a.com", 60)},
               SimTime::zero());
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(Cache, HitRateAccounting) {
  Cache cache;
  cache.insert(name("a.com"), RRType::kA, {a_record("a.com", 60)},
               SimTime::zero());
  cache.lookup(name("a.com"), RRType::kA, SimTime::zero());
  cache.lookup(name("b.com"), RRType::kA, SimTime::zero());
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);
}

// The cache as it was before entries borrowed shared rrsets: a node-based
// map of owned record vectors plus a std::multimap expiry index, purged
// from the front on every insert. Kept here as the reference the flat
// cache must match operation for operation.
class ReferenceCache {
 public:
  struct Hit {
    bool negative;
    uint32_t elapsed_s;
    std::vector<ResourceRecord> stored;
    std::vector<ResourceRecord> aged;
  };

  std::optional<Hit> lookup(const DnsName& name, RRType type, SimTime now,
                            uint32_t scope) {
    const auto it = entries_.find(Key{name, type, scope});
    if (it == entries_.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    if (it->second.expires <= now) {
      erase_expired(it);
      ++stats_.misses;
      return std::nullopt;
    }
    ++stats_.hits;
    const Entry& entry = it->second;
    Hit hit{entry.negative,
            static_cast<uint32_t>((now - entry.inserted).seconds()),
            entry.records, entry.records};
    for (auto& rr : hit.aged) {
      rr.ttl = rr.ttl > hit.elapsed_s ? rr.ttl - hit.elapsed_s : 0;
    }
    return hit;
  }

  void insert(const DnsName& name, RRType type,
              std::vector<ResourceRecord> records, SimTime now,
              uint32_t scope) {
    if (records.empty()) return;
    uint32_t ttl = UINT32_MAX;
    for (const auto& rr : records) ttl = std::min(ttl, rr.ttl);
    if (ttl == 0) return;
    insert_entry(Key{name, type, scope}, std::move(records), false, now,
                 std::min(ttl, kOneDayS));
  }

  void insert_negative(const DnsName& name, RRType type, uint32_t ttl,
                       SimTime now, uint32_t scope) {
    if (ttl == 0) return;
    insert_entry(Key{name, type, scope}, {}, true, now,
                 std::min(ttl, kOneDayS));
  }

  void clear() {
    entries_.clear();
    expiry_.clear();
  }
  size_t size() const { return entries_.size(); }
  const CacheStats& stats() const { return stats_; }

 private:
  static constexpr uint32_t kOneDayS = 86400;

  struct Key {
    DnsName name;
    RRType type;
    uint32_t scope;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return (k.name.hash() * 31 + static_cast<size_t>(k.type)) * 31 + k.scope;
    }
  };
  using ExpiryIndex = std::multimap<SimTime, const Key*>;
  struct Entry {
    std::vector<ResourceRecord> records;
    bool negative = false;
    SimTime inserted;
    SimTime expires;
    ExpiryIndex::iterator expiry_it;
  };
  using EntryMap = std::unordered_map<Key, Entry, KeyHash>;

  void insert_entry(Key key, std::vector<ResourceRecord> records,
                    bool negative, SimTime now, uint32_t ttl) {
    while (!expiry_.empty() && expiry_.begin()->first <= now) {
      erase_expired(entries_.find(*expiry_.begin()->second));
    }
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      expiry_.erase(it->second.expiry_it);
    } else {
      it = entries_.emplace(std::move(key), Entry{}).first;
    }
    Entry& entry = it->second;
    entry.records = std::move(records);
    entry.negative = negative;
    entry.inserted = now;
    entry.expires = now + SimTime::from_seconds(ttl);
    entry.expiry_it = expiry_.emplace(entry.expires, &it->first);
  }

  void erase_expired(EntryMap::iterator it) {
    expiry_.erase(it->second.expiry_it);
    entries_.erase(it);
    ++stats_.expired_evictions;
  }

  EntryMap entries_;
  ExpiryIndex expiry_;
  CacheStats stats_;
};

void expect_same_stats(const CacheStats& got, const CacheStats& want,
                       int step) {
  EXPECT_EQ(got.hits, want.hits) << "step " << step;
  EXPECT_EQ(got.misses, want.misses) << "step " << step;
  EXPECT_EQ(got.expired_evictions, want.expired_evictions) << "step " << step;
}

// Random operations on the flat cache and the reference, compared after
// every step: TTLs drawn from a few values, plus one delegation-like shape
// of TTL 172800 per name that only the one-day ceiling bounds; overwrites
// of live keys; negative entries; ECS scopes; records held as shared runs
// that arrive already aged (a forwarded hit), as owned records, or both.
// Keys are NameTable handles (the first five hosts), dynamic names (the
// rest), or dynamic copies of handles, which must find the handle's entry:
// the reference keys every name by a dynamic copy.
TEST(Cache, MatchesReferenceCacheOnRandomOperations) {
  std::mt19937_64 random(20141105);
  const auto draw = [&](size_t n) { return static_cast<size_t>(random() % n); };
  // The shared rrsets every insert may borrow from: one per (name, TTL
  // shape), some with records of unequal TTLs; the last shape is the
  // delegation one.
  const char* hosts[] = {"a.com", "b.com", "c.com", "www.example.com",
                         "amazon-www.curtaincdn.net", "ns1.example.com",
                         "x.y.z.org", "d.com"};
  const uint32_t ttls[] = {0, 5, 10, 10, 30, 30, 60};
  NameTable names;
  for (size_t i = 0; i < 5; ++i) names.add(name(hosts[i]));
  names.freeze();
  std::vector<Rrset> shared;
  for (const char* host : hosts) {
    for (int shape = 0; shape < 5; ++shape) {
      Rrset rrset;
      const size_t count = 1 + draw(3);
      for (size_t k = 0; k < count; ++k) {
        rrset.add(ResourceRecord::a(
            name(host), net::Ipv4Addr{10, 0, static_cast<uint8_t>(shape),
                                      static_cast<uint8_t>(k)},
            shape == 4 ? 172800 : ttls[draw(std::size(ttls))]));
      }
      rrset.intern_names(names);
      shared.push_back(std::move(rrset));
    }
  }
  ASSERT_TRUE(shared.front().front().name.interned());
  ASSERT_FALSE(shared.back().front().name.interned());
  const auto dynamic_copy = [](const DnsName& n) {
    return *DnsName::parse(n.to_string());
  };

  // Four legs of 20,000 operations on fresh caches. Each operation moves
  // the clock by 0 to pace - 1 seconds: the slow legs keep entries live
  // across many operations (hits, overwrites), the fast ones expire most
  // entries between operations. One operation in 500 follows an idle gap
  // of one to two days, past the ceiling but inside a delegation's TTL.
  int step = 0;
  for (const size_t pace : {2u, 4u, 8u, 64u}) {
    Cache cache;
    ReferenceCache reference;
    int64_t now_s = 0;
    for (int op = 0; op < 20000; ++op, ++step) {
      now_s += static_cast<int64_t>(
          draw(500) == 0 ? 86400 + draw(86400) : draw(pace));
      const SimTime now = SimTime::from_seconds(static_cast<double>(now_s));
      const Rrset& rrset = shared[draw(shared.size())];
      const DnsName& owner = rrset.front().name;
      const DnsName copy = dynamic_copy(owner);
      const DnsName& key_name = draw(2) == 0 ? owner : copy;
      const RRType type = draw(5) == 0 ? RRType::kCNAME : RRType::kA;
      const uint32_t scope = draw(3) == 0 ? static_cast<uint32_t>(draw(3)) : 0;
      const size_t action = draw(10);
      if (action < 4) {
        // Shared runs, possibly aged by an upstream hit, possibly two.
        Section records;
        const auto aged_by = static_cast<uint32_t>(draw(3) == 0 ? draw(40) : 0);
        records.append(rrset, aged_by);
        if (draw(4) == 0) records.append(rrset, 0, 1);
        reference.insert(copy, type, records.materialize(), now, scope);
        if (draw(2) == 0) {
          cache.insert(key_name, type, records, now, scope);
        } else {
          cache.insert(key_name, type, std::move(records), now, scope);
        }
      } else if (action < 5) {
        // Owned records, as a dynamic handler or a decoder builds them.
        std::vector<ResourceRecord> records = rrset.records();
        reference.insert(copy, type, records, now, scope);
        cache.insert(key_name, type, std::move(records), now, scope);
      } else if (action < 6) {
        const auto ttl = static_cast<uint32_t>(draw(4) * 10);
        reference.insert_negative(copy, type, ttl, now, scope);
        cache.insert_negative(key_name, type, ttl, now, scope);
      } else if (action == 9 && draw(200) == 0) {
        reference.clear();
        cache.clear();
      } else {
        const auto want = reference.lookup(copy, type, now, scope);
        const auto got = cache.lookup(key_name, type, now, scope);
        ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
        if (want) {
          EXPECT_EQ(got->negative(), want->negative) << "step " << step;
          EXPECT_EQ(got->elapsed_s(), want->elapsed_s) << "step " << step;
          EXPECT_EQ(got->records().materialize(), want->stored)
              << "step " << step;
          EXPECT_EQ(got->aged_records(), want->aged) << "step " << step;
        }
      }
      ASSERT_EQ(cache.size(), reference.size()) << "step " << step;
      expect_same_stats(cache.stats(), reference.stats(), step);
    }
    EXPECT_GT(reference.stats().expired_evictions, 0u) << pace;
    EXPECT_GT(reference.stats().hits, 0u) << pace;
  }
}

}  // namespace
}  // namespace curtain::dns
