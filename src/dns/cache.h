// TTL-driven DNS cache (RFC 1034 §5.3, RFC 2308 negative caching).
//
// Cache behaviour is load-bearing for the study: CDNs use very short TTLs
// (tens of seconds) so that redirection stays responsive, which makes
// cellular resolvers miss ~20% of even very popular names (paper Fig. 7)
// and puts the full recursion cost in the resolution-time tail (Fig. 5).
//
// Hits are served as borrowed views (CacheHit): the record vector is never
// copied on lookup; TTL aging is computed once per hit and applied lazily
// by the caller. Eviction runs off an expiry-ordered index (multimap, so
// equal expiries keep insertion order and eviction stays deterministic)
// instead of the old O(n) scan per capacity-bound insert. Every insert
// also sweeps entries already past their TTL: expired entries can only
// read as misses, so the sweep is invisible to lookups, and it keeps a
// cache sized by what is *live* — long device timelines would otherwise
// strand expired short-TTL rrsets until the device's scope closes.
//
// lint-hot-path: lookup/insert run on every simulated resolution, so
// curtain_lint holds this file to the hot-alloc rule.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dns/record.h"
#include "net/time.h"

namespace curtain::dns {

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t expired_evictions = 0;
  uint64_t capacity_evictions = 0;

  double hit_rate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// A positive or negative cached entry for one (name, type).
struct CachedRrset {
  std::vector<ResourceRecord> records;  ///< empty for a negative entry
  bool negative = false;                ///< NXDOMAIN / NODATA marker
  net::SimTime inserted;
  net::SimTime expires;
};

/// A borrowed view of a cache hit. Valid until the cache is next mutated
/// for this key (overwrite, expiry, eviction, clear); lookups and inserts
/// of *other* keys do not invalidate it (node-based storage).
///
/// TTL aging (RFC 1035 §3.2.1) is carried as a single elapsed-seconds
/// value instead of a re-written record copy; callers that need aged
/// records materialize them with aged_records()/append_aged().
class CacheHit {
 public:
  bool negative() const { return entry_->negative; }
  /// The stored records with their *original* (un-aged) TTLs.
  const std::vector<ResourceRecord>& records() const {
    return entry_->records;
  }
  /// Seconds the entry has spent in cache at lookup time.
  uint32_t elapsed_s() const { return elapsed_s_; }
  /// Ages one stored TTL by the time spent in cache.
  uint32_t aged_ttl(uint32_t ttl) const {
    return ttl > elapsed_s_ ? ttl - elapsed_s_ : 0;
  }

  /// Appends copies of the records with aged TTLs.
  void append_aged(std::vector<ResourceRecord>& out) const {
    out.reserve(out.size() + entry_->records.size());
    for (const auto& rr : entry_->records) {
      out.push_back(rr);
      out.back().ttl = aged_ttl(rr.ttl);
    }
  }
  /// Materializes an aged copy (the pre-view lookup() return value).
  std::vector<ResourceRecord> aged_records() const {
    std::vector<ResourceRecord> out;
    append_aged(out);
    return out;
  }

 private:
  friend class Cache;
  CacheHit(const CachedRrset* entry, uint32_t elapsed_s)
      : entry_(entry), elapsed_s_(elapsed_s) {}

  const CachedRrset* entry_;
  uint32_t elapsed_s_;
};

class Cache {
 public:
  explicit Cache(size_t max_entries = 100000) : max_entries_(max_entries) {}

  /// Returns a borrowed view of the entry if present and unexpired (see
  /// CacheHit for lifetime and TTL-aging semantics).
  /// `scope` partitions entries by client subnet for ECS-tailored answers
  /// (RFC 7871 §7.3.1); 0 = subnet-independent data.
  std::optional<CacheHit> lookup(const DnsName& name, RRType type,
                                 net::SimTime now, uint32_t scope = 0);

  /// Inserts a positive rrset; entry TTL = min record TTL, clamped to
  /// [min_ttl_, max_ttl_]. Zero-TTL rrsets are uncacheable (RFC 1035
  /// §3.2.1) and are rejected *before* the clamp — a floor must not
  /// launder "do not cache" into a cacheable TTL.
  void insert(const DnsName& name, RRType type,
              std::vector<ResourceRecord> records, net::SimTime now,
              uint32_t scope = 0);

  /// Inserts a negative entry with the given TTL (SOA minimum).
  void insert_negative(const DnsName& name, RRType type, uint32_t ttl_s,
                       net::SimTime now, uint32_t scope = 0);

  void clear();
  size_t size() const { return entries_.size(); }
  const CacheStats& stats() const { return stats_; }

  /// Approximate heap bytes held by the entry map, the expiry index and
  /// the cached rrsets. A profiling gauge (obs/memory.h) — counts node
  /// and record-vector capacities, not exact allocator accounting.
  size_t approx_bytes() const;

  /// TTL clamps; exposed so tests can exercise the bounds.
  void set_ttl_bounds(uint32_t min_ttl_s, uint32_t max_ttl_s);

 private:
  struct Key {
    DnsName name;
    RRType type;
    uint32_t scope = 0;  ///< ECS client-subnet partition; 0 = global
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return (k.name.hash() * 31 + static_cast<size_t>(k.type)) * 31 + k.scope;
    }
  };

  /// Expiry-ordered eviction index. multimap inserts equal keys at the
  /// upper bound, so entries sharing an expiry stay in insertion order —
  /// eviction order is deterministic by construction. Values point at the
  /// owning map node's key (stable: unordered_map storage is node-based).
  using ExpiryIndex = std::multimap<net::SimTime, const Key*>;
  struct Entry {
    CachedRrset data;
    ExpiryIndex::iterator expiry_it;
  };
  using EntryMap = std::unordered_map<Key, Entry, KeyHash>;

  void insert_entry(Key key, CachedRrset entry);
  /// Removes every entry whose expiry is <= now, charging expired stats.
  void purge_expired(net::SimTime now);
  /// Removes the soonest-to-expire (live) entry, charging capacity stats.
  void evict_for_capacity();
  void erase_expired_entry(EntryMap::iterator it);

  size_t max_entries_;
  uint32_t min_ttl_s_ = 0;
  uint32_t max_ttl_s_ = 86400;
  EntryMap entries_;
  ExpiryIndex expiry_;
  CacheStats stats_;
};

}  // namespace curtain::dns
