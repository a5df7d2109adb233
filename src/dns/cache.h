// TTL-driven DNS cache (RFC 1034 §5.3, RFC 2308 negative caching).
//
// Cache behaviour is load-bearing for the study: CDNs use very short TTLs
// (tens of seconds) so that redirection stays responsive, which makes
// cellular resolvers miss ~20% of even very popular names (paper Fig. 7)
// and puts the full recursion cost in the resolution-time tail (Fig. 5).
//
// An entry stores a Section (dns/rrset.h): runs that borrow the World's
// immutable rrsets plus the insert time, so caching an authority's answer
// copies no record, and a hit is a borrowed view whose TTL aging is one
// elapsed-seconds value. Only records built for one query (a dynamic
// handler's, a decoded packet's) are copied into the entry.
//
// Storage is flat. Entries live in one slot array; a freed slot is reused
// by the next insert, which assigns into its name and section buffers, so
// a warm cache inserts without allocating. An open-addressing index maps
// (name, type, scope) to slots, with each key's hash stored. The name part
// of the key is a DnsName (dns/name.h): for the study's static names a
// NameTable handle — an id, whose hash is read from the table and whose
// equality is one pointer compare — so the hop's keys cost no label work;
// a dynamic name (a probe or PTR name) keys by its labels. A dynamic copy
// of a static name hashes and compares equal to the handle, so it finds
// the same entry: there is one key type, whatever a name's origin.
//
// TTL expiry is the only way an entry leaves before a clear: there is no
// size cap, and an entry lives for its records' smallest TTL, at most a
// day. Every insert first sweeps entries already past their TTL. Expired
// entries can only read as misses, so the sweep is invisible to lookups,
// and it keeps a cache sized by what is *live*: long device timelines
// would otherwise strand expired short-TTL rrsets until the device's state
// is reset. The sweep is guarded by an earliest-expiry watermark that is
// never later than any live entry's expiry; it may read early (a lookup
// erased the earliest entry, or an overwrite extended it), which costs one
// scan that finds less to do, never a missed purge. Which slot an entry
// takes is not visible in any result.
//
// lint-hot-path: lookup/insert run on every simulated resolution, so
// curtain_lint holds this file to the hot-alloc rule.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dns/rrset.h"
#include "net/time.h"

namespace curtain::dns {

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t expired_evictions = 0;

  double hit_rate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// A borrowed view of a cache hit. Valid until the cache's next insert or
/// clear; lookups (which may erase *other*, expired keys) do not move
/// entries, so a view stays valid across them.
///
/// TTL aging (RFC 1035 §3.2.1) is carried as a single elapsed-seconds
/// value instead of a re-written record copy; callers that need aged
/// records append them with append_aged() or copy them with
/// aged_records().
class CacheHit {
 public:
  bool negative() const { return negative_; }
  /// The stored records, aged only by what they had aged before they were
  /// inserted (an upstream cache's hit, for a forwarded chain).
  const Section& records() const { return *records_; }
  /// Seconds the entry has spent in cache at lookup time.
  uint32_t elapsed_s() const { return elapsed_s_; }
  /// Ages one stored TTL by the time spent in cache.
  uint32_t aged_ttl(uint32_t ttl) const {
    return ttl > elapsed_s_ ? ttl - elapsed_s_ : 0;
  }

  /// Appends the records, aged by the time spent in cache; shared runs
  /// are appended as borrowed runs.
  void append_aged(Section& out) const { out.append(*records_, elapsed_s_); }
  /// Owned copies with aged TTLs.
  std::vector<ResourceRecord> aged_records() const {
    Section aged;
    append_aged(aged);
    return aged.materialize();
  }

 private:
  friend class Cache;
  CacheHit(const Section* records, bool negative, uint32_t elapsed_s)
      : records_(records), negative_(negative), elapsed_s_(elapsed_s) {}

  const Section* records_;
  bool negative_;
  uint32_t elapsed_s_;
};

class Cache {
 public:
  /// The longest an entry lives, whatever its records' TTL: a day, as
  /// common resolver software caps it. Load-bearing: delegations carry
  /// TTL 172800.
  static constexpr uint32_t kMaxTtlS = 86400;

  /// Returns a borrowed view of the entry if present and unexpired (see
  /// CacheHit for lifetime and TTL-aging semantics).
  /// `scope` partitions entries by client subnet for ECS-tailored answers
  /// (RFC 7871 §7.3.1); 0 = subnet-independent data.
  std::optional<CacheHit> lookup(const DnsName& name, RRType type,
                                 net::SimTime now, uint32_t scope = 0);

  /// Inserts a positive entry; entry TTL = min aged record TTL, capped at
  /// kMaxTtlS. Zero-TTL records are uncacheable (RFC 1035 §3.2.1). Shared
  /// runs are stored as borrowed runs; owned records are copied (or
  /// moved).
  void insert(const DnsName& name, RRType type, const Section& records,
              net::SimTime now, uint32_t scope = 0);
  void insert(const DnsName& name, RRType type, Section&& records,
              net::SimTime now, uint32_t scope = 0);
  /// Owned records (tests and tools).
  void insert(const DnsName& name, RRType type,
              std::vector<ResourceRecord> records, net::SimTime now,
              uint32_t scope = 0);

  /// Inserts a negative entry with the given TTL (SOA minimum), capped at
  /// kMaxTtlS; TTL 0 is not cached.
  void insert_negative(const DnsName& name, RRType type, uint32_t ttl_s,
                       net::SimTime now, uint32_t scope = 0);

  void clear();
  size_t size() const { return live_; }
  const CacheStats& stats() const { return stats_; }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;
  static constexpr net::SimTime kNever{INT64_MAX};

  struct Entry {
    DnsName name;
    RRType type = RRType::kA;
    uint32_t scope = 0;  ///< ECS client-subnet partition; 0 = global
    size_t hash = 0;
    Section records;  ///< empty for a negative entry
    bool negative = false;
    net::SimTime inserted;
    net::SimTime expires = kNever;  ///< kNever marks a free slot
  };

  static size_t key_hash(const DnsName& name, RRType type, uint32_t scope) {
    return (name.hash() * 31 + static_cast<size_t>(type)) * 31 + scope;
  }
  /// Slot index of the live entry for the key, or kNone.
  uint32_t find(const DnsName& name, RRType type, uint32_t scope,
                size_t hash) const;
  /// Sweeps expired entries, then finds or makes the key's entry and
  /// stamps it with its expiry. Returns its slot.
  uint32_t place(const DnsName& name, RRType type, uint32_t scope,
                 net::SimTime now, uint32_t ttl_s);
  /// Removes every entry whose expiry is <= now, charging expired stats,
  /// and recomputes the watermark. A no-op while now < the watermark.
  void purge_expired(net::SimTime now);
  /// Unlinks an expired entry from the index, frees its slot.
  void erase_expired(uint32_t slot);

  void index_insert(uint32_t slot);
  void index_erase(uint32_t slot);
  void grow_index();

  std::vector<Entry> entries_;  ///< slots, live and free
  std::vector<uint32_t> free_;  ///< freed slots, reused last-freed first
  /// Open addressing, linear probing: slot + 1, 0 = empty; size is zero or
  /// a power of two at most half full.
  std::vector<uint32_t> index_;
  /// No live entry expires before this; kNever when the cache is empty.
  net::SimTime earliest_expiry_ = kNever;
  size_t live_ = 0;
  CacheStats stats_;
};

}  // namespace curtain::dns
