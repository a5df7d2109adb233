// lint-hot-path (cache lookup/insert path; see dns/cache.h)
#include "dns/cache.h"

#include <algorithm>

#include "obs/metrics.h"

namespace curtain::dns {
namespace {

// Process-wide totals across every cache instance (recursive resolvers,
// client-facing pool machines, public DNS sites); per-instance numbers
// stay in CacheStats.
struct CacheMetrics {
  obs::Counter& hits = obs::metrics().counter(
      "curtain_dns_cache_hits_total", "DNS cache lookups served from cache");
  obs::Counter& misses = obs::metrics().counter(
      "curtain_dns_cache_misses_total", "DNS cache lookups that missed");
  obs::Counter& expired = obs::metrics().counter(
      "curtain_dns_cache_expired_evictions_total",
      "cache entries evicted on TTL expiry");
};

CacheMetrics& cache_metrics() {
  // Handles re-bind whenever the thread's sheaf changes (obs/metrics.h).
  static thread_local obs::SheafLocal<CacheMetrics> metrics;
  return metrics.get();
}

constexpr size_t kInitialIndexSize = 16;

/// The entry TTL for records whose smallest TTL is `min_ttl`; 0 means
/// uncacheable (no records, or TTL 0).
uint32_t entry_ttl(uint32_t min_ttl) {
  if (min_ttl == UINT32_MAX) return 0;  // no records
  return std::min(min_ttl, Cache::kMaxTtlS);
}

}  // namespace

uint32_t Cache::find(const DnsName& name, RRType type, uint32_t scope,
                     size_t hash) const {
  if (index_.empty()) return kNone;
  const size_t mask = index_.size() - 1;
  for (size_t at = hash & mask;; at = (at + 1) & mask) {
    const uint32_t stored = index_[at];
    if (stored == 0) return kNone;
    const Entry& entry = entries_[stored - 1];
    if (entry.hash == hash && entry.type == type && entry.scope == scope &&
        entry.name == name) {
      return stored - 1;
    }
  }
}

std::optional<CacheHit> Cache::lookup(const DnsName& name, RRType type,
                                      net::SimTime now, uint32_t scope) {
  const uint32_t slot = find(name, type, scope, key_hash(name, type, scope));
  if (slot == kNone) {
    ++stats_.misses;
    cache_metrics().misses.inc();
    return std::nullopt;
  }
  const Entry& entry = entries_[slot];
  if (entry.expires <= now) {
    erase_expired(slot);
    ++stats_.misses;
    cache_metrics().misses.inc();
    return std::nullopt;
  }
  ++stats_.hits;
  cache_metrics().hits.inc();
  const auto elapsed_s =
      static_cast<uint32_t>((now - entry.inserted).seconds());
  return CacheHit(&entry.records, entry.negative, elapsed_s);
}

void Cache::insert(const DnsName& name, RRType type, const Section& records,
                   net::SimTime now, uint32_t scope) {
  const uint32_t ttl = entry_ttl(records.min_ttl());
  if (ttl == 0) return;
  Entry& entry = entries_[place(name, type, scope, now, ttl)];
  entry.records = records;
}

void Cache::insert(const DnsName& name, RRType type, Section&& records,
                   net::SimTime now, uint32_t scope) {
  const uint32_t ttl = entry_ttl(records.min_ttl());
  if (ttl == 0) return;
  Entry& entry = entries_[place(name, type, scope, now, ttl)];
  entry.records = std::move(records);
}

void Cache::insert(const DnsName& name, RRType type,
                   std::vector<ResourceRecord> records, net::SimTime now,
                   uint32_t scope) {
  Section section;
  for (auto& rr : records) section.push_back(std::move(rr));
  insert(name, type, std::move(section), now, scope);
}

void Cache::insert_negative(const DnsName& name, RRType type, uint32_t ttl_s,
                            net::SimTime now, uint32_t scope) {
  ttl_s = std::min(ttl_s, kMaxTtlS);
  if (ttl_s == 0) return;
  Entry& entry = entries_[place(name, type, scope, now, ttl_s)];
  entry.records.clear();
  entry.negative = true;
}

uint32_t Cache::place(const DnsName& name, RRType type, uint32_t scope,
                      net::SimTime now, uint32_t ttl_s) {
  // Eager sweep: every insert drops entries already past their TTL. A
  // dead entry can only ever read as a miss, so reclaiming it here is
  // invisible to lookups — but without the sweep, long device timelines
  // strand expired short-TTL rrsets in their caches (an entry is only
  // consulted again if that device resolves the same name again).
  purge_expired(now);
  const size_t hash = key_hash(name, type, scope);
  uint32_t slot = find(name, type, scope, hash);
  if (slot == kNone) {
    if (free_.empty()) {
      slot = static_cast<uint32_t>(entries_.size());
      entries_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    Entry& entry = entries_[slot];
    entry.name = name;  // a reused slot keeps its name buffer
    entry.type = type;
    entry.scope = scope;
    entry.hash = hash;
    index_insert(slot);
    ++live_;
  }
  Entry& entry = entries_[slot];
  entry.negative = false;
  entry.inserted = now;
  entry.expires = now + net::SimTime::from_seconds(ttl_s);
  earliest_expiry_ = std::min(earliest_expiry_, entry.expires);
  return slot;
}

void Cache::purge_expired(net::SimTime now) {
  if (now < earliest_expiry_) return;
  net::SimTime earliest = kNever;
  for (uint32_t slot = 0; slot < entries_.size(); ++slot) {
    const net::SimTime expires = entries_[slot].expires;
    if (expires <= now) {
      erase_expired(slot);
    } else {
      earliest = std::min(earliest, expires);
    }
  }
  earliest_expiry_ = earliest;
}

void Cache::erase_expired(uint32_t slot) {
  Entry& entry = entries_[slot];
  index_erase(slot);
  entry.records.clear();  // keeps its buffers for the slot's next entry
  entry.expires = kNever;
  --live_;
  free_.push_back(slot);
  ++stats_.expired_evictions;
  cache_metrics().expired.inc();
}

void Cache::clear() {
  entries_.clear();
  free_.clear();
  index_.clear();
  earliest_expiry_ = kNever;
  live_ = 0;
}

// --- index ------------------------------------------------------------------

void Cache::grow_index() {
  std::vector<uint32_t> old = std::move(index_);
  index_.assign(old.empty() ? kInitialIndexSize : old.size() * 2, 0);
  for (const uint32_t stored : old) {
    if (stored != 0) index_insert(stored - 1);
  }
}

void Cache::index_insert(uint32_t slot) {
  if ((live_ + 1) * 2 > index_.size()) grow_index();
  const size_t mask = index_.size() - 1;
  size_t at = entries_[slot].hash & mask;
  while (index_[at] != 0) at = (at + 1) & mask;
  index_[at] = slot + 1;
}

void Cache::index_erase(uint32_t slot) {
  const size_t mask = index_.size() - 1;
  size_t hole = entries_[slot].hash & mask;
  while (index_[hole] != slot + 1) hole = (hole + 1) & mask;
  // Backward-shift deletion: pull later members of the probe run into the
  // hole whenever their home position does not lie in (hole, at].
  for (size_t at = (hole + 1) & mask; index_[at] != 0; at = (at + 1) & mask) {
    const size_t home = entries_[index_[at] - 1].hash & mask;
    const bool home_in_gap =
        hole <= at ? (hole < home && home <= at) : (hole < home || home <= at);
    if (!home_in_gap) {
      index_[hole] = index_[at];
      hole = at;
    }
  }
  index_[hole] = 0;
}

}  // namespace curtain::dns
