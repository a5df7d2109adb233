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
  obs::Counter& capacity = obs::metrics().counter(
      "curtain_dns_cache_capacity_evictions_total",
      "cache entries evicted by the size cap");
};

CacheMetrics& cache_metrics() {
  // Handles re-bind whenever the thread's sheaf changes (obs/metrics.h).
  static thread_local obs::SheafLocal<CacheMetrics> metrics;
  return metrics.get();
}

constexpr size_t kInitialIndexSize = 16;

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
    erase_expired_entry(slot);
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

uint32_t Cache::entry_ttl(uint32_t min_ttl) const {
  if (min_ttl == UINT32_MAX) return 0;  // no records
  // Uncacheable before the clamp: a min_ttl floor must not turn an
  // authority's explicit "do not cache" (TTL 0) into a cached entry.
  if (min_ttl == 0) return 0;
  // A max_ttl of zero disables caching entirely.
  return std::clamp(min_ttl, min_ttl_s_, max_ttl_s_);
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
  if (ttl_s == 0) return;  // same pre-clamp rule as positive entries
  ttl_s = std::clamp(ttl_s, min_ttl_s_, max_ttl_s_);
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
  const bool overwrite = slot != kNone;
  if (!overwrite) {
    // The sweep above already cleared dead entries, so anything evicted
    // for capacity now is genuinely live.
    while (live_ >= max_entries_ && !heap_.empty()) evict_for_capacity();
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
  // A fresh sequence on overwrite too: among entries that share an
  // expiry, eviction takes the one inserted or overwritten first.
  entry.sequence = next_sequence_++;
  if (overwrite) {
    heap_fix(entry.heap_at);
  } else {
    heap_push(slot);
  }
  return slot;
}

void Cache::purge_expired(net::SimTime now) {
  while (!heap_.empty() && entries_[heap_.front()].expires <= now) {
    erase_expired_entry(heap_.front());
  }
}

void Cache::evict_for_capacity() {
  if (heap_.empty()) return;
  erase(heap_.front());
  ++stats_.capacity_evictions;
  cache_metrics().capacity.inc();
}

void Cache::erase_expired_entry(uint32_t slot) {
  erase(slot);
  ++stats_.expired_evictions;
  cache_metrics().expired.inc();
}

void Cache::erase(uint32_t slot) {
  Entry& entry = entries_[slot];
  index_erase(slot);
  heap_remove(entry.heap_at);
  entry.heap_at = kNone;
  entry.records.clear();  // keeps its buffers for the slot's next entry
  --live_;
  free_.push_back(slot);
}

void Cache::clear() {
  entries_.clear();
  free_.clear();
  index_.clear();
  heap_.clear();
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

// --- expiry heap -------------------------------------------------------------

void Cache::heap_push(uint32_t slot) {
  heap_.push_back(slot);
  entries_[slot].heap_at = static_cast<uint32_t>(heap_.size() - 1);
  sift_up(heap_.size() - 1);
}

void Cache::heap_remove(size_t at) {
  const uint32_t last = heap_.back();
  heap_.pop_back();
  if (at == heap_.size()) return;
  heap_set(at, last);
  heap_fix(at);
}

void Cache::heap_fix(size_t at) {
  if (at > 0 && heap_less(heap_[at], heap_[(at - 1) / 2])) {
    sift_up(at);
  } else {
    sift_down(at);
  }
}

void Cache::sift_up(size_t at) {
  const uint32_t slot = heap_[at];
  while (at > 0) {
    const size_t parent = (at - 1) / 2;
    if (!heap_less(slot, heap_[parent])) break;
    heap_set(at, heap_[parent]);
    at = parent;
  }
  heap_set(at, slot);
}

void Cache::sift_down(size_t at) {
  const uint32_t slot = heap_[at];
  const size_t n = heap_.size();
  for (;;) {
    size_t child = 2 * at + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_less(heap_[child + 1], heap_[child])) ++child;
    if (!heap_less(heap_[child], slot)) break;
    heap_set(at, heap_[child]);
    at = child;
  }
  heap_set(at, slot);
}

void Cache::set_ttl_bounds(uint32_t min_ttl_s, uint32_t max_ttl_s) {
  min_ttl_s_ = min_ttl_s;
  max_ttl_s_ = std::max(min_ttl_s, max_ttl_s);
}

}  // namespace curtain::dns
