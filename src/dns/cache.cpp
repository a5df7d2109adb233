// lint-hot-path (cache lookup/insert path; see dns/cache.h)
#include "dns/cache.h"

#include <algorithm>

#include "obs/memory.h"
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

}  // namespace

std::optional<CacheHit> Cache::lookup(const DnsName& name, RRType type,
                                      net::SimTime now, uint32_t scope) {
  const auto it = entries_.find(Key{name, type, scope});
  if (it == entries_.end()) {
    ++stats_.misses;
    cache_metrics().misses.inc();
    return std::nullopt;
  }
  if (it->second.data.expires <= now) {
    erase_expired_entry(it);
    ++stats_.misses;
    cache_metrics().misses.inc();
    return std::nullopt;
  }
  ++stats_.hits;
  cache_metrics().hits.inc();
  const auto elapsed_s =
      static_cast<uint32_t>((now - it->second.data.inserted).seconds());
  return CacheHit(&it->second.data, elapsed_s);
}

void Cache::insert(const DnsName& name, RRType type,
                   std::vector<ResourceRecord> records, net::SimTime now,
                   uint32_t scope) {
  if (records.empty()) return;
  uint32_t ttl = UINT32_MAX;
  for (const auto& rr : records) ttl = std::min(ttl, rr.ttl);
  // Uncacheable before the clamp: a min_ttl floor must not turn an
  // authority's explicit "do not cache" (TTL 0) into a cached entry.
  if (ttl == 0) return;
  ttl = std::clamp(ttl, min_ttl_s_, max_ttl_s_);
  if (ttl == 0) return;  // max_ttl of zero disables caching entirely
  CachedRrset entry;
  entry.records = std::move(records);
  entry.inserted = now;
  entry.expires = now + net::SimTime::from_seconds(ttl);
  insert_entry(Key{name, type, scope}, std::move(entry));
}

void Cache::insert_negative(const DnsName& name, RRType type, uint32_t ttl_s,
                            net::SimTime now, uint32_t scope) {
  if (ttl_s == 0) return;  // same pre-clamp rule as positive entries
  ttl_s = std::clamp(ttl_s, min_ttl_s_, max_ttl_s_);
  if (ttl_s == 0) return;
  CachedRrset entry;
  entry.negative = true;
  entry.inserted = now;
  entry.expires = now + net::SimTime::from_seconds(ttl_s);
  insert_entry(Key{name, type, scope}, std::move(entry));
}

void Cache::insert_entry(Key key, CachedRrset entry) {
  // Eager sweep: every insert drops entries already past their TTL. A
  // dead entry can only ever read as a miss, so reclaiming it here is
  // invisible to lookups — but without the sweep, long device timelines
  // strand expired short-TTL rrsets in their caches (an entry is only
  // consulted again if that device resolves the same name again).
  purge_expired(entry.inserted);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Overwrite: drop the stale index slot; the map node stays put.
    expiry_.erase(it->second.expiry_it);
  } else {
    // The sweep above already cleared dead entries, so anything evicted
    // for capacity now is genuinely live.
    while (entries_.size() >= max_entries_) evict_for_capacity();
    it = entries_.emplace(std::move(key), Entry{}).first;
  }
  it->second.data = std::move(entry);
  it->second.expiry_it = expiry_.emplace(it->second.data.expires, &it->first);
}

void Cache::purge_expired(net::SimTime now) {
  while (!expiry_.empty() && expiry_.begin()->first <= now) {
    erase_expired_entry(entries_.find(*expiry_.begin()->second));
  }
}

void Cache::evict_for_capacity() {
  if (expiry_.empty()) return;
  const auto victim = expiry_.begin();
  entries_.erase(*victim->second);
  expiry_.erase(victim);
  ++stats_.capacity_evictions;
  cache_metrics().capacity.inc();
}

void Cache::erase_expired_entry(EntryMap::iterator it) {
  expiry_.erase(it->second.expiry_it);
  entries_.erase(it);
  ++stats_.expired_evictions;
  cache_metrics().expired.inc();
}

void Cache::clear() {
  entries_.clear();
  expiry_.clear();
}

size_t Cache::approx_bytes() const {
  // Hash-map node ≈ key + entry + bucket/next pointers; the multimap node
  // carries the usual rb-tree overhead. Every node and record vector is a
  // separate allocation, so each is charged obs::kAllocOverheadBytes, and
  // the rrsets' owned heap (name/rdata spill) is counted per record.
  // Commutative integer sum, so the hash iteration order cannot leak into
  // the result.
  constexpr size_t kMapNodeOverhead =
      2 * sizeof(void*) + obs::kAllocOverheadBytes;
  constexpr size_t kTreeNodeOverhead =
      4 * sizeof(void*) + obs::kAllocOverheadBytes;
  size_t bytes =
      entries_.size() *
          (sizeof(Key) + sizeof(Entry) + kMapNodeOverhead) +
      expiry_.size() *
          (sizeof(net::SimTime) + sizeof(const Key*) + kTreeNodeOverhead) +
      entries_.bucket_count() * sizeof(void*);
  for (const auto& [key, entry] : entries_) {  // lint: order-insensitive
    bytes += key.name.approx_heap_bytes();
    if (entry.data.records.capacity() != 0) {
      bytes += entry.data.records.capacity() * sizeof(ResourceRecord) +
               obs::kAllocOverheadBytes;
    }
    for (const auto& rr : entry.data.records) bytes += rr.approx_heap_bytes();
  }
  return bytes;
}

void Cache::set_ttl_bounds(uint32_t min_ttl_s, uint32_t max_ttl_s) {
  min_ttl_s_ = min_ttl_s;
  max_ttl_s_ = std::max(min_ttl_s, max_ttl_s);
}

}  // namespace curtain::dns
