// curtain::obs — process- and subsystem-level memory accounting.
//
// The ROADMAP's million-device campaigns rise or fall on RSS, so the
// flight recorder (flight_recorder.h) samples two channels:
//
//   * process RSS read from the kernel (/proc/self/status, with a
//     getrusage fallback for the peak) — what the container limit sees;
//   * per-subsystem approx_bytes() accounting on the big allocators
//     (measure::RecordStore, dns::Cache, the fleet arena and the world's
//     query-time state) — what explains the RSS.
//
// The approx_bytes() methods report heap *capacities*, not sizes: RSS is
// driven by what vectors reserved, not what they filled. Each separate
// allocation is charged kAllocOverheadBytes for the allocator's chunk
// header and alignment — without it the node-heavy DNS caches read ~18%
// under live heap (measured against mallinfo2 at the million-device
// scale). Still approximations intended for megabyte-scale attribution,
// not byte-exact audits. LaneMemory is the roll-up pair those methods
// aggregate into.
//
// Everything here is profiling-only: values are host-dependent and must
// never feed result state or default metric exports (DESIGN.md §14).
#pragma once

#include <cstddef>

namespace curtain::obs {

/// Per-allocation charge approx_bytes() gauges add for the allocator's
/// chunk header plus alignment padding (glibc malloc: 8–16 byte header,
/// 16-byte alignment — ~16 bytes typical for the node-sized chunks that
/// dominate cache state).
inline constexpr size_t kAllocOverheadBytes = 16;

/// Current resident set size in bytes (VmRSS); 0 when unreadable.
size_t read_current_rss_bytes();

/// Peak resident set size in bytes (VmHWM, falling back to
/// getrusage ru_maxrss); 0 when unreadable.
size_t read_peak_rss_bytes();

/// Roll-up of the world's mutable query-time state still held (the
/// no-device copies; device-scoped copies die with their timelines, see
/// net/device_scope.h): DNS cache payload vs everything else (instance
/// cache containers).
struct LaneMemory {
  size_t cache_bytes = 0;  ///< dns::Cache entries
  size_t state_bytes = 0;  ///< non-cache state + container overhead

  size_t total() const { return cache_bytes + state_bytes; }
  LaneMemory& operator+=(const LaneMemory& other) {
    cache_bytes += other.cache_bytes;
    state_bytes += other.state_bytes;
    return *this;
  }
};

}  // namespace curtain::obs
