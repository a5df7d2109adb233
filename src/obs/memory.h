// curtain::obs — process- and subsystem-level memory accounting.
//
// The ROADMAP's million-device campaigns rise or fall on RSS, so the
// flight recorder (flight_recorder.h) samples two channels:
//
//   * process RSS read from the kernel (/proc/self/status, with a
//     getrusage fallback for the peak) — what the container limit sees;
//   * per-subsystem byte accounting on the big allocators
//     (measure::RecordStore's blocks, the fleet arena) — what explains
//     the RSS.
//
// The accounting reports heap *capacities*, not sizes: RSS is driven by
// what vectors reserved, not what they filled. Still approximations
// intended for megabyte-scale attribution, not byte-exact audits. Device
// state (net/device_state.h) is not accounted: it lives only while its
// device's timeline runs.
//
// Everything here is profiling-only: values are host-dependent and must
// never feed result state or default metric exports (DESIGN.md §14).
#pragma once

#include <cstddef>

namespace curtain::obs {

/// Current resident set size in bytes (VmRSS); 0 when unreadable.
size_t read_current_rss_bytes();

/// Peak resident set size in bytes (VmHWM, falling back to
/// getrusage ru_maxrss); 0 when unreadable.
size_t read_peak_rss_bytes();

}  // namespace curtain::obs
