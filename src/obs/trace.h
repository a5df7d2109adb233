// curtain::obs — virtual-time span tracer.
//
// Decomposes one DNS resolution into the hops it crossed — radio access,
// stub→LDNS transport, carrier forwarding, recursion, per-upstream-server
// queries, CDN mapping — as nested spans measured against *simulated*
// time (net::SimTime milliseconds), not wall clock. The measurement layer
// begins a trace around a sampled stub query; every instrumented layer
// underneath contributes spans through ScopedSpan without knowing whether
// a trace is active (inactive spans are a single bool check).
//
// Span *durations* are exact virtual-time costs; top-level (depth-0)
// spans of a resolution trace partition the resolution, so their
// durations sum to the client-observed resolution time. Start offsets of
// nested spans are best-effort for display.
//
// `Tracer::end()` hands the completed trace to its caller; sampled study
// resolutions keep theirs in their experiment's record block, reached
// through ResolutionRow::trace().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace curtain::obs {

/// One closed span. `name` must be a string literal (spans are hot-path;
/// traces outlive the call site but not the process).
struct TraceSpan {
  const char* name = "";
  uint16_t depth = 0;      ///< 0 = top-level within the trace
  double start_ms = 0.0;   ///< virtual ms since trace begin
  double duration_ms = 0.0;
};

/// A whole resolution, hop by hop.
struct ResolutionTrace {
  std::vector<TraceSpan> spans;
  double total_ms = 0.0;  ///< end - begin in virtual time

  /// Sum of depth-0 span durations — equals the recorded resolution time.
  double top_level_ms() const;
  /// Indented human rendering, one span per line.
  std::string render() const;
};

class Tracer {
 public:
  /// The calling thread's tracer. Thread-local: a trace decomposes one
  /// resolution executing on one thread, and concurrent campaign shards
  /// must not interleave span stacks. Each shard's sampled traces are
  /// returned through its private Dataset and merged in shard order.
  static Tracer& instance();

  /// Starts a trace at virtual time `now_ms`. Returns false (and does
  /// nothing) when a trace is already active.
  bool begin(double now_ms);
  /// Ends the active trace and returns it.
  ResolutionTrace end(double now_ms);
  bool active() const { return active_ && paused_ == 0; }

  /// Suspends span capture (e.g. around a background-load shadow
  /// resolution whose cost is not charged to the client).
  void pause() { ++paused_; }
  void resume() {
    if (paused_ > 0) --paused_;
  }

  /// Low-level span registration; prefer ScopedSpan.
  int open_span(const char* name, double now_ms);
  void close_span(int index, double now_ms);

  /// Drops any active trace (test isolation).
  void clear();

 private:
  Tracer() = default;

  bool active_ = false;
  int paused_ = 0;
  double begin_ms_ = 0.0;
  ResolutionTrace current_;
  std::vector<int> stack_;  ///< indices of open spans, for depth
};

/// RAII span. Construction registers against the active trace (no-op when
/// none); call finish() with the virtual end time, or let the destructor
/// close it as zero-duration (early-return paths).
class ScopedSpan {
 public:
  ScopedSpan(const char* name, double start_ms) {
    Tracer& tracer = Tracer::instance();
    if (tracer.active()) index_ = tracer.open_span(name, start_ms);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void finish(double end_ms) {
    if (index_ >= 0) Tracer::instance().close_span(index_, end_ms);
    index_ = -1;
  }
  ~ScopedSpan() {
    if (index_ >= 0) Tracer::instance().close_span(index_, start_unset_);
  }

 private:
  static constexpr double start_unset_ = -1.0;  ///< close at span start
  int index_ = -1;
};

}  // namespace curtain::obs
