#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

namespace curtain::obs {

double ResolutionTrace::top_level_ms() const {
  double total = 0.0;
  for (const auto& span : spans) {
    if (span.depth == 0) total += span.duration_ms;
  }
  return total;
}

std::string ResolutionTrace::render() const {
  std::string out;
  char line[160];
  for (const auto& span : spans) {
    std::snprintf(line, sizeof(line), "%*s%-18s +%8.3f ms  %8.3f ms\n",
                  span.depth * 2, "", span.name, span.start_ms,
                  span.duration_ms);
    out += line;
  }
  std::snprintf(line, sizeof(line), "total %.3f ms\n", total_ms);
  out += line;
  return out;
}

Tracer& Tracer::instance() {
  // One tracer per thread: traces decompose a single resolution executing
  // on the calling thread, so concurrent campaign shards each get their
  // own span stack (no locks on the span hot path).
  static thread_local Tracer tracer;
  return tracer;
}

bool Tracer::begin(double now_ms) {
  if (active_) return false;
  active_ = true;
  paused_ = 0;
  begin_ms_ = now_ms;
  current_ = ResolutionTrace{};
  stack_.clear();
  return true;
}

ResolutionTrace Tracer::end(double now_ms) {
  // Close any span left open (early-return paths) as zero-duration.
  while (!stack_.empty()) close_span(stack_.back(), -1.0);
  current_.total_ms = now_ms - begin_ms_;
  active_ = false;
  ResolutionTrace done = std::move(current_);
  current_ = ResolutionTrace{};
  return done;
}

int Tracer::open_span(const char* name, double now_ms) {
  TraceSpan span;
  span.name = name;
  span.depth = static_cast<uint16_t>(stack_.size());
  span.start_ms = now_ms - begin_ms_;
  const int index = static_cast<int>(current_.spans.size());
  current_.spans.push_back(span);
  stack_.push_back(index);
  return index;
}

void Tracer::close_span(int index, double now_ms) {
  if (index < 0 || index >= static_cast<int>(current_.spans.size())) return;
  TraceSpan& span = current_.spans[static_cast<size_t>(index)];
  // now_ms < 0 is the "close at start" sentinel (abandoned span).
  span.duration_ms =
      now_ms < 0.0 ? 0.0 : std::max(0.0, now_ms - begin_ms_ - span.start_ms);
  // Pop the stack through this span; children left open close with it.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == index) break;
  }
}

void Tracer::clear() {
  active_ = false;
  paused_ = 0;
  current_ = ResolutionTrace{};
  stack_.clear();
}

}  // namespace curtain::obs
