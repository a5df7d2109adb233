// Runtime contracts: CURTAIN_CHECK / CURTAIN_DCHECK / CURTAIN_UNREACHABLE.
//
// The determinism linter (tools/curtain_lint) enforces what can be seen
// statically; these macros guard the invariants it cannot — the experiment
// id space as record blocks join a store, referential integrity of
// experiment and trace slots at export, allocator exhaustion. A failed contract prints the expression,
// location and any streamed context, then aborts: a loud stop beats a
// silently corrupted dataset.
//
//   CURTAIN_CHECK(base <= max) << "shard " << index << " overflows at " << base;
//
// Policy (DESIGN.md §11): CURTAIN_CHECK for invariants whose failure would
// corrupt exported data or whose cost is negligible (enabled in every build);
// CURTAIN_DCHECK for hot-path assertions (compiled to nothing when NDEBUG is
// defined, i.e. in the default RelWithDebInfo build); CURTAIN_UNREACHABLE()
// for exhaustive-switch tails (aborts with a message in debug, lowers to
// __builtin_unreachable() in release so the optimizer keeps the switch tight).
#pragma once

#include <sstream>

namespace curtain::util::contract_detail {

/// Accumulates streamed context for a failed contract; the destructor
/// prints "file:line: kind failed: expr — context" to stderr and aborts.
class Failure {
 public:
  Failure(const char* kind, const char* file, int line, const char* expr);
  ~Failure();  // [[noreturn]] in effect: always aborts
  Failure(const Failure&) = delete;
  Failure& operator=(const Failure&) = delete;

  template <typename T>
  Failure& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

/// Lowers `operator&` below `<<` so streamed context binds to the Failure
/// before the whole expression collapses to void (the glog idiom).
struct Voidify {
  void operator&(Failure&) const {}
};

[[noreturn]] void unreachable_failed(const char* file, int line);

[[noreturn]] inline void unreachable(const char* file, int line) {
#ifdef NDEBUG
  (void)file;
  (void)line;
  __builtin_unreachable();
#else
  unreachable_failed(file, line);
#endif
}

}  // namespace curtain::util::contract_detail

/// Always-on invariant check. Streams context: CURTAIN_CHECK(x) << "id " << i;
#define CURTAIN_CHECK(condition)                                       \
  (condition) ? (void)0                                                \
              : ::curtain::util::contract_detail::Voidify() &          \
                    ::curtain::util::contract_detail::Failure(         \
                        "CURTAIN_CHECK", __FILE__, __LINE__, #condition)

/// Debug-only check: identical to CURTAIN_CHECK without NDEBUG; compiles to
/// nothing (condition unevaluated, context discarded) when NDEBUG is set.
#ifdef NDEBUG
#define CURTAIN_DCHECK(condition)                                      \
  (true || (condition))                                                \
      ? (void)0                                                        \
      : ::curtain::util::contract_detail::Voidify() &                  \
            ::curtain::util::contract_detail::Failure(                 \
                "CURTAIN_DCHECK", __FILE__, __LINE__, #condition)
#else
#define CURTAIN_DCHECK(condition)                                      \
  (condition) ? (void)0                                                \
              : ::curtain::util::contract_detail::Voidify() &          \
                    ::curtain::util::contract_detail::Failure(         \
                        "CURTAIN_DCHECK", __FILE__, __LINE__, #condition)
#endif

/// Marks a path the surrounding logic has proven impossible.
#define CURTAIN_UNREACHABLE() \
  ::curtain::util::contract_detail::unreachable(__FILE__, __LINE__)
