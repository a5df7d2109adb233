// Device scopes: the mutable state one device's timeline owns.
//
// The campaign engine runs device-major (exec/shard.h): each device's
// whole timeline runs to completion on one worker thread before the next
// device starts. The world's result-visible mutable state — recursive
// resolver caches and query-id counters, client-facing instance caches,
// gateway NAT cursors — is visible only to the device that touched it, so
// it belongs to that device rather than to the shared world object:
//
//  * exec::Shard::run opens one DeviceScope per device. While a scope is
//    open on a thread, every DeviceLocal<T> that thread reads resolves to
//    a T the scope value-initializes on first touch. Destroying the scope
//    at the end of the device's timeline frees all of it.
//  * Code with no device bound (world construction, the vantage sweep,
//    tests, tools) reads the single T each DeviceLocal holds inline, which
//    persists for the owner's lifetime.
//
// A device's state therefore starts empty and evolves only with the
// device's own operations, whichever cohort or worker runs it — which is
// what keeps campaign exports byte-identical across CURTAIN_SHARDS and
// CURTAIN_COHORTS — and live state is bounded by one device per worker
// rather than growing with fleet coverage. Nothing here is shared between
// threads: a scope lives on its worker's stack, and the inline values are
// only touched by code with no device bound.
#pragma once

#include <memory>
#include <unordered_map>

#include "util/contract.h"

namespace curtain::net {

class DeviceScope {
 public:
  /// Opens the scope of the device with fleet-wide enrollment ordinal
  /// `ordinal` (1-based) on the calling thread. Scopes do not nest.
  explicit DeviceScope(int ordinal) : ordinal_(ordinal) {
    CURTAIN_CHECK(ordinal > 0) << "device ordinal " << ordinal << " not 1-based";
    CURTAIN_CHECK(bound_ == nullptr)
        << "device scope " << ordinal << " opened inside scope "
        << bound_->ordinal_;
    bound_ = this;
  }
  ~DeviceScope() { bound_ = nullptr; }
  DeviceScope(const DeviceScope&) = delete;
  DeviceScope& operator=(const DeviceScope&) = delete;

  /// Ordinal of the device bound to the calling thread; 0 when none. Part
  /// of result-visible seeds (the NAT cursors), so it depends only on the
  /// fleet, never on the cohort partition.
  static int current_ordinal() {
    return bound_ == nullptr ? 0 : bound_->ordinal_;
  }

 private:
  template <typename T>
  friend class DeviceLocal;

  struct Slot {
    virtual ~Slot() = default;
  };
  template <typename T>
  struct Value final : Slot {
    T value{};
  };

  /// This device's T for `owner`, value-initialized on first touch.
  template <typename T>
  T& state_for(const void* owner) {
    std::unique_ptr<Slot>& slot = slots_[owner];
    if (slot == nullptr) slot = std::make_unique<Value<T>>();
    CURTAIN_DCHECK(dynamic_cast<Value<T>*>(slot.get()) != nullptr)
        << "device state owner reused with another type";
    return static_cast<Value<T>&>(*slot).value;
  }

  inline static thread_local DeviceScope* bound_ = nullptr;

  int ordinal_;
  /// Keyed by the owning DeviceLocal's address; lookups only, never
  /// iterated, so hash order cannot reach results.
  std::unordered_map<const void*, std::unique_ptr<Slot>> slots_;
};

/// One T per device: the bound device's copy while a DeviceScope is open
/// on the calling thread, the inline copy otherwise. Device copies are
/// keyed by this object's address, so an owner must not move, and must
/// outlive, any scope open while it is used (owners are world objects,
/// built before any device runs and destroyed after the campaign).
template <typename T>
class DeviceLocal {
 public:
  T& get() {
    DeviceScope* scope = DeviceScope::bound_;
    return scope == nullptr ? unbound_ : scope->state_for<T>(this);
  }

  /// The copy code with no device bound uses — all that outlives a
  /// campaign (memory accounting, tests).
  const T& unbound() const { return unbound_; }

 private:
  T unbound_{};
};

}  // namespace curtain::net
