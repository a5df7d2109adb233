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
//  * A bound scope is a precondition of every read: DeviceLocal::get
//    fails a CURTAIN_CHECK on a thread with none. World construction and
//    the vantage sweep touch no device state; tests, examples and benches
//    that drive world objects directly open a scope of their own.
//
// A device's state therefore starts empty and evolves only with the
// device's own operations, whichever cohort or worker runs it — which is
// what keeps campaign exports byte-identical across CURTAIN_SHARDS and
// CURTAIN_COHORTS — and live state is bounded by one device per worker
// rather than growing with fleet coverage. Nothing here is shared between
// threads: a scope lives on its worker's stack.
//
// Lookup is an array index. Every DeviceLocal takes a slot number when it
// is built — the world's topology numbers its owners 0, 1, 2, ...
// (Topology::issue_device_slot) — and each thread keeps one table of
// state pointers indexed by slot, which its successive scopes share: a
// scope fills the slots its device touches and empties exactly those when
// it closes.
#pragma once

#include <cstdint>
#include <vector>

#include "util/contract.h"

namespace curtain::net {

class DeviceScope {
 public:
  /// Opens the scope of the device with fleet-wide enrollment ordinal
  /// `ordinal` (1-based) on the calling thread. Scopes do not nest.
  explicit DeviceScope(int ordinal);
  ~DeviceScope();
  DeviceScope(const DeviceScope&) = delete;
  DeviceScope& operator=(const DeviceScope&) = delete;

  /// Ordinal of the device bound to the calling thread; a scope must be
  /// bound. Part of result-visible seeds (the NAT cursors), so it depends
  /// only on the fleet, never on the cohort partition.
  static int current_ordinal() { return bound_->ordinal_; }

 private:
  template <typename T>
  friend class DeviceLocal;

  struct Slot {
    void* state = nullptr;
    void (*destroy)(void*) = nullptr;
    const void* owner = nullptr;  ///< the DeviceLocal the state belongs to
  };
  /// The calling thread's slot table, shared by its successive scopes.
  struct Table {
    std::vector<Slot> slots;       ///< indexed by DeviceLocal slot
    std::vector<uint32_t> filled;  ///< slots the open scope filled
  };

  template <typename T>
  static void destroy(void* state) {
    delete static_cast<T*>(state);
  }

  /// This device's T for `owner`, which holds `slot`; value-initialized
  /// on first touch.
  template <typename T>
  T& state_for(uint32_t slot, const void* owner) {
    if (slot >= table_->slots.size()) table_->slots.resize(slot + 1);
    Slot& entry = table_->slots[slot];
    if (entry.state == nullptr) {
      entry.state = new T{};
      entry.destroy = &destroy<T>;
      entry.owner = owner;
      table_->filled.push_back(slot);
    }
    // Two owners share a slot only if they come from two topologies and
    // one device uses both: that would mix their states.
    CURTAIN_CHECK(entry.owner == owner)
        << "device state slot " << slot << " claimed by two owners";
    return *static_cast<T*>(entry.state);
  }

  static Table& thread_table();

  inline static thread_local DeviceScope* bound_ = nullptr;

  int ordinal_;
  Table* table_;
};

/// One T per device: the bound device's copy, which exists only while a
/// DeviceScope is open on the calling thread. Device copies are found by
/// the slot number the owner was built with, unique among the owners one
/// device uses (Topology::issue_device_slot numbers a world's).
/// An owner must not move while a scope holds its state, and must outlive
/// any scope open while it is used (owners are world objects, built
/// before any device runs and destroyed after the campaign).
template <typename T>
class DeviceLocal {
 public:
  explicit DeviceLocal(uint32_t slot) : slot_(slot) {}
  DeviceLocal(DeviceLocal&&) noexcept = default;
  DeviceLocal(const DeviceLocal&) = delete;
  DeviceLocal& operator=(const DeviceLocal&) = delete;
  DeviceLocal& operator=(DeviceLocal&&) = delete;

  T& get() {
    DeviceScope* scope = DeviceScope::bound_;
    CURTAIN_CHECK(scope != nullptr)
        << "device state read with no DeviceScope bound";
    return scope->state_for<T>(slot_, this);
  }

 private:
  uint32_t slot_;
};

}  // namespace curtain::net
