// Device state: the mutable state one device's timeline owns.
//
// The campaign engine runs device-major (exec/shard.h): each device's
// whole timeline runs to completion on one worker thread before the next
// device starts. The world's result-visible mutable state — recursive
// resolver caches and query-id counters, client-facing instance caches,
// gateway NAT cursors — is visible only to the device that touched it, so
// it belongs to that device rather than to the shared world object:
//
//  * A DeviceState holds one device's copy of every DeviceLocal<T> it has
//    touched, value-initialized on first touch. It travels beside the
//    device's net::Rng through every call that reads device state
//    (DnsServer::serve, StubResolver::query, CellularNetwork::assign_ip,
//    cellular::Device::begin_experiment, ...), so whoever drives a world
//    object names the device it acts for.
//  * exec::Shard::run keeps one DeviceState per worker and reset()s it at
//    the start of each device, which frees everything the previous device
//    left. World construction and the vantage sweep touch no device state;
//    tests, examples and benches that drive world objects directly make a
//    DeviceState of their own, as many as the devices they model.
//
// A device's state therefore starts empty and evolves only with the
// device's own operations, whichever cohort or worker runs it — which is
// what keeps campaign exports byte-identical across CURTAIN_SHARDS and
// CURTAIN_COHORTS — and live state is bounded by one device per worker
// rather than growing with fleet coverage. A DeviceState is used by one
// thread at a time; nothing in it is shared.
//
// Lookup is an array index. Every DeviceLocal takes a slot number when it
// is built — the world's topology numbers its owners 0, 1, 2, ...
// (Topology::issue_device_slot) — and a DeviceState keeps one table of
// state pointers indexed by slot: it fills the slots its device touches
// and empties exactly those when it is reset or destroyed.
#pragma once

#include <cstdint>
#include <vector>

#include "util/contract.h"

namespace curtain::net {

class DeviceState {
 public:
  /// The (empty) state of the device with fleet-wide enrollment ordinal
  /// `ordinal` (1-based).
  explicit DeviceState(int ordinal);
  ~DeviceState();
  DeviceState(const DeviceState&) = delete;
  DeviceState& operator=(const DeviceState&) = delete;

  /// Frees everything the current device left and relabels the state for
  /// the device with ordinal `ordinal`; the slot table's storage is kept.
  void reset(int ordinal);

  /// The device's ordinal. Part of result-visible seeds (the NAT cursors),
  /// so it depends only on the fleet, never on the cohort partition.
  int ordinal() const { return ordinal_; }

 private:
  template <typename T>
  friend class DeviceLocal;

  struct Slot {
    void* state = nullptr;
    void (*destroy)(void*) = nullptr;
    const void* owner = nullptr;  ///< the DeviceLocal the state belongs to
  };

  /// This device's T for `owner`, which holds `slot`; value-initialized
  /// on first touch.
  template <typename T>
  T& state_for(uint32_t slot, const void* owner) {
    if (slot >= slots_.size()) slots_.resize(slot + 1);
    Slot& entry = slots_[slot];
    if (entry.state == nullptr) {
      entry.state = new T{};
      entry.destroy = [](void* state) { delete static_cast<T*>(state); };
      entry.owner = owner;
      filled_.push_back(slot);
    }
    // Two owners share a slot only if they come from two topologies and
    // one device uses both: that would mix their states.
    CURTAIN_CHECK(entry.owner == owner)
        << "device state slot " << slot << " claimed by two owners";
    return *static_cast<T*>(entry.state);
  }

  /// Frees the filled slots.
  void clear();

  std::vector<Slot> slots_;       ///< indexed by DeviceLocal slot
  std::vector<uint32_t> filled_;  ///< slots this device filled
  int ordinal_ = 0;
};

/// One T per device: `device`'s copy, kept in its DeviceState. Device
/// copies are found by the slot number the owner was built with, unique
/// among the owners one device uses (Topology::issue_device_slot numbers a
/// world's). An owner must not move while a DeviceState holds its state
/// (owners are world objects, built before any device runs and destroyed
/// after the campaign).
template <typename T>
class DeviceLocal {
 public:
  explicit DeviceLocal(uint32_t slot) : slot_(slot) {}
  DeviceLocal(DeviceLocal&&) noexcept = default;
  DeviceLocal(const DeviceLocal&) = delete;
  DeviceLocal& operator=(const DeviceLocal&) = delete;
  DeviceLocal& operator=(DeviceLocal&&) = delete;

  T& get(DeviceState& device) { return device.state_for<T>(slot_, this); }

 private:
  uint32_t slot_;
};

}  // namespace curtain::net
