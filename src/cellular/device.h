// A measurement device: one volunteer handset of the fleet.
//
// The mutable client-side state the paper's analyses depend on — current
// gateway attachment, ephemeral public IP, DHCP-configured resolver,
// active radio technology and RRC state — lives in the carrier Fleet's
// struct-of-arrays columns, carved out of one arena allocation per
// carrier. A Device is a cheap handle (fleet pointer + index) exposing the
// per-device API over those columns; the mobility / reattachment processes
// that churn the state are unchanged. Stationary devices still churn
// resolvers (Fig. 9) because reattachment and carrier-side re-pairing are
// time-driven, not movement-driven.
//
// The SoA layout is what lets a 10^6-device fleet fit in a few flat
// buffers (~100 B/device, no per-device heap object), and concurrent
// cohorts of one carrier touch disjoint index ranges of the shared
// columns, so the partition stays race-free.
#pragma once

#include <cstddef>
#include <memory>
#include <span>

#include "cellular/carrier.h"
#include "cellular/radio.h"
#include "net/geo.h"

namespace curtain::cellular {

class Device;

/// The device's network context at the start of one experiment. Captured
/// in every measurement record (the paper logs the same context fields).
struct DeviceSnapshot {
  net::GeoPoint location;
  int gateway_index = 0;
  net::Ipv4Addr public_ip;
  net::Ipv4Addr configured_resolver;
  RadioTech radio = RadioTech::kLte;
};

/// One carrier's enrolled devices, as struct-of-arrays columns in a
/// single arena allocation. Built by cellular::build_carrier_fleet and
/// sliced into cohorts by the campaign engine; Device handles index into
/// it. Movable (the columns view the heap arena, not the Fleet object);
/// not copyable.
class Fleet {
 public:
  /// `travel_probability` is the chance an experiment runs away from home.
  Fleet(CellularNetwork* carrier, size_t device_count,
        double travel_probability = 0.10);

  Fleet(Fleet&&) = default;
  Fleet& operator=(Fleet&&) = default;

  size_t size() const { return size_; }
  CellularNetwork& carrier() const { return *carrier_; }

  /// Handle for device `index`; valid while the Fleet is alive.
  Device device(size_t index);

  /// Sets the identity columns of device `index` (fleet construction).
  void enroll(size_t index, uint64_t device_id, net::GeoPoint home);

  /// Bytes of the fleet arena (all columns; one allocation). A profiling
  /// gauge — see obs/memory.h.
  size_t arena_bytes() const { return arena_bytes_; }

 private:
  friend class Device;

  CellularNetwork* carrier_;
  size_t size_;
  double travel_probability_;
  size_t arena_bytes_ = 0;
  std::unique_ptr<std::byte[]> arena_;

  // Columns, descending alignment so every offset stays aligned.
  std::span<uint64_t> id_;
  std::span<net::GeoPoint> home_;
  std::span<net::GeoPoint> location_;
  std::span<net::GeoPoint> attach_location_;
  std::span<net::SimTime> next_reassign_;
  std::span<RrcState> rrc_;
  std::span<net::Ipv4Addr> public_ip_;
  std::span<net::Ipv4Addr> configured_resolver_;
  std::span<int> gateway_index_;
  std::span<RadioTech> radio_;
  std::span<uint8_t> attached_;
};

class Device {
 public:
  Device() = default;
  Device(Fleet* fleet, size_t index) : fleet_(fleet), index_(index) {}

  uint64_t id() const { return fleet_->id_[index_]; }
  CellularNetwork& carrier() { return *fleet_->carrier_; }
  const CellularNetwork& carrier() const { return *fleet_->carrier_; }
  const net::GeoPoint& home() const { return fleet_->home_[index_]; }

  /// Advances attachment state to `now` (reassignment, mobility, radio
  /// draw) and returns the experiment context. A new address comes from
  /// the NAT cursor in `device_state`, this device's state.
  DeviceSnapshot begin_experiment(net::SimTime now, net::Rng& rng,
                                  net::DeviceState& device_state);

  /// Radio access RTT for one probe at `now` on the current technology,
  /// paying RRC promotion if the radio idled.
  double access_rtt_ms(net::SimTime now, net::Rng& rng);

  /// Topology anchor for the device's traffic (its gateway).
  net::NodeId gateway_node() const;

  DeviceSnapshot snapshot() const {
    DeviceSnapshot snapshot;
    snapshot.location = fleet_->location_[index_];
    snapshot.gateway_index = fleet_->gateway_index_[index_];
    snapshot.public_ip = fleet_->public_ip_[index_];
    snapshot.configured_resolver = fleet_->configured_resolver_[index_];
    snapshot.radio = fleet_->radio_[index_];
    return snapshot;
  }

 private:
  void reattach(const net::GeoPoint& where, bool allow_gateway_change,
                net::SimTime now, net::Rng& rng,
                net::DeviceState& device_state);

  Fleet* fleet_ = nullptr;
  size_t index_ = 0;
};

inline Device Fleet::device(size_t index) { return Device(this, index); }

}  // namespace curtain::cellular
