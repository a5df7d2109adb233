#include "cellular/device.h"

#include <memory>
#include <new>
#include <type_traits>

#include "util/contract.h"

namespace curtain::cellular {
namespace {

// Reattach when the device has moved beyond a metro radius.
constexpr double kReattachDistanceKm = 100.0;

/// Carves a value-constructed column of `count` Ts out of the arena at
/// `offset` (which must be aligned for T) and advances the offset.
template <typename T>
std::span<T> carve(std::byte* arena, size_t& offset, size_t count) {
  static_assert(std::is_trivially_destructible_v<T>);
  CURTAIN_DCHECK(offset % alignof(T) == 0) << "misaligned column at " << offset;
  T* first = reinterpret_cast<T*>(arena + offset);
  for (size_t i = 0; i < count; ++i) new (first + i) T();
  offset += count * sizeof(T);
  return std::span<T>(first, count);
}

}  // namespace

Fleet::Fleet(CellularNetwork* carrier, size_t device_count,
             double travel_probability)
    : carrier_(carrier),
      size_(device_count),
      travel_probability_(travel_probability) {
  // One allocation for every column; columns are laid out in descending
  // alignment order so each starts aligned without padding bookkeeping.
  arena_bytes_ = device_count * (sizeof(uint64_t) + 3 * sizeof(net::GeoPoint) +
                                 sizeof(net::SimTime) + sizeof(RrcState) +
                                 2 * sizeof(net::Ipv4Addr) + sizeof(int) +
                                 sizeof(RadioTech) + sizeof(uint8_t));
  arena_ = std::make_unique<std::byte[]>(arena_bytes_);
  size_t offset = 0;
  id_ = carve<uint64_t>(arena_.get(), offset, device_count);
  home_ = carve<net::GeoPoint>(arena_.get(), offset, device_count);
  location_ = carve<net::GeoPoint>(arena_.get(), offset, device_count);
  attach_location_ = carve<net::GeoPoint>(arena_.get(), offset, device_count);
  next_reassign_ = carve<net::SimTime>(arena_.get(), offset, device_count);
  rrc_ = carve<RrcState>(arena_.get(), offset, device_count);
  public_ip_ = carve<net::Ipv4Addr>(arena_.get(), offset, device_count);
  configured_resolver_ =
      carve<net::Ipv4Addr>(arena_.get(), offset, device_count);
  gateway_index_ = carve<int>(arena_.get(), offset, device_count);
  radio_ = carve<RadioTech>(arena_.get(), offset, device_count);
  attached_ = carve<uint8_t>(arena_.get(), offset, device_count);
  CURTAIN_DCHECK(offset == arena_bytes_) << offset << " != " << arena_bytes_;
  for (size_t i = 0; i < device_count; ++i) {
    next_reassign_[i] = net::SimTime{-1};
  }
}

void Fleet::enroll(size_t index, uint64_t device_id, net::GeoPoint home) {
  CURTAIN_DCHECK(index < size_) << "device " << index << " of " << size_;
  id_[index] = device_id;
  home_[index] = home;
}

void Device::reattach(const net::GeoPoint& where, bool allow_gateway_change,
                      net::SimTime now, net::Rng& rng,
                      net::DeviceState& device_state) {
  Fleet& f = *fleet_;
  const auto& profile = f.carrier_->profile();
  const bool attached = f.attached_[index_] != 0;
  if (!attached || (allow_gateway_change &&
                    rng.bernoulli(profile.gateway_change_on_reassign))) {
    f.gateway_index_[index_] = f.carrier_->pick_gateway(where, rng);
  }
  f.public_ip_[index_] =
      f.carrier_->assign_ip(f.gateway_index_[index_], device_state);
  f.configured_resolver_[index_] =
      f.carrier_->configured_resolver(f.id_[index_], f.gateway_index_[index_]);
  f.attach_location_[index_] = where;
  f.attached_[index_] = 1;
  f.next_reassign_[index_] =
      now + net::SimTime::from_seconds(
                rng.exponential(profile.ip_reassign_mean.seconds()));
}

DeviceSnapshot Device::begin_experiment(net::SimTime now, net::Rng& rng,
                                        net::DeviceState& device_state) {
  Fleet& f = *fleet_;
  // Mobility: mostly at home (scattered within a neighborhood so Fig. 9's
  // 10 km static-location filter keeps these), sometimes travelling.
  net::GeoPoint where = net::offset_km(f.home_[index_], rng.normal(0.0, 2.0),
                                       rng.normal(0.0, 2.0));
  if (rng.bernoulli(f.travel_probability_)) {
    const auto& metros = f.carrier_->profile().country == "KR"
                             ? net::kr_metros()
                             : net::us_metros();
    const auto& away = metros[static_cast<size_t>(
        rng.uniform_u64(0, metros.size() - 1))];
    where = net::offset_km(away.location, rng.normal(0.0, 5.0),
                           rng.normal(0.0, 5.0));
  }
  f.location_[index_] = where;

  const bool attached = f.attached_[index_] != 0;
  const bool moved_far =
      attached &&
      net::distance_km(where, f.attach_location_[index_]) > kReattachDistanceKm;
  if (!attached || moved_far) {
    reattach(where, /*allow_gateway_change=*/true, now, rng, device_state);
  } else if (now >= f.next_reassign_[index_]) {
    // Periodic IP reassignment; may or may not change the gateway.
    reattach(f.attach_location_[index_], /*allow_gateway_change=*/true, now,
             rng, device_state);
  }

  f.radio_[index_] = f.carrier_->sample_radio(rng);
  return snapshot();
}

double Device::access_rtt_ms(net::SimTime now, net::Rng& rng) {
  Fleet& f = *fleet_;
  return f.rrc_[index_].access_rtt_ms(f.radio_[index_], now, rng);
}

net::NodeId Device::gateway_node() const {
  return fleet_->carrier_->gateway_node(fleet_->gateway_index_[index_]);
}

}  // namespace curtain::cellular
