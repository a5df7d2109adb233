#include "net/device_state.h"

namespace curtain::net {

DeviceState::DeviceState(int ordinal) { reset(ordinal); }

DeviceState::~DeviceState() { clear(); }

void DeviceState::reset(int ordinal) {
  CURTAIN_CHECK(ordinal > 0) << "device ordinal " << ordinal << " not 1-based";
  clear();
  ordinal_ = ordinal;
}

void DeviceState::clear() {
  for (const uint32_t slot : filled_) {
    Slot& entry = slots_[slot];
    entry.destroy(entry.state);
    entry = Slot{};
  }
  filled_.clear();
}

}  // namespace curtain::net
