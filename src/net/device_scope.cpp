#include "net/device_scope.h"

namespace curtain::net {

DeviceScope::Table& DeviceScope::thread_table() {
  thread_local Table table;
  return table;
}

DeviceScope::DeviceScope(int ordinal)
    : ordinal_(ordinal), table_(&thread_table()) {
  CURTAIN_CHECK(ordinal > 0) << "device ordinal " << ordinal << " not 1-based";
  CURTAIN_CHECK(bound_ == nullptr)
      << "device scope " << ordinal << " opened inside scope "
      << bound_->ordinal_;
  bound_ = this;
}

DeviceScope::~DeviceScope() {
  for (const uint32_t slot : table_->filled) {
    Slot& entry = table_->slots[slot];
    entry.destroy(entry.state);
    entry = Slot{};
  }
  table_->filled.clear();
  bound_ = nullptr;
}

}  // namespace curtain::net
