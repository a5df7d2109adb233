// lint-hot-path (find/closest serve dynamic names on DNS hops; see
// dns/name_table.h)
#include "dns/name_table.h"

#include <algorithm>
#include <string_view>

#include "util/contract.h"

namespace curtain::dns {

void NameTable::add(const DnsName& name) {
  CURTAIN_CHECK(!frozen_) << "NameTable::add after freeze";
  pending_.push_back(name.text());
}

void NameTable::freeze() {
  CURTAIN_CHECK(!frozen_) << "NameTable frozen twice";
  // Each added text and each ancestor, once. A name's ancestors are
  // climbed only when the name is new, and the climb stops at the first
  // ancestor already present, whose own ancestors are then present too.
  std::vector<DnsName> names;
  std::vector<uint32_t> seen(16, 0);  // names index + 1 by hash; 0 = empty
  const auto insert = [&](DnsName&& name) {
    if (2 * (names.size() + 1) > seen.size()) {
      std::vector<uint32_t> grown(2 * seen.size(), 0);
      for (const uint32_t stored : seen) {
        if (stored == 0) continue;
        size_t at = names[stored - 1].hash() & (grown.size() - 1);
        while (grown[at] != 0) at = (at + 1) & (grown.size() - 1);
        grown[at] = stored;
      }
      seen = std::move(grown);
    }
    const size_t mask = seen.size() - 1;
    size_t at = name.hash() & mask;
    for (; seen[at] != 0; at = (at + 1) & mask) {
      if (names[seen[at] - 1] == name) return false;
    }
    names.push_back(std::move(name));
    seen[at] = static_cast<uint32_t>(names.size());
    return true;
  };
  insert(DnsName{});  // the root
  for (DnsName& added : pending_) {
    DnsName parent = added.parent();
    if (!insert(std::move(added))) continue;
    while (insert(std::move(parent))) parent = names.back().parent();
  }
  pending_ = {};
  // Ids in operator< order: this sort is what makes id order name order.
  std::sort(names.begin(), names.end());

  entries_ = std::vector<InternedName>(names.size());
  size_t index_size = 16;
  while (index_size < 2 * names.size()) index_size *= 2;
  index_.assign(index_size, 0);
  const size_t mask = index_size - 1;
  for (size_t id = 0; id < names.size(); ++id) {
    InternedName& entry = entries_[id];
    entry.text = std::move(names[id]);
    entry.table = this;
    entry.hash = entry.text.hash();
    entry.id = static_cast<NameId>(id);
    entry.handle.interned_ = &entry;
    size_t at = entry.hash & mask;
    while (index_[at] != 0) at = (at + 1) & mask;
    index_[at] = static_cast<uint32_t>(id + 1);
  }
  for (InternedName& entry : entries_) {
    entry.parent =
        entry.text.is_root()
            ? &entry
            : &entries_[find_suffix(entry.text, 1, entry.text.hash_from(1))];
  }
  frozen_ = true;
}

NameId NameTable::find(const DnsName& name) const {
  if (name.interned_ != nullptr && name.interned_->table == this) {
    return name.interned_->id;
  }
  return find_suffix(name, 0, name.hash());
}

NameId NameTable::closest(const DnsName& name) const {
  const NameId id = find(name);
  if (id != kNoNameId) return id;
  // Strip labels from the left; the last suffix tried is the root.
  for (size_t skip = 1; skip <= name.label_count(); ++skip) {
    const NameId found = find_suffix(name, skip, name.hash_from(skip));
    if (found != kNoNameId) return found;
  }
  return kNoNameId;  // only an unfrozen (empty) table
}

void NameTable::intern(DnsName& name) const {
  const NameId id = find(name);
  if (id != kNoNameId) name = entries_[id].handle;
}

NameId NameTable::find_suffix(const DnsName& name, size_t skip,
                              size_t hash) const {
  if (index_.empty()) return kNoNameId;
  const DnsName& t = name.text();
  const size_t count = t.ends_.size() - skip;
  const size_t byte_off = skip == 0 ? 0 : t.ends_[skip - 1];
  const std::string_view bytes = std::string_view(t.bytes_).substr(byte_off);
  const size_t mask = index_.size() - 1;
  for (size_t at = hash & mask;; at = (at + 1) & mask) {
    const uint32_t stored = index_[at];
    if (stored == 0) return kNoNameId;
    const InternedName& entry = entries_[stored - 1];
    const DnsName& e = entry.text;
    if (entry.hash != hash || e.ends_.size() != count || e.bytes_ != bytes) {
      continue;
    }
    // Equal bytes must also break at equal label boundaries.
    bool same = true;
    for (size_t i = 0; i < count && same; ++i) {
      same = static_cast<size_t>(t.ends_[skip + i]) - byte_off ==
             static_cast<size_t>(e.ends_[i]);
    }
    if (same) return entry.id;
  }
}

}  // namespace curtain::dns
