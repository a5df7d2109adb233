// lint-hot-path (every DNS hop builds and reads sections; see dns/rrset.h)
#include "dns/rrset.h"

#include <algorithm>

#include "util/contract.h"

namespace curtain::dns {

Rrset::Rrset(std::vector<ResourceRecord> records) {
  records_.reserve(records.size());
  for (auto& rr : records) add(std::move(rr));
}

void Rrset::add(ResourceRecord rr) {
  CURTAIN_DCHECK(records_.empty() || (rr.name == records_.front().name &&
                                      rr.type() == records_.front().type()))
      << "rrset mixes " << records_.front().to_string() << " and "
      << rr.to_string();
  min_ttl_ = std::min(min_ttl_, rr.ttl);
  records_.push_back(std::move(rr));
}

void Rrset::collect_names(NameTable& names) const {
  for (const ResourceRecord& rr : records_) rr.collect_names(names);
}

void Rrset::intern_names(const NameTable& names) {
  // The records share one owner: each takes the first record's, looked up
  // once, so interning them reads no labels.
  for (ResourceRecord& rr : records_) {
    if (&rr != &records_.front()) rr.name = records_.front().name;
    rr.intern_names(names);
  }
}

namespace {

/// Smallest TTL of `count` consecutive records.
uint32_t min_ttl_of(const ResourceRecord* records, size_t count) {
  uint32_t ttl = UINT32_MAX;
  for (size_t k = 0; k < count; ++k) ttl = std::min(ttl, records[k].ttl);
  return ttl;
}

}  // namespace

RecordView Section::operator[](size_t i) const {
  CURTAIN_DCHECK(i < size_) << "record " << i << " of " << size_;
  size_t run = 0;
  while (i >= runs_[run].count) i -= runs_[run++].count;
  return view(run, i);
}

void Section::push_run(const Run& run) {
  if (run.count == 0) return;
  runs_.push_back(run);
  size_ += run.count;
}

void Section::push_back(ResourceRecord rr) {
  Run run;
  run.owned_begin = static_cast<uint32_t>(owned_.size());
  run.count = 1;
  run.min_ttl = rr.ttl;
  owned_.push_back(std::move(rr));
  push_run(run);
}

void Section::append(const Rrset& rrset, uint32_t elapsed_s, size_t count) {
  Run run;
  run.shared = rrset.records().data();
  run.count = static_cast<uint32_t>(std::min(count, rrset.size()));
  run.elapsed_s = elapsed_s;
  run.min_ttl = run.count == rrset.size() ? rrset.min_ttl()
                                          : min_ttl_of(run.shared, run.count);
  push_run(run);
}

void Section::append_run(const Section& other, size_t index,
                         uint32_t elapsed_s, size_t count) {
  Run run = other.runs_[index];
  run.elapsed_s += elapsed_s;
  if (count < run.count) {
    run.count = static_cast<uint32_t>(count);
    run.min_ttl = min_ttl_of(&other.stored(index, 0), run.count);
  }
  if (run.shared == nullptr) {
    const auto first = other.owned_.begin() + run.owned_begin;
    run.owned_begin = static_cast<uint32_t>(owned_.size());
    owned_.insert(owned_.end(), first, first + run.count);
  }
  push_run(run);
}

void Section::append(const Section& other, uint32_t elapsed_s) {
  for (size_t i = 0; i < other.runs_.size(); ++i) {
    append_run(other, i, elapsed_s);
  }
}

void Section::append(Section&& other) {
  if (empty()) {
    *this = std::move(other);
    other.clear();
    return;
  }
  const auto base = static_cast<uint32_t>(owned_.size());
  for (auto& rr : other.owned_) owned_.push_back(std::move(rr));
  for (Run run : other.runs_) {
    if (run.shared == nullptr) run.owned_begin += base;
    push_run(run);
  }
  other.clear();
}

void Section::clear() {
  runs_.clear();
  owned_.clear();
  size_ = 0;
}

uint32_t Section::min_ttl() const {
  uint32_t ttl = UINT32_MAX;
  for (const Run& run : runs_) {
    ttl = std::min(ttl, aged(run.min_ttl, run.elapsed_s));
  }
  return ttl;
}

std::vector<ResourceRecord> Section::materialize() const {
  std::vector<ResourceRecord> out;
  out.reserve(size_);
  for (const RecordView rr : *this) out.push_back(rr.materialize());
  return out;
}

bool Section::operator==(const Section& other) const {
  if (size_ != other.size_) return false;
  auto mine = begin();
  for (const RecordView theirs : other) {
    const RecordView rr = *mine;
    if (rr.ttl != theirs.ttl || rr.klass != theirs.klass ||
        !(rr.name == theirs.name) || !(rr.rdata == theirs.rdata)) {
      return false;
    }
    ++mine;
  }
  return true;
}

}  // namespace curtain::dns
