// Immutable RRsets and the response sections that borrow them.
//
// Zone data does not change while a campaign runs, so the records an
// authority serves are built once and shared by reference: an `Rrset` is
// one (name, type)'s records, owned by the World object that publishes
// them (a zone's static data, a delegation's NS and glue, a zone's SOA, a
// CDN's per-cluster answers). A `Section` — a message's answer, authority
// or additional section, or a resolution's answer chain — is a short list
// of runs. A shared run borrows records from such an rrset and ages their
// TTLs by the seconds it carries; only records built for one query (a
// dynamic handler's answer, a decoded packet, a test's hand-made message)
// are owned by the section itself.
//
// Sharing is exact because nothing downstream ever rewrites a record:
// caches and forwarders only *age* TTLs, and aging composes — a record
// aged by e1 at one hop and by e2 at the next reads
// max(0, ttl - e1 - e2), the value a copy rewritten at each hop would
// hold.
// Borrowed records carry no reference count: the campaign's worker
// threads read them at once, and they outlive every section that names
// them (World data outlives the campaign; see DESIGN.md §20).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "dns/record.h"
#include "util/smallvec.h"

namespace curtain::dns {

/// One (name, type)'s records, immutable once a section borrows them.
/// Records share the first record's owner name and type.
class Rrset {
 public:
  Rrset() = default;
  explicit Rrset(std::vector<ResourceRecord> records);

  /// Appends a record. Zone builders call this before the zone serves its
  /// first query; a borrowed rrset must never change.
  void add(ResourceRecord rr);

  /// Adds every record's names to `names` (World build).
  void collect_names(NameTable& names) const;
  /// Swaps the records' names for `names`' handles (dns/name_table.h).
  /// Like add(), only before any section borrows the rrset.
  void intern_names(const NameTable& names);

  const std::vector<ResourceRecord>& records() const { return records_; }
  size_t size() const { return records_.size(); }
  const ResourceRecord& front() const { return records_.front(); }
  /// Smallest record TTL (UINT32_MAX when empty).
  uint32_t min_ttl() const { return min_ttl_; }

 private:
  std::vector<ResourceRecord> records_;
  uint32_t min_ttl_ = UINT32_MAX;
};

/// One record as a section presents it: the stored record, read through
/// the TTL aging of the run that holds it.
struct RecordView {
  const DnsName& name;
  RRClass klass;
  uint32_t ttl;  ///< aged
  const Rdata& rdata;

  RRType type() const { return rdata_type(rdata); }
  /// An owned copy with the aged TTL.
  ResourceRecord materialize() const { return {name, klass, ttl, rdata}; }
};

/// A sequence of records held as runs: borrowed slices of shared rrsets,
/// or records this section owns. The records of one run share an owner
/// name and type. Copying a section copies the borrowed runs as pointers
/// and the owned records as records.
class Section {
 public:
  /// One run: `count` consecutive records, each aged by `elapsed_s`.
  struct Run {
    const ResourceRecord* shared = nullptr;  ///< null: an owned run
    uint32_t owned_begin = 0;  ///< owned runs: first index in owned_
    uint32_t count = 0;
    uint32_t elapsed_s = 0;
    uint32_t min_ttl = UINT32_MAX;  ///< smallest un-aged TTL in the run
  };

  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = RecordView;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = RecordView;

    Iterator() = default;
    Iterator(const Section* section, size_t run, size_t at)
        : section_(section), run_(run), at_(at) {}
    RecordView operator*() const { return section_->view(run_, at_); }
    Iterator& operator++() {
      if (++at_ == section_->runs_[run_].count) {
        ++run_;
        at_ = 0;
      }
      return *this;
    }
    Iterator operator++(int) {
      Iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const Iterator& other) const {
      return run_ == other.run_ && at_ == other.at_;
    }

   private:
    const Section* section_ = nullptr;
    size_t run_ = 0;
    size_t at_ = 0;
  };

  Section() = default;

  /// Number of records (not runs).
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Iterator begin() const { return Iterator(this, 0, 0); }
  Iterator end() const { return Iterator(this, runs_.size(), 0); }
  /// The i-th record (a linear walk over the runs).
  RecordView operator[](size_t i) const;
  RecordView front() const { return view(0, 0); }

  /// Appends an owned record.
  void push_back(ResourceRecord rr);
  /// Borrows the first `count` records of `rrset` (all of them by
  /// default), aged by `elapsed_s`; `rrset` must outlive this section.
  void append(const Rrset& rrset, uint32_t elapsed_s = 0,
              size_t count = SIZE_MAX);
  /// Appends every record of `other`, aged by a further `elapsed_s`.
  void append(const Section& other, uint32_t elapsed_s = 0);
  void append(Section&& other);
  /// Appends the first `count` records (all by default) of `other`'s run
  /// `run`, aged by a further `elapsed_s`.
  void append_run(const Section& other, size_t run, uint32_t elapsed_s = 0,
                  size_t count = SIZE_MAX);
  void clear();

  size_t run_count() const { return runs_.size(); }
  const Run& run(size_t i) const { return runs_[i]; }
  /// The k-th stored (un-aged) record of run `run`.
  const ResourceRecord& stored(size_t run, size_t k) const {
    const Run& r = runs_[run];
    return r.shared != nullptr ? r.shared[k] : owned_[r.owned_begin + k];
  }
  /// Smallest aged TTL over every record (UINT32_MAX when empty).
  uint32_t min_ttl() const;

  /// Owned copies of every record with aged TTLs.
  std::vector<ResourceRecord> materialize() const;

  /// Record-wise: same names, classes, aged TTLs and data in order,
  /// however the records are split into runs.
  bool operator==(const Section& other) const;

 private:
  static uint32_t aged(uint32_t ttl, uint32_t elapsed_s) {
    return ttl > elapsed_s ? ttl - elapsed_s : 0;
  }
  RecordView view(size_t run, size_t k) const {
    const ResourceRecord& rr = stored(run, k);
    return {rr.name, rr.klass, aged(rr.ttl, runs_[run].elapsed_s), rr.rdata};
  }
  void push_run(const Run& run);

  /// Two inline runs cover a CNAME link plus its target's rrset.
  util::SmallVec<Run, 2> runs_;
  std::vector<ResourceRecord> owned_;
  size_t size_ = 0;
};

}  // namespace curtain::dns
