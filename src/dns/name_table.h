// NameTable: the study's static namespace, numbered once.
//
// Every name the World's DNS data mentions — zone apexes, record owners,
// delegations and their glue, CNAME targets, SOA names, the CDN names — is
// fixed once the World is built. The World adds them all (with every
// ancestor) to one table and freezes it before the first query; freezing
// sorts the names and numbers them, so a NameId orders exactly as
// DnsName::operator< does and every sort or tie-break over names keeps its
// order. The zones then swap each stored name for the table's handle
// (dns/name.h) and index their data by id, so a DNS hop copies, hashes
// and compares handles and looks zone data up in arrays.
//
// Only text decides whether a name is static: find() maps a dynamic name
// (parsed, decoded, or built for one query) to the id of the entry that
// spells it, so a lookup never misses because of where its name came from.
// The stored hash is the name's own FNV hash, not an id mix, because the
// CDN's replica rotation mixes DnsName::hash() into its result.
//
// A frozen table is immutable and read by every campaign worker at once.
// It must outlive every handle it issued.
//
// lint-hot-path: find() and closest() run on DNS hops with dynamic names.
#pragma once

#include <cstdint>
#include <vector>

#include "dns/name.h"

namespace curtain::dns {

class NameTable {
 public:
  NameTable() = default;
  // Entries and handles point at the table: it never moves.
  NameTable(const NameTable&) = delete;
  NameTable& operator=(const NameTable&) = delete;

  /// Adds `name`'s text (and, at freeze(), every ancestor). Only before
  /// freeze().
  void add(const DnsName& name);
  /// Numbers the names added so far, plus their ancestors and the root,
  /// in DnsName::operator< order. After this the table is read-only.
  void freeze();
  bool frozen() const { return frozen_; }

  size_t size() const { return entries_.size(); }
  /// The handle on static name `id`.
  const DnsName& name(NameId id) const { return entries_[id].handle; }
  /// `id`'s parent (the root's is the root).
  NameId parent(NameId id) const { return entries_[id].parent->id; }

  /// The id of the static name spelled like `name`; kNoNameId if `name`
  /// is not static. One load for this table's handles, one probe by hash
  /// otherwise.
  NameId find(const DnsName& name) const;
  /// The id of `name`'s deepest static ancestor-or-self. The root is
  /// always static, so this always finds one.
  NameId closest(const DnsName& name) const;
  /// Replaces `name` by this table's handle when it is static.
  void intern(DnsName& name) const;

 private:
  /// The id of labels [skip, label_count()) of `name`, hashed `hash`.
  NameId find_suffix(const DnsName& name, size_t skip, size_t hash) const;

  bool frozen_ = false;
  std::vector<DnsName> pending_;  ///< added texts, until freeze()
  /// One entry per static name, indexed by id; sized once by freeze().
  std::vector<InternedName> entries_;
  /// Open addressing by stored hash, linear probing: id + 1, 0 = empty;
  /// a power of two at most half full.
  std::vector<uint32_t> index_;
};

}  // namespace curtain::dns
