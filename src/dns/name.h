// DNS domain names (RFC 1035 §2.3 / §3.1).
//
// A name is a sequence of labels; comparisons are case-insensitive and
// names are stored lowercased. Limits enforced: labels 1..63 octets, whole
// name <= 255 octets in wire form.
//
// A name is one of two things, and every operation gives the same answer
// for both:
//   * dynamic: it owns its labels, flat — one contiguous byte buffer of
//     the concatenated labels plus a small inline vector of label end
//     offsets. Parsed text, decoded packets and the names a query makes up
//     (resolver-identification probes, PTR names) are dynamic.
//   * static: a handle on an entry of a frozen NameTable
//     (dns/name_table.h), which holds the labels once, their FNV hash, the
//     name's id and its parent's entry. The World interns every zone
//     owner, delegation, glue, CNAME target and CDN name this way before
//     the first query, so the names a DNS hop copies, hashes and compares
//     are handles: a copy is one pointer and touches no heap, hash() reads
//     the stored value, two handles of one table compare by entry (== and
//     <, since ids follow operator< order), and parent() follows the
//     entry's parent link.
// A dynamic name and a handle with the same labels are equal, hash alike
// and order alike: a static name's id depends only on its text.
//
// lint-hot-path: names are the DNS cache's key type, so curtain_lint holds
// this file to the hot-alloc rule.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/smallvec.h"

namespace curtain::dns {

class NameTable;
struct InternedName;

/// A static name's number in its NameTable; ids follow DnsName::operator<.
using NameId = uint32_t;
inline constexpr NameId kNoNameId = UINT32_MAX;

class DnsName {
 public:
  DnsName() = default;  ///< the root name (empty label sequence)

  /// Parses presentation format ("www.example.com", trailing dot optional,
  /// lowercased on input). nullopt if any label is empty/oversized or the
  /// total wire length would exceed 255.
  static std::optional<DnsName> parse(std::string_view text);

  /// Builds from pre-validated labels (asserts the same limits).
  static std::optional<DnsName> from_labels(std::vector<std::string> labels);

  /// Validates and appends one label at the rightmost position,
  /// lowercasing it ("www" then "example" then "com" builds
  /// "www.example.com"); false if the label or the resulting wire length
  /// would break the RFC limits. This is the allocation-light way to
  /// build a name incrementally (the wire decoder's hot path). A handle
  /// becomes dynamic first.
  bool append_label(std::string_view label);

  /// The i-th label (0 = leftmost), viewing the name's label buffer.
  std::string_view label(size_t i) const {
    const DnsName& t = text();
    const size_t begin = i == 0 ? 0 : t.ends_[i - 1];
    return std::string_view(t.bytes_).substr(begin, t.ends_[i] - begin);
  }
  /// Materialized copy of the labels (prefer label()/label_count() on hot
  /// paths; this exists for call sites that want owned strings).
  std::vector<std::string> labels() const;

  bool is_root() const { return text().ends_.empty(); }
  size_t label_count() const { return text().ends_.size(); }

  /// Wire-format length: one length octet per label + label bytes + root.
  size_t wire_length() const {
    const DnsName& t = text();
    return 1 + t.ends_.size() + t.bytes_.size();
  }

  /// Presentation format without trailing dot ("" for the root).
  std::string to_string() const;

  /// True if this name equals `ancestor` or is beneath it
  /// ("a.b.example.com" is within "example.com"; everything is within root).
  bool is_within(const DnsName& ancestor) const;

  /// The name minus its leftmost label ("www.example.com" -> "example.com").
  /// Returns the root when called on a single-label name. A handle's
  /// parent is its table's handle for the parent (the table holds every
  /// ancestor of its names), so it copies no label.
  DnsName parent() const;

  /// A child name: `label` prepended ("cdn" + "example.com" ->
  /// "cdn.example.com"). nullopt if limits would be violated.
  std::optional<DnsName> child(std::string_view label) const;

  /// True for a handle on a NameTable entry.
  bool interned() const { return interned_ != nullptr; }
  /// The id this handle carries in its table(); kNoNameId for a dynamic
  /// name (which may still spell a static name: NameTable::find).
  NameId id() const;
  const NameTable* table() const;
  /// A handle's parent handle, kept by its table (the root's is itself);
  /// nullptr for a dynamic name.
  const DnsName* static_parent() const;

  bool operator==(const DnsName& other) const;
  /// Lexicographic order over lowercased labels; suitable for map keys.
  /// Label-wise, not flat-byte-wise: {"ab","c"} and {"a","bc"} order by
  /// their first labels, exactly as the old vector<string> compare did
  /// (map iteration order feeds the exported datasets). Two handles of
  /// one table compare by id, which is the same order.
  bool operator<(const DnsName& other) const;

  /// FNV-1a over the lowercased labels, with a separator after each
  /// label; a handle returns its table's stored copy of the same value.
  /// The CDN mixes it into replica rotation, so it is result-visible.
  size_t hash() const;

 private:
  friend class NameTable;

  /// The dynamic name holding the labels: this one, or the entry's.
  const DnsName& text() const;
  /// Both handles of one table (so entries decide == and <).
  bool same_table(const DnsName& other) const;
  /// FNV over labels [first, label_count()).
  size_t hash_from(size_t first) const;

  /// The table entry of a handle; null for a dynamic name, whose labels
  /// are the two members below (empty for a handle).
  const InternedName* interned_ = nullptr;
  std::string bytes_;  ///< concatenated lowercased labels, no separators
  /// End offset of each label in bytes_. Wire max 255 keeps every offset
  /// <= 253, so uint8_t is exact; 8 inline slots cover real hostnames.
  util::SmallVec<uint8_t, 8> ends_;
};

/// One static name in a NameTable (dns/name_table.h). Entries never move
/// once the table freezes; handles point at them.
struct InternedName {
  DnsName text;    ///< the labels (a dynamic name)
  DnsName handle;  ///< the handle on this entry
  const NameTable* table = nullptr;
  const InternedName* parent = nullptr;  ///< the root's parent is itself
  size_t hash = 0;  ///< text.hash()
  NameId id = kNoNameId;
};

// A handle is one pointer plus two empty buffers: it must stay no larger
// than the flat dynamic name it replaces.
static_assert(sizeof(DnsName) <= 64, "DnsName must not grow");

inline const DnsName& DnsName::text() const {
  return interned_ != nullptr ? interned_->text : *this;
}

inline bool DnsName::same_table(const DnsName& other) const {
  return interned_ != nullptr && other.interned_ != nullptr &&
         interned_->table == other.interned_->table;
}

inline NameId DnsName::id() const {
  return interned_ != nullptr ? interned_->id : kNoNameId;
}

inline const NameTable* DnsName::table() const {
  return interned_ != nullptr ? interned_->table : nullptr;
}

inline const DnsName* DnsName::static_parent() const {
  return interned_ != nullptr ? &interned_->parent->handle : nullptr;
}

inline bool DnsName::operator==(const DnsName& other) const {
  if (interned_ == other.interned_ && interned_ != nullptr) return true;
  if (same_table(other)) return false;  // one table holds each text once
  const DnsName& a = text();
  const DnsName& b = other.text();
  return a.ends_ == b.ends_ && a.bytes_ == b.bytes_;
}

inline size_t DnsName::hash() const {
  return interned_ != nullptr ? interned_->hash : hash_from(0);
}

struct DnsNameHash {
  size_t operator()(const DnsName& name) const { return name.hash(); }
};

}  // namespace curtain::dns
