// DNS domain names (RFC 1035 §2.3 / §3.1).
//
// A name is a sequence of labels; comparisons are case-insensitive and
// names are stored lowercased. Limits enforced: labels 1..63 octets, whole
// name <= 255 octets in wire form.
//
// Storage is flat: one contiguous byte buffer holding the concatenated
// labels plus a small inline vector of label end offsets. A name of at
// most 15 label bytes ("www.example.com" has 13) fits in libstdc++'s
// std::string small buffer and the inline offset array, so copying it
// touches no heap, where the old std::vector<std::string> cost one
// allocation per label. Many of this study's names are longer:
// "amazon-www.curtaincdn.net" has 23 label bytes and "ns1.curtaincdn.net"
// 16, so each copy of one allocates. That is why zone data is shared
// rather than copied (dns/rrset.h), and why a cache slot keeps its name
// buffer for the next key it holds (dns/cache.h).
//
// lint-hot-path: names are the DNS cache's key type, so curtain_lint holds
// this file to the hot-alloc rule.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/memory.h"
#include "util/smallvec.h"

namespace curtain::dns {

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
  /// build a name incrementally (the wire decoder's hot path).
  bool append_label(std::string_view label);

  /// The i-th label (0 = leftmost), viewing the name's own buffer.
  std::string_view label(size_t i) const {
    const size_t begin = i == 0 ? 0 : ends_[i - 1];
    return std::string_view(bytes_).substr(begin, ends_[i] - begin);
  }
  /// Materialized copy of the labels (prefer label()/label_count() on hot
  /// paths; this exists for call sites that want owned strings).
  std::vector<std::string> labels() const;

  bool is_root() const { return ends_.empty(); }
  size_t label_count() const { return ends_.size(); }

  /// Wire-format length: one length octet per label + label bytes + root.
  size_t wire_length() const { return 1 + ends_.size() + bytes_.size(); }

  /// Presentation format without trailing dot ("" for the root).
  std::string to_string() const;

  /// True if this name equals `ancestor` or is beneath it
  /// ("a.b.example.com" is within "example.com"; everything is within root).
  bool is_within(const DnsName& ancestor) const;

  /// The name minus its leftmost label ("www.example.com" -> "example.com").
  /// Returns the root when called on a single-label name.
  DnsName parent() const;

  /// A child name: `label` prepended ("cdn" + "example.com" ->
  /// "cdn.example.com"). nullopt if limits would be violated.
  std::optional<DnsName> child(std::string_view label) const;

  bool operator==(const DnsName& other) const {
    return ends_ == other.ends_ && bytes_ == other.bytes_;
  }
  /// Lexicographic order over lowercased labels; suitable for map keys.
  /// Label-wise, not flat-byte-wise: {"ab","c"} and {"a","bc"} order by
  /// their first labels, exactly as the old vector<string> compare did
  /// (map iteration order feeds the exported datasets).
  bool operator<(const DnsName& other) const;

  /// Hash compatible with operator== (labels are canonically lowercased).
  size_t hash() const;

  /// Heap bytes this name owns beyond its object footprint: the label
  /// buffer once it spills the std::string small-buffer and the offset
  /// array once it spills the inline slots, each charged
  /// obs::kAllocOverheadBytes. Zero for names of at most 15 label bytes —
  /// a profiling gauge (obs/memory.h), not an exact audit.
  size_t approx_heap_bytes() const {
    size_t heap = 0;
    if (bytes_.capacity() > std::string().capacity())
      heap += bytes_.capacity() + 1 + obs::kAllocOverheadBytes;
    if (!ends_.inlined())
      heap += ends_.capacity() * sizeof(uint8_t) + obs::kAllocOverheadBytes;
    return heap;
  }

 private:
  std::string bytes_;  ///< concatenated lowercased labels, no separators
  /// End offset of each label in bytes_. Wire max 255 keeps every offset
  /// <= 253, so uint8_t is exact; 8 inline slots cover real hostnames.
  util::SmallVec<uint8_t, 8> ends_;
};

struct DnsNameHash {
  size_t operator()(const DnsName& name) const { return name.hash(); }
};

}  // namespace curtain::dns
