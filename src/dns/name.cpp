// lint-hot-path (cache key hashing and comparison; see dns/name.h)
#include "dns/name.h"

#include <algorithm>
#include <cctype>

#include "util/strings.h"

namespace curtain::dns {
namespace {

constexpr size_t kMaxLabel = 63;
constexpr size_t kMaxWire = 255;

}  // namespace

std::optional<DnsName> DnsName::parse(std::string_view text) {
  text = util::trim(text);
  if (!text.empty() && text.back() == '.') text.remove_suffix(1);
  DnsName name;
  if (text.empty()) return name;  // root
  // For n labels the wire form is label bytes + n length octets + root =
  // text.size() + 2 (the n-1 dots become length octets); reject oversized
  // input before touching the buffer.
  if (text.size() + 2 > kMaxWire) return std::nullopt;
  name.bytes_.reserve(text.size());
  size_t start = 0;
  for (;;) {
    const size_t dot = text.find('.', start);
    const size_t len =
        dot == std::string_view::npos ? std::string_view::npos : dot - start;
    if (!name.append_label(text.substr(start, len))) return std::nullopt;
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
  return name;
}

std::optional<DnsName> DnsName::from_labels(std::vector<std::string> labels) {
  DnsName name;
  for (const auto& label : labels) {
    if (!name.append_label(label)) return std::nullopt;
  }
  return name;
}

bool DnsName::append_label(std::string_view label) {
  if (interned_ != nullptr) {
    // Edits apply to a copy of the entry's labels, never to the entry.
    const InternedName* entry = interned_;
    interned_ = nullptr;
    bytes_ = entry->text.bytes_;
    ends_ = entry->text.ends_;
  }
  if (label.empty() || label.size() > kMaxLabel) return false;
  // +1 length octet for this label, +1 for the root terminator.
  if (bytes_.size() + ends_.size() + label.size() + 2 > kMaxWire) return false;
  for (const char c : label) {
    bytes_.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  ends_.push_back(static_cast<uint8_t>(bytes_.size()));
  return true;
}

std::vector<std::string> DnsName::labels() const {
  std::vector<std::string> out;
  out.reserve(label_count());
  for (size_t i = 0; i < label_count(); ++i) out.emplace_back(label(i));
  return out;
}

std::string DnsName::to_string() const {
  const DnsName& t = text();
  std::string out;
  if (t.is_root()) return out;
  out.reserve(t.bytes_.size() + t.ends_.size() - 1);
  for (size_t i = 0; i < t.ends_.size(); ++i) {
    if (i > 0) out.push_back('.');
    out.append(t.label(i));
  }
  return out;
}

bool DnsName::is_within(const DnsName& ancestor) const {
  const DnsName& t = text();
  const DnsName& a = ancestor.text();
  const size_t count = a.ends_.size();
  if (count == 0) return true;  // everything is within the root
  if (count > t.ends_.size()) return false;
  if (same_table(ancestor)) {
    // Climb to the ancestor's depth along the entries' parent links.
    const InternedName* at = interned_;
    for (size_t depth = t.ends_.size(); depth > count; --depth) {
      at = at->parent;
    }
    return at == ancestor.interned_;
  }
  const size_t label_off = t.ends_.size() - count;
  const size_t byte_off = label_off == 0 ? 0 : t.ends_[label_off - 1];
  // The suffix must match byte-for-byte AND break at the same label
  // boundaries ("ab.c" is not within "a.bc" despite equal bytes).
  if (t.bytes_.size() - byte_off != a.bytes_.size()) return false;
  for (size_t i = 0; i < count; ++i) {
    if (static_cast<size_t>(t.ends_[label_off + i]) - byte_off !=
        static_cast<size_t>(a.ends_[i])) {
      return false;
    }
  }
  return std::string_view(t.bytes_).substr(byte_off) == a.bytes_;
}

DnsName DnsName::parent() const {
  if (interned_ != nullptr) return interned_->parent->handle;
  DnsName out;
  if (ends_.size() <= 1) return out;
  const uint8_t cut = ends_[0];
  out.bytes_ = bytes_.substr(cut);
  for (size_t i = 1; i < ends_.size(); ++i) {
    out.ends_.push_back(static_cast<uint8_t>(ends_[i] - cut));
  }
  return out;
}

std::optional<DnsName> DnsName::child(std::string_view label) const {
  // Validate before building: append_label would otherwise push offsets
  // for a name we are about to reject.
  if (label.empty() || label.size() > kMaxLabel) return std::nullopt;
  if (wire_length() + 1 + label.size() > kMaxWire) return std::nullopt;
  const DnsName& t = text();
  DnsName out;
  out.bytes_.reserve(label.size() + t.bytes_.size());
  out.append_label(label);
  out.bytes_.append(t.bytes_);
  const auto shift = static_cast<uint8_t>(label.size());
  for (const uint8_t end : t.ends_) {
    out.ends_.push_back(static_cast<uint8_t>(end + shift));
  }
  return out;
}

bool DnsName::operator<(const DnsName& other) const {
  if (same_table(other)) return interned_->id < other.interned_->id;
  const size_t count = label_count();
  const size_t other_count = other.label_count();
  const size_t n = std::min(count, other_count);
  for (size_t i = 0; i < n; ++i) {
    const int cmp = label(i).compare(other.label(i));
    if (cmp != 0) return cmp < 0;
  }
  return count < other_count;
}

size_t DnsName::hash_from(size_t first) const {
  const DnsName& t = text();
  size_t h = 0xcbf29ce484222325ULL;
  size_t begin = first == 0 ? 0 : t.ends_[first - 1];
  for (size_t k = first; k < t.ends_.size(); ++k) {
    const size_t end = t.ends_[k];
    for (size_t i = begin; i < end; ++i) {
      h ^= static_cast<uint8_t>(t.bytes_[i]);
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;  // label separator so {"ab","c"} != {"a","bc"}
    h *= 0x100000001b3ULL;
    begin = end;
  }
  return h;
}

}  // namespace curtain::dns
