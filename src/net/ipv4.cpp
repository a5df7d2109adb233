#include "net/ipv4.h"

#include <array>
#include <charconv>
#include <cstddef>
#include <cstring>

#include "util/contract.h"

namespace curtain::net {
namespace {

// Parses one decimal octet in [0,255] without leading '+' or whitespace.
std::optional<uint8_t> parse_octet(std::string_view s) {
  if (s.empty() || s.size() > 3) return std::nullopt;
  unsigned value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size() || value > 255) {
    return std::nullopt;
  }
  return static_cast<uint8_t>(value);
}

/// The decimal text of one octet value, followed by a dot.
struct OctetText {
  char text[4];  // digits, '.', then padding
  uint8_t digits;
};

constexpr std::array<OctetText, 256> make_octet_texts() {
  std::array<OctetText, 256> texts{};
  for (int v = 0; v < 256; ++v) {
    OctetText& t = texts[static_cast<size_t>(v)];
    const int hundreds = v / 100;
    const int tens = v / 10 % 10;
    if (hundreds != 0) t.text[t.digits++] = static_cast<char>('0' + hundreds);
    if (v >= 10) t.text[t.digits++] = static_cast<char>('0' + tens);
    t.text[t.digits++] = static_cast<char>('0' + v % 10);
    t.text[t.digits] = '.';
  }
  return texts;
}

constexpr std::array<OctetText, 256> kOctetTexts = make_octet_texts();

}  // namespace

std::optional<Ipv4Addr> Ipv4Addr::parse(std::string_view text) {
  uint8_t octets[4];
  for (int i = 0; i < 4; ++i) {
    const size_t dot = text.find('.');
    const bool last = (i == 3);
    if (last != (dot == std::string_view::npos)) return std::nullopt;
    const std::string_view part = last ? text : text.substr(0, dot);
    const auto octet = parse_octet(part);
    if (!octet) return std::nullopt;
    octets[i] = *octet;
    if (!last) text = text.substr(dot + 1);
  }
  return Ipv4Addr(octets[0], octets[1], octets[2], octets[3]);
}

char* Ipv4Addr::to_chars(char* first, char* last) const {
  CURTAIN_DCHECK(last - first >= static_cast<std::ptrdiff_t>(kMaxChars))
      << "Ipv4Addr::to_chars needs " << kMaxChars << " bytes";
  // Each copy is fixed-width: the first three octets copy digits, dot and
  // padding (four bytes, the padding overwritten by the next copy), the
  // last copies three bytes. The last copy starts at most 12 bytes in, so
  // nothing lands past first + kMaxChars.
  for (int i = 0; i < 3; ++i) {
    const OctetText& t = kOctetTexts[octet(i)];
    std::memcpy(first, t.text, 4);
    first += t.digits + 1;
  }
  const OctetText& t = kOctetTexts[octet(3)];
  std::memcpy(first, t.text, 3);
  return first + t.digits;
}

std::string Ipv4Addr::to_string() const {
  char buf[kMaxChars];
  return std::string(buf, to_chars(buf, buf + sizeof(buf)));
}

std::optional<Prefix> Prefix::parse(std::string_view text) {
  const size_t slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const auto addr = Ipv4Addr::parse(text.substr(0, slash));
  if (!addr) return std::nullopt;
  const std::string_view len_part = text.substr(slash + 1);
  if (len_part.empty() || len_part.size() > 2) return std::nullopt;
  int len = 0;
  const auto [ptr, ec] =
      std::from_chars(len_part.data(), len_part.data() + len_part.size(), len);
  if (ec != std::errc{} || ptr != len_part.data() + len_part.size() || len > 32) {
    return std::nullopt;
  }
  return Prefix(*addr, len);
}

char* Prefix::to_chars(char* first, char* last) const {
  CURTAIN_DCHECK(last - first >= static_cast<std::ptrdiff_t>(kMaxChars))
      << "Prefix::to_chars needs " << kMaxChars << " bytes";
  first = addr_.to_chars(first, last);
  *first++ = '/';
  return std::to_chars(first, last, length_).ptr;
}

std::string Prefix::to_string() const {
  char buf[kMaxChars];
  return std::string(buf, to_chars(buf, buf + sizeof(buf)));
}

}  // namespace curtain::net
