// IPv4 addresses and CIDR prefixes.
//
// The study leans heavily on /24 aggregation: CDNs map clients by the /24
// of their external-facing resolver (paper §5.1), Google DNS is organized
// as 30 geographic /24s (§6.1), and resolver-churn analyses count distinct
// /24s (Figs. 8, 9, 12). Prefix math therefore lives here, next to the
// address type.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace curtain::net {

/// An IPv4 address stored in host byte order.
class Ipv4Addr {
 public:
  constexpr Ipv4Addr() = default;
  constexpr explicit Ipv4Addr(uint32_t value) : value_(value) {}
  constexpr Ipv4Addr(uint8_t a, uint8_t b, uint8_t c, uint8_t d)
      : value_(static_cast<uint32_t>(a) << 24 | static_cast<uint32_t>(b) << 16 |
               static_cast<uint32_t>(c) << 8 | d) {}

  /// Parses dotted-quad ("192.0.2.1"); nullopt on malformed input.
  static std::optional<Ipv4Addr> parse(std::string_view text);

  constexpr uint32_t value() const { return value_; }

  /// Length of the longest dotted quad, "255.255.255.255".
  static constexpr size_t kMaxChars = 15;
  /// Writes the dotted quad into [first, last), which must hold kMaxChars
  /// bytes, and returns one past its last character; the bytes from there
  /// up to first + kMaxChars may be overwritten. The only address
  /// formatter: to_string() and Prefix::to_chars() are built on it, and
  /// the CSV export calls it straight into its row buffer.
  char* to_chars(char* first, char* last) const;
  std::string to_string() const;

  /// The /24 network containing this address (e.g. 192.0.2.0 for 192.0.2.1).
  constexpr Ipv4Addr slash24() const { return Ipv4Addr(value_ & 0xffffff00u); }

  /// Octet accessor, 0 = most significant ("a" in a.b.c.d).
  constexpr uint8_t octet(int i) const {
    return static_cast<uint8_t>(value_ >> (8 * (3 - i)));
  }

  constexpr bool is_unspecified() const { return value_ == 0; }

  friend constexpr auto operator<=>(Ipv4Addr a, Ipv4Addr b) = default;

 private:
  uint32_t value_ = 0;
};

/// A CIDR prefix (address + length). The address is canonicalized: host
/// bits are cleared on construction, so Prefix{192.0.2.77/24} == 192.0.2.0/24.
class Prefix {
 public:
  constexpr Prefix() = default;
  constexpr Prefix(Ipv4Addr addr, int length)
      : length_(clamp_len(length)),
        addr_(Ipv4Addr(addr.value() & mask_for(clamp_len(length)))) {}

  /// Parses "a.b.c.d/len"; nullopt on malformed input or length > 32.
  static std::optional<Prefix> parse(std::string_view text);

  constexpr Ipv4Addr address() const { return addr_; }
  constexpr int length() const { return length_; }
  constexpr uint32_t mask() const { return mask_for(length_); }

  constexpr bool contains(Ipv4Addr a) const {
    return (a.value() & mask()) == addr_.value();
  }
  constexpr bool contains(const Prefix& other) const {
    return other.length_ >= length_ && contains(other.addr_);
  }

  /// Number of addresses covered (2^(32-len)).
  constexpr uint64_t size() const { return uint64_t{1} << (32 - length_); }

  /// The i-th address within the prefix; i is taken modulo size().
  constexpr Ipv4Addr host(uint64_t i) const {
    return Ipv4Addr(addr_.value() | static_cast<uint32_t>(i & (size() - 1)));
  }

  /// Length of the longest rendering, "255.255.255.255/32".
  static constexpr size_t kMaxChars = Ipv4Addr::kMaxChars + 3;
  /// Writes "a.b.c.d/len" into [first, last), which must hold kMaxChars
  /// bytes, and returns one past its last character (as
  /// Ipv4Addr::to_chars, later bytes of the kMaxChars may be overwritten).
  char* to_chars(char* first, char* last) const;
  std::string to_string() const;

  friend constexpr auto operator<=>(const Prefix& a, const Prefix& b) = default;

 private:
  static constexpr int clamp_len(int len) { return len < 0 ? 0 : (len > 32 ? 32 : len); }
  static constexpr uint32_t mask_for(int len) {
    return len == 0 ? 0u : (0xffffffffu << (32 - len));
  }

  int length_ = 0;
  Ipv4Addr addr_{};
};

}  // namespace curtain::net
