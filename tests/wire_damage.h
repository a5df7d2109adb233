// Damage sweeps over an encoded DNS message, shared by the codec tests.
//
// decode() is the simulator's only parser of untrusted bytes (it sits
// behind DnsServer::serve_wire), so it must survive any damage to a valid
// packet: return nullopt or a message, never crash or read out of bounds.
// The sanitizer build (scripts/check.sh sanitize) runs these sweeps under
// ASan and UBSan.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "dns/message.h"

namespace curtain::dns::wiretest {

/// Every strict prefix of `wire` must fail to decode: a message's header
/// counts promise records the cut removed.
inline void expect_truncations_rejected(const std::vector<uint8_t>& wire) {
  for (size_t n = 0; n < wire.size(); ++n) {
    const std::span<const uint8_t> prefix(wire.data(), n);
    EXPECT_FALSE(decode(prefix).has_value()) << "prefix length " << n;
  }
}

/// Flips every bit of `wire`, one at a time. decode() may accept or reject
/// the damaged packet; whatever it accepts must re-encode into a packet
/// that decodes again.
inline void expect_bit_flips_survived(const std::vector<uint8_t>& wire) {
  std::vector<uint8_t> damaged = wire;
  for (size_t byte = 0; byte < damaged.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      const auto flip = static_cast<uint8_t>(1u << bit);
      damaged[byte] ^= flip;
      if (const auto decoded = decode(damaged)) {
        EXPECT_TRUE(decode(encode(*decoded)).has_value())
            << "byte " << byte << " bit " << bit;
      }
      damaged[byte] ^= flip;
    }
  }
}

}  // namespace curtain::dns::wiretest
