// Deterministic random number generation with derivable streams.
//
// Every stochastic choice in the simulator draws from an Rng stream derived
// from (study seed, entity, purpose). Derivation is pure hashing, so adding
// a new consumer never perturbs existing streams and every figure is
// bit-reproducible for a given CURTAIN_SEED.
//
// The core generator is xoshiro256**, seeded via splitmix64 as its authors
// recommend; both are tiny, fast and statistically strong for simulation.
// Normal draws use a 256-layer ziggurat (DESIGN.md §22): one 64-bit word
// per draw on the fast path, no log, sqrt or trigonometry.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/contract.h"

namespace curtain::net {

/// splitmix64 step: the standard 64-bit mixer used for seeding and for
/// combining ids into stream keys.
constexpr uint64_t splitmix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless combine of a key and a value into a new key.
constexpr uint64_t mix_key(uint64_t key, uint64_t value) {
  uint64_t state = key ^ (value * 0x2545f4914f6cdd1dULL);
  return splitmix64(state);
}

/// FNV-1a for deriving streams from string tags.
constexpr uint64_t hash_tag(std::string_view tag) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : tag) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// `x % d` for a fixed divisor without a division. With m = (2^64-1) / d,
/// the high word of x * m is floor(x / d) or one less (m undershoots
/// 2^64 / d by at most one, and x < 2^64), so one conditional subtract
/// makes the remainder exact for every 64-bit x and every d >= 1.
class ReciprocalRemainder {
 public:
  constexpr explicit ReciprocalRemainder(uint64_t divisor)
      : divisor_(divisor), reciprocal_(UINT64_MAX / divisor) {}

  constexpr uint64_t of(uint64_t x) const {
    __extension__ using u128 = unsigned __int128;
    const auto quotient =
        static_cast<uint64_t>((static_cast<u128>(x) * reciprocal_) >> 64);
    const uint64_t remainder = x - quotient * divisor_;
    return remainder >= divisor_ ? remainder - divisor_ : remainder;
  }

 private:
  uint64_t divisor_;
  uint64_t reciprocal_;
};

/// xoshiro256** generator with distribution helpers.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Child stream keyed by a numeric id; independent of the parent's
  /// future output (derivation uses only the construction seed).
  Rng derive(uint64_t id) const;
  /// Child stream keyed by a string purpose tag.
  Rng derive(std::string_view tag) const;
  Rng derive(std::string_view tag, uint64_t id) const;

  /// Defined here so draw loops (uniform_u64, normal) inline it.
  uint64_t next_u64() {
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }
  /// Uniform in [0,1).
  double next_double();
  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  uint64_t uniform_u64(uint64_t lo, uint64_t hi);
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Standard normal via the ziggurat below. Each call draws afresh:
  /// nothing is cached between calls.
  double normal();
  double normal(double mean, double stddev);
  /// Lognormal with the given *median* and shape sigma: median * e^(sigma·Z).
  double lognormal_median(double median, double sigma);
  /// Exponential with the given mean.
  double exponential(double mean);
  bool bernoulli(double p);
  /// Index into `weights` proportional to weight; requires a positive sum.
  size_t weighted_index(const std::vector<double>& weights);

  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      const size_t j = static_cast<size_t>(uniform_u64(0, i - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  template <typename T>
  const T& pick(const std::vector<T>& v) {
    CURTAIN_DCHECK(!v.empty()) << "pick from an empty vector";
    return v[static_cast<size_t>(uniform_u64(0, v.size() - 1))];
  }

 private:
  static constexpr uint64_t rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t seed_;  // construction seed, retained for derive()
  uint64_t s_[4];
};

/// The standard-normal ziggurat behind Rng::normal (Marsaglia & Tsang,
/// "The Ziggurat Method for Generating Random Variables", JSS 2000): 256
/// layers of equal area V under f(x) = exp(-x²/2). Layer i >= 1 is the
/// rectangle [0, x[i]) × [f[i], f[i+1]); layer 0 is the base strip
/// [0, x[0]) × [0, f(R)), whose part beyond R stands for the tail, so
/// x[0] = V / f(R), x[1] = R and x[256] = 0. Constant data, defined in
/// rng.cpp as hex-float literals; tests/rng_test.cpp recomputes it.
inline constexpr double kZigguratR = 0x1.d3bb48209ad33p+1;  // 3.6541528853610088
extern const std::array<double, 257> kZigguratX;
/// f(x[i]) = exp(-x[i]²/2), increasing from f(x[0]) to f(0) = 1.
extern const std::array<double, 257> kZigguratF;

/// Uniform draws from [0, bound), bound >= 1, without modulo bias: a draw
/// at or above the largest multiple of `bound` that fits in 64 bits is
/// rejected and redrawn, and the rest are reduced by ReciprocalRemainder.
/// Rng::uniform_u64 draws through one; a loop with a fixed bound can build
/// one once and reuse it, which consumes the generator exactly as repeated
/// uniform_u64(0, bound - 1) calls do.
class UniformBelow {
 public:
  constexpr explicit UniformBelow(uint64_t bound)
      : limit_(UINT64_MAX - UINT64_MAX % bound), remainder_(bound) {}

  uint64_t operator()(Rng& rng) const {
    uint64_t v = rng.next_u64();
    while (v >= limit_) v = rng.next_u64();
    return remainder_.of(v);
  }

 private:
  uint64_t limit_;
  ReciprocalRemainder remainder_;
};

/// Draws from Binomial(n, p), 0 <= p <= 1, by inversion: one next_double()
/// per draw, looked up in a CDF table built at construction. The table
/// holds the pmf from the mode outward by the ratio recurrence
/// pmf(k+1) / pmf(k) = (n-k)/(k+1) · p/(1-p), for as long as a term stays
/// a normal double (about 38 standard deviations each side), then is
/// cumulated and normalised. Building is O(that width), a draw a binary
/// search over it. p = 0 and p = 1 give one entry.
class Binomial {
 public:
  Binomial(uint64_t n, double p);

  uint64_t operator()(Rng& rng) const;

  /// Smallest outcome in the table; entry i is P(X <= first() + i).
  uint64_t first() const { return first_; }
  const std::vector<double>& cdf() const { return cdf_; }

 private:
  uint64_t first_ = 0;
  std::vector<double> cdf_;
};

}  // namespace curtain::net
