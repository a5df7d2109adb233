#include "net/rng.h"

#include <cmath>

#include "util/contract.h"

namespace curtain::net {
Rng::Rng(uint64_t seed) : seed_(seed) {
  uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // xoshiro must not start from the all-zero state; splitmix64 of any seed
  // makes that astronomically unlikely, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng Rng::derive(uint64_t id) const { return Rng(mix_key(seed_, id)); }

Rng Rng::derive(std::string_view tag) const { return Rng(mix_key(seed_, hash_tag(tag))); }

Rng Rng::derive(std::string_view tag, uint64_t id) const {
  return Rng(mix_key(mix_key(seed_, hash_tag(tag)), id));
}

double Rng::next_double() {
  // 53 high bits -> uniform double in [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

uint64_t Rng::uniform_u64(uint64_t lo, uint64_t hi) {
  CURTAIN_DCHECK(lo <= hi) << "uniform_u64(" << lo << ", " << hi << ")";
  const uint64_t range = hi - lo + 1;
  if (range == 0) return next_u64();  // full 64-bit range
  return lo + UniformBelow(range)(*this);
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * next_double(); }

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 in (0,1] so log() is finite.
  const double u1 = 1.0 - next_double();
  const double u2 = next_double();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Rng::lognormal_median(double median, double sigma) {
  return median * std::exp(sigma * normal());
}

double Rng::exponential(double mean) {
  return -mean * std::log(1.0 - next_double());
}

bool Rng::bernoulli(double p) { return next_double() < p; }

size_t Rng::weighted_index(const std::vector<double>& weights) {
  double total = 0.0;
  for (const double w : weights) total += w > 0 ? w : 0;
  CURTAIN_DCHECK(total > 0.0)
      << "weighted_index over " << weights.size() << " non-positive weights";
  double target = next_double() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0 ? weights[i] : 0;
    if (target < w) return i;
    target -= w;
  }
  return weights.empty() ? 0 : weights.size() - 1;
}

}  // namespace curtain::net
