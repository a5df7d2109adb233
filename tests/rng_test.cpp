#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "net/rng.h"

namespace curtain::net {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, DeriveIndependentOfParentConsumption) {
  Rng parent(7);
  const Rng child_before = parent.derive("tag");
  parent.next_u64();
  parent.next_u64();
  Rng child_after = parent.derive("tag");
  Rng child_copy = child_before;
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(child_copy.next_u64(), child_after.next_u64());
  }
}

TEST(Rng, DeriveDistinctTags) {
  Rng parent(7);
  Rng a = parent.derive("alpha");
  Rng b = parent.derive("beta");
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, DeriveTagAndIdComposes) {
  Rng parent(7);
  Rng a = parent.derive("d", 1);
  Rng b = parent.derive("d", 2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformU64InclusiveBounds) {
  Rng rng(3);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.uniform_u64(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values appear
}

TEST(Rng, UniformU64DegenerateRange) {
  Rng rng(3);
  EXPECT_EQ(rng.uniform_u64(9, 9), 9u);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

// --- The ziggurat normal sampler (DESIGN.md §22) ---------------------------

constexpr int kDistributionDraws = 1'000'000;

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

// One-sample Kolmogorov-Smirnov test against the standard normal CDF:
// at n = 10^6 the 1% critical value of D is 1.63 / sqrt(n).
TEST(Rng, NormalPassesKolmogorovSmirnov) {
  Rng rng(20141105);
  std::vector<double> draws(kDistributionDraws);
  for (double& v : draws) v = rng.normal();
  std::sort(draws.begin(), draws.end());
  const auto n = static_cast<double>(draws.size());
  double d = 0.0;
  for (size_t i = 0; i < draws.size(); ++i) {
    const double cdf = normal_cdf(draws[i]);
    d = std::max(d, std::max(static_cast<double>(i + 1) / n - cdf,
                             cdf - static_cast<double>(i) / n));
  }
  EXPECT_LT(d, 1.63 / std::sqrt(n)) << "D = " << d;
}

// Mean, variance and kurtosis at 10^6 draws, each within about four
// standard errors (sd of the mean 0.001, of the variance 0.0014, of the
// fourth moment 0.0098).
TEST(Rng, NormalMomentsAtAMillionDraws) {
  Rng rng(20140301);
  double sum = 0.0;
  double sum2 = 0.0;
  double sum4 = 0.0;
  for (int i = 0; i < kDistributionDraws; ++i) {
    const double v = rng.normal();
    sum += v;
    sum2 += v * v;
    sum4 += v * v * v * v;
  }
  const double n = kDistributionDraws;
  const double mean = sum / n;
  const double variance = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.004);
  EXPECT_NEAR(variance, 1.0, 0.006);
  EXPECT_NEAR(sum4 / n / (variance * variance), 3.0, 0.04);
}

// The mass beyond |z| > R comes only from the tail path; it must match
// 2·Phi(-R) within binomial error, and both sides must be drawn.
TEST(Rng, NormalTailMassBeyondR) {
  Rng rng(7);
  constexpr int kDraws = 4 * kDistributionDraws;
  int above = 0;
  int below = 0;
  for (int i = 0; i < kDraws; ++i) {
    const double v = rng.normal();
    if (v > kZigguratR) ++above;
    if (v < -kZigguratR) ++below;
  }
  const double p = 2.0 * normal_cdf(-kZigguratR);  // ~2.6e-4
  const double expected = p * kDraws;
  const double sigma = std::sqrt(kDraws * p * (1.0 - p));
  EXPECT_NEAR(above + below, expected, 4.0 * sigma);
  EXPECT_GT(above, 0);
  EXPECT_GT(below, 0);
}

// The tables are the layer recursion: recomputed in long double from R,
// every x[i] within 4 ulp and every layer of area V to 1e-12.
TEST(Rng, ZigguratTablesMatchRecursion) {
  const long double r = kZigguratR;
  const auto f = [](long double x) { return std::exp(-x * x / 2); };
  const long double v = r * f(r) + std::sqrt(std::acos(-1.0L) / 2) *
                                       std::erfc(r / std::sqrt(2.0L));
  std::array<long double, 257> x{};
  x[0] = v / f(r);
  x[1] = r;
  for (size_t i = 1; i < 255; ++i) {
    x[i + 1] = std::sqrt(-2 * std::log(v / x[i] + f(x[i])));
  }
  x[256] = 0;
  for (size_t i = 0; i < 257; ++i) {
    const auto expected = static_cast<double>(x[i]);
    const double ulp = std::nextafter(std::fabs(expected), 1e300) -
                       std::fabs(expected);
    EXPECT_LE(std::fabs(kZigguratX[i] - expected), 4 * ulp) << "x[" << i << "]";
    EXPECT_NEAR(kZigguratF[i], static_cast<double>(f(x[i])),
                4 * std::numeric_limits<double>::epsilon())
        << "f[" << i << "]";
  }
  // Layer areas, from the committed tables.
  const long double base =
      static_cast<long double>(kZigguratX[0]) * f(kZigguratX[1]);
  EXPECT_NEAR(static_cast<double>(base / v), 1.0, 1e-12) << "layer 0";
  for (size_t i = 1; i < 256; ++i) {
    const long double area = static_cast<long double>(kZigguratX[i]) *
                             (f(kZigguratX[i + 1]) - f(kZigguratX[i]));
    EXPECT_NEAR(static_cast<double>(area / v), 1.0, 1e-12) << "layer " << i;
  }
}

// The first 16 draws of Rng(11), pinned: any change to the sampler's bit
// layout, tables or acceptance tests moves them and names itself here.
TEST(Rng, NormalDrawsPinned) {
  constexpr double kPinned[16] = {
      -0x1.d8f8a2a0d5202p-2, -0x1.430a973a4fa5fp+0,
      -0x1.415e535874373p-1, -0x1.e46cda3f33472p-3,
      -0x1.865545a908911p+0, -0x1.1bfcec8a498e6p-1,
      0x1.cd8f794a833a6p-6, 0x1.3ec08f67e67dep+1,
      0x1.e235465149ed9p-3, -0x1.9cc917d5dae94p-1,
      -0x1.62a437106b146p-1, -0x1.54a302d9b7b94p-1,
      0x1.51cdeea0f54abp+0, -0x1.1787e06765a4cp+1,
      -0x1.89fb8bfdfa71bp-2, 0x1.34cea099c50cbp+0,
  };
  Rng rng(11);
  for (int i = 0; i < 16; ++i) {
    const double v = rng.normal();
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%a", v);
    EXPECT_EQ(v, kPinned[i]) << "draw " << i << " is " << hex;
  }
}

// The first 10^5 draws of Rng(11), bit for bit: unlike the sixteen above
// they cross the wedge and tail paths (about 1,500 and 25 times), so a
// change to either shows up here.
TEST(Rng, NormalDrawStreamPinned) {
  Rng rng(11);
  uint64_t digest = 0xcbf29ce484222325ULL;
  for (int i = 0; i < 100'000; ++i) {
    const double v = rng.normal();
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    digest = (digest ^ bits) * 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, digest);
  EXPECT_EQ(digest, 0xdf92176b7d3b5cb7ULL) << "stream digest is " << hex;
}

// No cached second deviate: a generator is its seed and four state words.
TEST(Rng, CarriesNoSamplerState) { EXPECT_EQ(sizeof(Rng), 40u); }

TEST(Rng, LognormalMedian) {
  Rng rng(13);
  std::vector<double> samples;
  for (int i = 0; i < 20001; ++i) samples.push_back(rng.lognormal_median(50.0, 0.3));
  std::sort(samples.begin(), samples.end());
  EXPECT_NEAR(samples[samples.size() / 2], 50.0, 1.5);
  for (const double s : samples) EXPECT_GT(s, 0.0);
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(23);
  const std::vector<double> weights{1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Rng, WeightedIndexIgnoresNegativeWeights) {
  Rng rng(29);
  const std::vector<double> weights{-5.0, 1.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.weighted_index(weights), 1u);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, PickReturnsMember) {
  Rng rng(37);
  const std::vector<int> v{10, 20, 30};
  for (int i = 0; i < 50; ++i) {
    const int p = rng.pick(v);
    EXPECT_TRUE(p == 10 || p == 20 || p == 30);
  }
}

TEST(Mix, MixKeyDistinguishesInputs) {
  EXPECT_NE(mix_key(1, 2), mix_key(2, 1));
  EXPECT_NE(mix_key(0, 0), mix_key(0, 1));
}

TEST(Mix, HashTagStable) {
  EXPECT_EQ(hash_tag("gateways"), hash_tag("gateways"));
  EXPECT_NE(hash_tag("gateways"), hash_tag("gateway"));
}

TEST(ReciprocalRemainder, MatchesModuloAcrossDivisorsAndInputs) {
  const uint64_t divisors[] = {1,
                               2,
                               3,
                               7,
                               1000,
                               39181,
                               65536,
                               uint64_t{1} << 31,
                               uint64_t{1} << 32,
                               (uint64_t{1} << 32) - 1,
                               (uint64_t{1} << 32) + 1,
                               uint64_t{1} << 63,
                               (uint64_t{1} << 63) + 5,
                               UINT64_MAX - 1,
                               UINT64_MAX};
  Rng rng(19);
  for (const uint64_t d : divisors) {
    const ReciprocalRemainder remainder(d);
    const auto check = [&](uint64_t x) {
      ASSERT_EQ(remainder.of(x), x % d) << x << " % " << d;
    };
    for (uint64_t i = 0; i < 1000; ++i) {
      check(i);
      check(UINT64_MAX - i);
      check(d * (i + 1));       // exact multiples (wraps for large d)
      check(d * (i + 1) - 1);   // one below them
      check(rng.next_u64());
    }
  }
  // Every power-of-two divisor.
  for (int k = 0; k < 64; ++k) {
    const uint64_t d = uint64_t{1} << k;
    const ReciprocalRemainder remainder(d);
    for (int i = 0; i < 200; ++i) {
      const uint64_t x = rng.next_u64();
      ASSERT_EQ(remainder.of(x), x % d) << x << " % " << d;
    }
    ASSERT_EQ(remainder.of(UINT64_MAX), UINT64_MAX % d);
  }
}

TEST(UniformBelow, DrawsAsRejectionThenModuloDid) {
  // uniform_u64 as it was before it drew through UniformBelow: the same
  // rejection, then `%`. Both must return the same values and leave the
  // generator in the same state, including ranges that reject often.
  const auto modulo_draw = [](Rng& rng, uint64_t range) {
    const uint64_t limit = UINT64_MAX - UINT64_MAX % range;
    uint64_t v = rng.next_u64();
    while (v >= limit) v = rng.next_u64();
    return v % range;
  };
  for (const uint64_t range :
       {uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{39181},
        (uint64_t{1} << 32) + 1, (uint64_t{1} << 62) + 3,
        (uint64_t{1} << 63) + 1, UINT64_MAX}) {
    Rng reference(31);
    Rng through_type(31);
    Rng through_call(31);
    const UniformBelow draw(range);
    for (int i = 0; i < 5000; ++i) {
      const uint64_t expected = modulo_draw(reference, range);
      ASSERT_EQ(draw(through_type), expected) << range << ", draw " << i;
      ASSERT_EQ(through_call.uniform_u64(0, range - 1), expected)
          << range << ", draw " << i;
    }
    const uint64_t next = reference.next_u64();
    EXPECT_EQ(through_type.next_u64(), next) << range;
    EXPECT_EQ(through_call.next_u64(), next) << range;
  }
}

TEST(ReciprocalRemainder, RandomDivisorsMatchModulo) {
  Rng rng(20);
  for (int i = 0; i < 2000; ++i) {
    // Divisors of every magnitude: shift a random word right by 0..63.
    const uint64_t d = std::max<uint64_t>(1, rng.next_u64() >> (i % 64));
    const ReciprocalRemainder remainder(d);
    for (int j = 0; j < 100; ++j) {
      const uint64_t x = rng.next_u64();
      ASSERT_EQ(remainder.of(x), x % d) << x << " % " << d;
    }
  }
}

// --- Binomial draws ----------------------------------------------------------

// Binomial(n, p) pmf at k from lgamma, independent of the sampler's ratio
// recurrence. Long double: at n = 10^6 the log-gammas are ~1.3e7, where a
// double's ulp (1.9e-9) would limit the pmf to about 1e-8 relative.
double binomial_pmf(uint64_t n, double p, uint64_t k) {
  const auto nd = static_cast<long double>(n);
  const auto kd = static_cast<long double>(k);
  const long double pd = p;
  return static_cast<double>(
      std::exp(std::lgamma(nd + 1) - std::lgamma(kd + 1) -
               std::lgamma(nd - kd + 1) + kd * std::log(pd) +
               (nd - kd) * std::log1p(-pd)));
}

// Pearson's chi-square of `draws` Binomial(n, p) draws from `seed` against
// the exact pmf. Outcomes pool into cells of expected count >= 5, the lowest
// cell taking everything below it and the highest everything above; the
// statistic must stay under the 0.1 % critical value (Wilson-Hilferty).
void expect_binomial_fits(uint64_t n, double p, uint64_t seed) {
  constexpr int kDraws = 200000;
  const Binomial binomial(n, p);
  Rng rng(seed);
  std::vector<uint64_t> drawn(kDraws);
  for (uint64_t& k : drawn) k = binomial(rng);
  std::sort(drawn.begin(), drawn.end());
  ASSERT_LE(drawn.back(), n);

  const double mean = static_cast<double>(n) * p;
  const double sd = std::sqrt(mean * (1.0 - p));
  const auto lo = static_cast<uint64_t>(std::max(0.0, mean - 12 * sd - 5));
  const auto hi = std::min(n, static_cast<uint64_t>(mean + 12 * sd + 5));
  // Cell upper bounds, closed when the expected count reaches 5.
  std::vector<uint64_t> upper;
  std::vector<double> expected;
  double pending = 0.0;
  for (uint64_t k = lo; k <= hi; ++k) {
    pending += kDraws * binomial_pmf(n, p, k);
    if (pending >= 5.0) {
      upper.push_back(k);
      expected.push_back(pending);
      pending = 0.0;
    }
  }
  expected.back() += pending;  // the highest cell runs to n
  upper.back() = n;
  ASSERT_GE(expected.size(), 2u);
  double chi2 = 0.0;
  auto next = drawn.begin();
  for (size_t c = 0; c < upper.size(); ++c) {
    const auto end = std::upper_bound(next, drawn.end(), upper[c]);
    const auto observed = static_cast<double>(end - next);
    chi2 += (observed - expected[c]) * (observed - expected[c]) / expected[c];
    next = end;
  }
  const auto df = static_cast<double>(expected.size() - 1);
  const double h = 2.0 / (9.0 * df);
  const double critical = df * std::pow(1.0 - h + 3.09 * std::sqrt(h), 3);
  EXPECT_LT(chi2, critical) << "n=" << n << " p=" << p << " seed=" << seed
                            << " cells=" << expected.size();
}

TEST(Binomial, ChiSquareAgainstExactPmf) {
  for (const uint64_t seed : {uint64_t{20141105}, uint64_t{7}}) {
    expect_binomial_fits(1, 0.5, seed);
    expect_binomial_fits(10, 0.3, seed);
    expect_binomial_fits(40806, 0.816, seed);
    expect_binomial_fits(1'000'000, 1e-5, seed);
  }
}

// The table is the pmf: each entry's step within 1e-10 relative of the
// lgamma form (plus 1e-15, the rounding of a difference of two CDF values
// near 1), covering all but a negligible mass, and ending at exactly 1.
TEST(Binomial, TableMatchesExactPmf) {
  for (const auto& [n, p] : {std::pair<uint64_t, double>{10, 0.3},
                             {40806, 0.816},
                             {1'000'000, 1e-5}}) {
    const Binomial binomial(n, p);
    const auto& cdf = binomial.cdf();
    ASSERT_EQ(cdf.back(), 1.0);
    double previous = 0.0;
    double covered = 0.0;
    for (size_t i = 0; i < cdf.size(); ++i) {
      const double exact = binomial_pmf(n, p, binomial.first() + i);
      EXPECT_NEAR(cdf[i] - previous, exact, 1e-10 * exact + 1e-15)
          << n << " " << p << " " << i;
      covered += exact;
      previous = cdf[i];
    }
    EXPECT_NEAR(covered, 1.0, 1e-12) << n << " " << p;
  }
}

TEST(Binomial, EdgeProbabilitiesAreOnePoint) {
  for (const uint64_t n : {uint64_t{0}, uint64_t{1}, uint64_t{40806}}) {
    const Binomial never(n, 0.0);
    const Binomial always(n, 1.0);
    EXPECT_EQ(never.cdf().size(), 1u);
    EXPECT_EQ(always.cdf().size(), 1u);
    Rng rng(n + 3);
    for (int i = 0; i < 1000; ++i) {
      EXPECT_EQ(never(rng), 0u);
      EXPECT_EQ(always(rng), n);
    }
  }
}

// One next_double() per draw: a seed fixes the sequence, and the generator
// ends where the same number of next_double() calls leaves it.
TEST(Binomial, DeterministicPerSeedOneUniformPerDraw) {
  const Binomial binomial(40806, 0.816);
  Rng a(42);
  Rng b(42);
  Rng c(43);
  Rng uniforms(42);
  int differ = 0;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t k = binomial(a);
    EXPECT_EQ(binomial(b), k);
    if (binomial(c) != k) ++differ;
    uniforms.next_double();
  }
  EXPECT_GT(differ, 900);
  EXPECT_EQ(a.next_u64(), uniforms.next_u64());
}

}  // namespace
}  // namespace curtain::net
