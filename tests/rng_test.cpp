#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

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

}  // namespace
}  // namespace curtain::net
