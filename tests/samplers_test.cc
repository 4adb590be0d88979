// Statistical tests for the alias, binomial and multinomial samplers.
//
// All randomness flows from fixed-seed Rngs (deterministic across runs);
// Monte-Carlo bands are sized in standard-error multiples, documented where
// they are not literal 5σ expressions.

#include "linalg/samplers.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include <gtest/gtest.h>

namespace wfm {
namespace {

TEST(AliasSamplerTest, MatchesWeights) {
  Rng rng(21);
  const std::vector<double> weights{1.0, 2.0, 3.0, 4.0};
  AliasSampler sampler(weights);
  std::vector<int> counts(4, 0);
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) ++counts[sampler.Sample(rng)];
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  for (int i = 0; i < 4; ++i) {
    const double expected = trials * weights[i] / total;
    EXPECT_NEAR(counts[i], expected, 5.0 * std::sqrt(expected)) << "bin " << i;
  }
}

TEST(AliasSamplerTest, HandlesZeroWeights) {
  Rng rng(22);
  AliasSampler sampler({0.0, 1.0, 0.0, 2.0});
  for (int i = 0; i < 10000; ++i) {
    const int s = sampler.Sample(rng);
    EXPECT_TRUE(s == 1 || s == 3);
  }
}

TEST(AliasSamplerTest, SingleCategory) {
  Rng rng(23);
  AliasSampler sampler({5.0});
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sampler.Sample(rng), 0);
}

TEST(AliasSamplerTest, DegenerateDistribution) {
  Rng rng(24);
  AliasSampler sampler({0.0, 0.0, 7.0});
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sampler.Sample(rng), 2);
}

// --- bit identity with the division-based reference draw -----------------

constexpr int kIndexSizes[] = {1, 2, 3, 7, 1024,
                               std::numeric_limits<int>::max()};

TEST(UniformIndexTest, DrawsMatchUniformIntDrawForDraw) {
  for (const int n : kIndexSizes) {
    const UniformIndex index(n);
    Rng fast(90 + n % 97);
    Rng reference(90 + n % 97);
    for (int t = 0; t < 20000; ++t) {
      ASSERT_EQ(index.Draw(fast), reference.UniformInt(n))
          << "n = " << n << ", draw " << t;
    }
    // Same raw outputs consumed: the streams stay in lockstep afterwards.
    EXPECT_EQ(fast.NextUint64(), reference.NextUint64()) << "n = " << n;
  }
}

TEST(UniformIndexTest, ModIsExactAtTheEdgesOfTheRange) {
  for (const int n : kIndexSizes) {
    const UniformIndex index(n);
    const std::uint64_t un = static_cast<std::uint64_t>(n);
    const std::uint64_t limit = UINT64_MAX - UINT64_MAX % un;
    ASSERT_EQ(index.limit(), limit) << "n = " << n;
    std::vector<std::uint64_t> edges;
    for (std::uint64_t d = 0; d < 4; ++d) {
      edges.push_back(d);
      edges.push_back(UINT64_MAX - d);
      edges.push_back(limit - 1 - d);  // Largest accepted outputs.
      edges.push_back(limit + d);      // Rejected, but Mod stays exact.
      edges.push_back(un * d);
      edges.push_back(un * d + un - 1);
    }
    edges.push_back(un * (UINT64_MAX / un));
    edges.push_back(un * (UINT64_MAX / un) - 1);
    Rng rng(5);
    for (int t = 0; t < 20000; ++t) edges.push_back(rng.NextUint64());
    for (const std::uint64_t r : edges) {
      ASSERT_EQ(index.Mod(r), r % un) << "n = " << n << ", r = " << r;
    }
  }
}

TEST(AliasSamplerTest, SampleMatchesTheDivisionBasedReferenceDrawForDraw) {
  // The reference formula: UniformInt(n), then one NextDouble() against the
  // drawn entry's probability.
  for (const int n : {1, 2, 3, 7, 1024}) {
    Rng weights_rng(300 + n);
    std::vector<double> weights(n);
    for (double& w : weights) w = weights_rng.NextDouble();
    weights[0] += 1e-3;  // Positive total.
    const AliasSampler sampler(weights);
    Rng fast(40 + n);
    Rng reference(40 + n);
    for (int t = 0; t < 20000; ++t) {
      const int i = reference.UniformInt(n);
      const int expected = reference.NextDouble() < sampler.probability(i)
                               ? i
                               : sampler.alias(i);
      ASSERT_EQ(sampler.Sample(fast), expected)
          << "n = " << n << ", draw " << t;
    }
    EXPECT_EQ(fast.NextUint64(), reference.NextUint64()) << "n = " << n;
  }
}

TEST(AliasSamplerTest, DegenerateTablesMatchTheTernaryReferenceDrawForDraw) {
  // Tables whose entries sit at the ends of [0, 1]: exact-zero weights give
  // probability-0 entries, one-hot weights a single full entry every other
  // entry aliases, and equal weights a table of full entries that alias
  // themselves. Sizes: 1, powers of two and primes.
  for (const int n : {1, 2, 3, 7, 8, 13, 64, 1021, 1024}) {
    std::vector<std::vector<double>> tables;
    tables.emplace_back(n, 1.0);                    // All equal.
    std::vector<double> one_hot(n, 0.0);
    one_hot[n / 2] = 3.0;
    tables.push_back(one_hot);
    std::vector<double> sparse(n, 0.0);             // Exact zeros between.
    for (int i = 0; i < n; i += 3) sparse[i] = 1.0 + i % 5;
    tables.push_back(sparse);

    for (std::size_t table = 0; table < tables.size(); ++table) {
      const AliasSampler sampler(tables[table]);
      if (table == 0) {
        for (int i = 0; i < n; ++i) {
          ASSERT_EQ(sampler.probability(i), 1.0) << "n = " << n << ", i " << i;
          ASSERT_EQ(sampler.alias(i), i) << "n = " << n;
        }
      }
      Rng fast(700 + n);
      Rng reference(700 + n);
      for (int t = 0; t < 5000; ++t) {
        const int i = reference.UniformInt(n);
        const int expected = reference.NextDouble() < sampler.probability(i)
                                 ? i
                                 : sampler.alias(i);
        ASSERT_GT(tables[table][expected], 0.0) << "zero-weight draw";
        ASSERT_EQ(sampler.Sample(fast), expected)
            << "n = " << n << ", table " << table << ", draw " << t;
      }
      EXPECT_EQ(fast.NextUint64(), reference.NextUint64())
          << "n = " << n << ", table " << table;
    }
  }
}

TEST(DivisorTest, DivideMatchesHardwareDivisionAndModulo) {
  std::vector<std::uint64_t> divisors{1, 2, 3, 7, 46341,
                                      std::numeric_limits<int>::max()};
  for (int k = 2; k < 31; ++k) divisors.push_back(std::uint64_t{1} << k);
  const std::uint64_t int_max = std::numeric_limits<int>::max();
  for (const std::uint64_t d : divisors) {
    const Divisor divisor(d);
    ASSERT_EQ(divisor.divisor(), d);
    std::vector<std::uint64_t> values{0, d - 1, d, int_max, int_max - 1,
                                      UINT64_MAX, UINT64_MAX - d};
    for (const std::uint64_t k : {1, 2, 3, 46340, 46341, 1 << 20}) {
      values.push_back(k * d - 1);
      values.push_back(k * d);
      values.push_back(k * d + 1);
    }
    values.push_back(d * (UINT64_MAX / d));
    values.push_back(d * (UINT64_MAX / d) - 1);
    Rng rng(11);
    for (int t = 0; t < 20000; ++t) {
      values.push_back(rng.NextUint64());
      values.push_back(rng.NextUint64() >> 33);  // Int-sized user types.
    }
    for (const std::uint64_t r : values) {
      const Divisor::QuotientRemainder split = divisor.Divide(r);
      ASSERT_EQ(split.quotient, r / d) << "d = " << d << ", r = " << r;
      ASSERT_EQ(split.remainder, r % d) << "d = " << d << ", r = " << r;
    }
  }
}

TEST(BinomialTest, EdgeCases) {
  Rng rng(25);
  EXPECT_EQ(SampleBinomial(rng, 0, 0.5), 0);
  EXPECT_EQ(SampleBinomial(rng, 10, 0.0), 0);
  EXPECT_EQ(SampleBinomial(rng, 10, 1.0), 10);
}

struct BinomialCase {
  std::int64_t n;
  double p;
};

class BinomialMoments : public ::testing::TestWithParam<BinomialCase> {};

TEST_P(BinomialMoments, MeanAndVariance) {
  // Covers the inversion path (np < 10), the BTRS path (np >= 10) and the
  // reflected p > 0.5 path.
  Rng rng(26);
  const auto [n, p] = GetParam();
  const int trials = 60000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < trials; ++i) {
    const std::int64_t k = SampleBinomial(rng, n, p);
    ASSERT_GE(k, 0);
    ASSERT_LE(k, n);
    sum += static_cast<double>(k);
    sq += static_cast<double>(k) * k;
  }
  const double mean = sum / trials;
  const double var = sq / trials - mean * mean;
  const double expect_mean = n * p;
  const double expect_var = n * p * (1 - p);
  // 5-sigma Monte Carlo bands. The sample-variance estimate has relative SE
  // ~sqrt(2/trials) ~ 0.6%; 5% relative (+0.01 absolute floor for tiny
  // variances) is >5 SE across all parameterized cases.
  EXPECT_NEAR(mean, expect_mean, 5.0 * std::sqrt(expect_var / trials) + 1e-9);
  EXPECT_NEAR(var, expect_var, 0.05 * expect_var + 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BinomialMoments,
    ::testing::Values(BinomialCase{5, 0.3}, BinomialCase{20, 0.1},
                      BinomialCase{100, 0.02}, BinomialCase{50, 0.5},
                      BinomialCase{400, 0.25}, BinomialCase{1000, 0.9},
                      BinomialCase{100000, 0.001}, BinomialCase{100000, 0.37}));

TEST(MultinomialTest, CountsSumToN) {
  Rng rng(27);
  const std::vector<double> probs{0.1, 0.2, 0.3, 0.4};
  for (int trial = 0; trial < 100; ++trial) {
    const auto counts = SampleMultinomial(rng, 1000, probs);
    std::int64_t total = 0;
    for (auto c : counts) {
      EXPECT_GE(c, 0);
      total += c;
    }
    EXPECT_EQ(total, 1000);
  }
}

TEST(MultinomialTest, MarginalMeans) {
  Rng rng(28);
  const std::vector<double> probs{0.5, 0.25, 0.25};
  const std::int64_t n = 10000;
  const int trials = 2000;
  std::vector<double> sums(3, 0.0);
  for (int t = 0; t < trials; ++t) {
    const auto counts = SampleMultinomial(rng, n, probs);
    for (int i = 0; i < 3; ++i) sums[i] += static_cast<double>(counts[i]);
  }
  for (int i = 0; i < 3; ++i) {
    const double mean = sums[i] / trials;
    const double expect = n * probs[i];
    EXPECT_NEAR(mean, expect, 5.0 * std::sqrt(n * probs[i] * (1 - probs[i]) / trials));
  }
}

TEST(MultinomialTest, UnnormalizedWeights) {
  Rng rng(29);
  const auto counts = SampleMultinomial(rng, 500, {2.0, 2.0});
  EXPECT_EQ(counts[0] + counts[1], 500);
  // counts[0] ~ Binomial(500, 1/2): sd = sqrt(500/4) ~ 11.2, so 60 is >5 sd.
  EXPECT_NEAR(static_cast<double>(counts[0]), 250.0, 60.0);
}

TEST(MultinomialTest, ZeroProbabilityCategoryGetsNothing) {
  Rng rng(30);
  for (int t = 0; t < 50; ++t) {
    const auto counts = SampleMultinomial(rng, 100, {1.0, 0.0, 1.0});
    EXPECT_EQ(counts[1], 0);
  }
}

TEST(MultinomialTest, AllMassInOneCategory) {
  Rng rng(31);
  const auto counts = SampleMultinomial(rng, 42, {0.0, 1.0, 0.0});
  EXPECT_EQ(counts[1], 42);
}

}  // namespace
}  // namespace wfm
