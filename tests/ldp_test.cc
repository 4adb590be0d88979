// Tests for the LDP runtime: the strategy reporter, the protocol simulation,
// and the statistical agreement between simulation and the analytic variance
// formulas (the key Monte-Carlo validation of Theorem 3.4).
//
// All randomness flows from fixed-seed Rngs (deterministic across runs);
// Monte-Carlo bands are sized in standard-error multiples, documented where
// they are not literal 5σ expressions.

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "api/plan.h"
#include "core/factorization.h"
#include "ldp/protocol.h"
#include "ldp/reporter.h"
#include "linalg/rng.h"
#include "linalg/samplers.h"
#include "mechanisms/randomized_response.h"
#include "workload/histogram.h"
#include "workload/prefix.h"

namespace wfm {
namespace {

TEST(StrategyReporterTest, RespondsAccordingToColumn) {
  Rng rng(131);
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(5, 1.0);
  const StrategyReporter reporter(q);
  EXPECT_EQ(reporter.num_outputs(), 5);
  EXPECT_EQ(reporter.num_types(), 5);
  const int trials = 50000;
  std::vector<int> counts(5, 0);
  for (int t = 0; t < trials; ++t) ++counts[reporter.Respond(2, rng).index];
  for (int o = 0; o < 5; ++o) {
    const double expect = q(o, 2) * trials;
    EXPECT_NEAR(counts[o], expect, 5.0 * std::sqrt(expect) + 1.0) << "output " << o;
  }
}

TEST(StrategyReporterTest, RespondStreamMatchesTheReferenceDrawForAFixedSeed) {
  // A deployed plan's client must emit, for a fixed seed, exactly the
  // stream of the textbook draw on its Q: per report, UniformInt(m) picks
  // an alias-table entry of the user's column and one NextDouble() decides
  // between the entry and its alias.
  OptimizerConfig optimizer;
  optimizer.seed = 7;
  const StatusOr<Plan> plan = Plan::For(std::make_shared<PrefixWorkload>(16))
                                  .Epsilon(1.0)
                                  .Mechanism("Optimized")
                                  .Optimizer(optimizer)
                                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const Matrix* q = plan.value().DeployedStrategy();
  ASSERT_NE(q, nullptr);
  std::vector<AliasSampler> columns;
  for (int u = 0; u < q->cols(); ++u) columns.emplace_back(q->Col(u));

  const PlanClient client = plan.value().Client();
  Rng rng(2024);
  Rng reference(2024);
  for (int t = 0; t < 50000; ++t) {
    const int type = (t * 7) % q->cols();
    const AliasSampler& column = columns[type];
    const int i = reference.UniformInt(column.size());
    const int expected = reference.NextDouble() < column.probability(i)
                             ? i
                             : column.alias(i);
    ASSERT_EQ(client.Respond(type, rng).index, expected) << "report " << t;
  }
  EXPECT_EQ(rng.NextUint64(), reference.NextUint64());
}

TEST(ProtocolTest, HistogramPreservesUserCount) {
  Rng rng(132);
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(6, 1.0);
  const Vector x{10, 20, 5, 0, 3, 12};
  const Vector y = SimulateResponseHistogram(q, x, rng);
  EXPECT_EQ(static_cast<int>(y.size()), 6);
  EXPECT_NEAR(Sum(y), Sum(x), 1e-9);
  for (double v : y) EXPECT_GE(v, 0.0);
}

TEST(ProtocolTest, FastAndPerUserPathsAgreeInDistribution) {
  // The multinomial draw and one StrategyReporter draw per user have the
  // same mean and comparable spread across repetitions.
  Rng rng(133);
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(4, 1.0);
  const StrategyReporter reporter(q);
  const Vector x{50, 30, 10, 10};
  const int trials = 300;
  Vector mean_fast(4, 0.0), mean_slow(4, 0.0);
  for (int t = 0; t < trials; ++t) {
    const Vector yf = SimulateResponseHistogram(q, x, rng);
    Vector ys(q.rows(), 0.0);
    for (int u = 0; u < q.cols(); ++u) {
      for (int j = 0; j < static_cast<int>(x[u]); ++j) {
        ys[reporter.RespondIndex(u, rng)] += 1.0;
      }
    }
    for (int o = 0; o < 4; ++o) {
      mean_fast[o] += yf[o] / trials;
      mean_slow[o] += ys[o] / trials;
    }
  }
  const Vector expected = MultiplyVec(q, x);
  for (int o = 0; o < 4; ++o) {
    const double band = 5.0 * std::sqrt(expected[o] / trials + 1.0);
    EXPECT_NEAR(mean_fast[o], expected[o], band);
    EXPECT_NEAR(mean_slow[o], expected[o], band);
  }
}

TEST(ProtocolTest, UnbiasedWorkloadEstimates) {
  // E[V y] = W x: the core unbiasedness property of Definition 3.2.
  Rng rng(134);
  const int n = 5;
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(n, 1.0);
  const PrefixWorkload workload(n);
  FactorizationAnalysis fa(q, WorkloadStats::From(workload));
  const Vector x{40, 10, 25, 5, 20};
  const Vector truth = workload.Apply(x);

  const int trials = 600;
  Vector mean(n, 0.0);
  for (int t = 0; t < trials; ++t) {
    const Vector y = SimulateResponseHistogram(q, x, rng);
    const Vector answers =
        workload.Apply(MultiplyVec(fa.ReconstructionB(), y));
    for (int i = 0; i < n; ++i) mean[i] += answers[i] / trials;
  }
  const double var = fa.DataVariance(x);
  const double band = 5.0 * std::sqrt(var / trials);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(mean[i], truth[i], band) << "query " << i;
}

TEST(ProtocolTest, EmpiricalVarianceMatchesTheorem34) {
  // The Monte-Carlo total squared error must agree with the analytic
  // data-dependent variance — the strongest end-to-end correctness check of
  // the variance derivation.
  Rng rng(135);
  const int n = 4;
  const double eps = 1.0;
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(n, eps);
  const HistogramWorkload workload(n);
  FactorizationAnalysis fa(q, WorkloadStats::From(workload));
  const Vector x{30, 50, 10, 10};
  const Vector truth = workload.Apply(x);
  const double analytic = fa.DataVariance(x);

  const int trials = 3000;
  double total_sq_error = 0.0;
  for (int t = 0; t < trials; ++t) {
    const Vector y = SimulateResponseHistogram(q, x, rng);
    const Vector answers =
        workload.Apply(MultiplyVec(fa.ReconstructionB(), y));
    for (int i = 0; i < n; ++i) {
      const double d = answers[i] - truth[i];
      total_sq_error += d * d;
    }
  }
  const double empirical = total_sq_error / trials;
  // Mean of 3000 chi²-like squared-error draws: relative SE ~sqrt(2/3000)
  // ~ 2.6%, so a 10% band is ~4 SE (deterministic anyway under seed 135).
  EXPECT_NEAR(empirical, analytic, 0.1 * analytic);
}

TEST(ProtocolTest, ZeroUsersOfSomeTypes) {
  Rng rng(136);
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(3, 1.0);
  const Vector x{0, 100, 0};
  const Vector y = SimulateResponseHistogram(q, x, rng);
  EXPECT_NEAR(Sum(y), 100, 1e-9);
}

TEST(ProtocolDeathTest, NegativeCountsRejected) {
  Rng rng(137);
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(3, 1.0);
  EXPECT_DEATH(SimulateResponseHistogram(q, {1, -2, 3}, rng), "non-negative");
}

}  // namespace
}  // namespace wfm
