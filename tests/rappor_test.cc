// Tests for the RAPPOR mechanism: Table 1 encoding, closed-form variance,
// and simulation unbiasedness.
//
// All randomness flows from fixed-seed Rngs (deterministic across runs);
// Monte-Carlo bands are sized in standard-error multiples, documented where
// they are not literal 5σ expressions.

#include "mechanisms/rappor.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/strategy.h"
#include "workload/histogram.h"

namespace wfm {
namespace {

TEST(RapporTest, FlipProbability) {
  RapporMechanism r(8, 2.0);
  EXPECT_NEAR(r.flip_probability(), 1.0 / (1.0 + std::exp(1.0)), 1e-12);
}

TEST(RapporTest, ExplicitStrategyIsValidLdp) {
  // The 2^n-row strategy satisfies Proposition 2.6 at the advertised ε.
  for (double eps : {0.5, 1.0, 2.0}) {
    const Matrix q = RapporMechanism::BuildExplicitStrategy(4, eps);
    EXPECT_EQ(q.rows(), 16);
    const StrategyValidation v = ValidateStrategy(q, eps, 1e-9);
    EXPECT_TRUE(v.valid) << "eps=" << eps << ": " << v.ToString();
    // The bound is tight: min epsilon is exactly ε (two bit flips).
    EXPECT_NEAR(v.min_epsilon, eps, 1e-9);
  }
}

TEST(RapporTest, ExplicitStrategyMatchesTable1Form) {
  // Q[o][u] ∝ e^{(ε/2)(n - ||o - e_u||₁)}.
  const int n = 3;
  const double eps = 1.0;
  const Matrix q = RapporMechanism::BuildExplicitStrategy(n, eps);
  for (int o = 0; o < 8; ++o) {
    for (int u = 0; u < n; ++u) {
      int hamming = 0;
      for (int bit = 0; bit < n; ++bit) {
        const bool reported = (o >> bit) & 1;
        const bool truth = (bit == u);
        hamming += reported != truth;
      }
      const double expected_ratio = std::exp(eps / 2.0 * (n - hamming));
      EXPECT_NEAR(q(o, u) / q((1 << u), u),
                  expected_ratio / std::exp(eps / 2.0 * n), 1e-9);
    }
  }
}

TEST(RapporTest, AnalysisMatchesClosedForm) {
  const int n = 8;
  const double eps = 1.0;
  RapporMechanism r(n, eps);
  const HistogramWorkload w(n);
  const ErrorProfile profile = r.Analyze(WorkloadStats::From(w));
  const double f = r.flip_probability();
  const double expected = n * f * (1 - f) / ((1 - 2 * f) * (1 - 2 * f));
  for (double phi : profile.phi) EXPECT_NEAR(phi, expected, 1e-9);
}

TEST(RapporTest, ReportBitMarginals) {
  Rng rng(111);
  const int n = 6;
  RapporMechanism r(n, 1.0);
  // Draws through the deployed client, the one sampler RAPPOR reports come
  // from.
  const StatusOr<Deployment> deployment =
      r.Deploy(WorkloadStats::From(HistogramWorkload(n)));
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
  const int trials = 20000;
  std::vector<int> ones(n, 0);
  for (int t = 0; t < trials; ++t) {
    const Report report = deployment.value().reporter->Respond(2, rng);
    ASSERT_EQ(static_cast<int>(report.bits.size()), n);
    for (int i = 0; i < n; ++i) ones[i] += report.bits[i];
  }
  const double f = r.flip_probability();
  for (int i = 0; i < n; ++i) {
    const double expect = (i == 2 ? 1.0 - f : f) * trials;
    EXPECT_NEAR(ones[i], expect, 5.0 * std::sqrt(trials * f * (1 - f)) + 1.0)
        << "bit " << i;
  }
}

TEST(RapporTest, SimulatedEstimateIsUnbiased) {
  Rng rng(112);
  const int n = 5;
  RapporMechanism r(n, 1.5);
  const Vector x{100, 0, 50, 25, 25};
  const int trials = 300;
  Vector mean(n, 0.0);
  for (int t = 0; t < trials; ++t) {
    const Vector est = r.SimulateEstimate(x, rng);
    for (int u = 0; u < n; ++u) mean[u] += est[u] / trials;
  }
  // Monte-Carlo band: std of the mean is sqrt(c*N/trials).
  const double c = r.PerCoordinateUnitVariance();
  const double band = 5.0 * std::sqrt(c * Sum(x) / trials);
  for (int u = 0; u < n; ++u) EXPECT_NEAR(mean[u], x[u], band) << "type " << u;
}

TEST(RapporTest, SimulatedVarianceMatchesClosedForm) {
  Rng rng(113);
  const int n = 4;
  RapporMechanism r(n, 1.0);
  const Vector x{200, 100, 50, 150};
  const int trials = 400;
  const double num_users = Sum(x);
  Vector sum(n, 0.0), sumsq(n, 0.0);
  for (int t = 0; t < trials; ++t) {
    const Vector est = r.SimulateEstimate(x, rng);
    for (int u = 0; u < n; ++u) {
      sum[u] += est[u];
      sumsq[u] += est[u] * est[u];
    }
  }
  const double expected = r.PerCoordinateUnitVariance() * num_users;
  for (int u = 0; u < n; ++u) {
    const double mean = sum[u] / trials;
    const double var = sumsq[u] / trials - mean * mean;
    // Variance of a variance estimate is large: 400 trials give relative
    // SE ~sqrt(2/400) ~ 7%, so the 35% band is ~5 SE.
    EXPECT_NEAR(var, expected, 0.35 * expected) << "type " << u;
  }
}

}  // namespace
}  // namespace wfm
