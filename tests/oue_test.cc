// Tests for the Optimized Unary Encoding mechanism (ref [41] extension).
//
// Simulation tests draw from fixed-seed Rngs, so they are deterministic;
// bands are phrased as multiples of the standard error so the assertions
// also hold for any reseeding with overwhelming probability.

#include "mechanisms/oue.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/strategy.h"
#include "mechanisms/rappor.h"
#include "workload/histogram.h"

namespace wfm {
namespace {

TEST(OueTest, ExplicitStrategyIsValidLdp) {
  for (double eps : {0.5, 1.0, 2.0}) {
    const Matrix q = OueMechanism::BuildExplicitStrategy(4, eps);
    const StrategyValidation v = ValidateStrategy(q, eps, 1e-9);
    EXPECT_TRUE(v.valid) << "eps=" << eps << ": " << v.ToString();
    // OUE's privacy bound is tight.
    EXPECT_NEAR(v.min_epsilon, eps, 1e-9);
  }
}

TEST(OueTest, DominatesRapporOnHistogram) {
  // Ref [41]'s headline: the asymmetric encoding has lower variance than
  // symmetric RAPPOR at every ε.
  const int n = 16;
  const WorkloadStats stats = WorkloadStats::From(HistogramWorkload(n));
  for (double eps : {0.5, 1.0, 2.0, 4.0}) {
    const OueMechanism oue(n, eps);
    const RapporMechanism rappor(n, eps);
    EXPECT_LT(oue.Analyze(stats).SampleComplexity(0.01),
              rappor.Analyze(stats).SampleComplexity(0.01))
        << "eps " << eps;
  }
}

TEST(OueTest, AnalysisMatchesClosedFormOnHistogram) {
  const int n = 8;
  const double eps = 1.0;
  const OueMechanism oue(n, eps);
  const WorkloadStats stats = WorkloadStats::From(HistogramWorkload(n));
  const ErrorProfile profile = oue.Analyze(stats);
  // phi_u = var_zero*(n-1) + var_one with G = I.
  const double q = 1.0 / (std::exp(eps) + 1.0);
  const double denom = (0.5 - q) * (0.5 - q);
  const double expected = q * (1 - q) / denom * (n - 1) + 0.25 / denom;
  for (double phi : profile.phi) EXPECT_NEAR(phi, expected, 1e-9);
}

TEST(OueTest, ReportBitMarginals) {
  Rng rng(221);
  const int n = 6;
  const OueMechanism oue(n, 1.0);
  // Draws through the deployed client, the one sampler OUE reports come from.
  const StatusOr<Deployment> deployment =
      oue.Deploy(WorkloadStats::From(HistogramWorkload(n)));
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
  const int trials = 20000;
  std::vector<int> ones(n, 0);
  for (int t = 0; t < trials; ++t) {
    const Report report = deployment.value().reporter->Respond(3, rng);
    ASSERT_EQ(static_cast<int>(report.bits.size()), n);
    for (int i = 0; i < n; ++i) ones[i] += report.bits[i];
  }
  const double q = oue.prob_one_given_zero();
  for (int i = 0; i < n; ++i) {
    const double expect = (i == 3 ? 0.5 : q) * trials;
    EXPECT_NEAR(ones[i], expect, 5.0 * std::sqrt(trials * 0.25) + 1) << "bit " << i;
  }
}

TEST(OueTest, SimulatedEstimateUnbiased) {
  Rng rng(222);
  const int n = 5;
  const OueMechanism oue(n, 1.0);
  const Vector x{100, 50, 25, 0, 25};
  const int trials = 400;
  Vector mean(n, 0.0);
  for (int t = 0; t < trials; ++t) {
    const Vector est = oue.SimulateEstimate(x, rng);
    for (int u = 0; u < n; ++u) mean[u] += est[u] / trials;
  }
  const double band =
      5.0 * std::sqrt(oue.PerCoordinateUnitVariance() * Sum(x) / trials);
  for (int u = 0; u < n; ++u) EXPECT_NEAR(mean[u], x[u], band) << "type " << u;
}

TEST(OueTest, SimulatedVarianceMatchesAnalysis) {
  Rng rng(223);
  const int n = 4;
  const double eps = 1.0;
  const OueMechanism oue(n, eps);
  const Vector x{200, 100, 50, 150};
  const WorkloadStats stats = WorkloadStats::From(HistogramWorkload(n));
  const double analytic = oue.Analyze(stats).DataVariance(x);

  const int trials = 1500;
  double total_sq = 0.0;
  for (int t = 0; t < trials; ++t) {
    const Vector est = oue.SimulateEstimate(x, rng);
    for (int u = 0; u < n; ++u) {
      const double d = est[u] - x[u];
      total_sq += d * d;
    }
  }
  // The empirical variance of 1500 trials concentrates to ~sqrt(2/1500) ~ 3.7%
  // relative SE (chi²-like estimator); 12% is >3 SE.
  EXPECT_NEAR(total_sq / trials, analytic, 0.12 * analytic);
}

}  // namespace
}  // namespace wfm
