// Tests for the api/ Plan front door.
//
// The two acceptance properties pinned down here:
//   1. Parity — the Plan path (Build -> Client -> StartSession -> Estimate)
//      is *bit-identical* to manual wiring (OptimizedMechanism +
//      StrategyReporter + an in-test response count +
//      EstimateWorkloadAnswers) for a pinned RNG seed. The fluent API is a
//      repackaging, not a reimplementation.
//   2. Universality — every mechanism in the global registry (six Section
//      6.1 baselines + Optimized + the RAPPOR/OUE frequency oracles)
//      constructs through the registry and runs end-to-end through Plan:
//      client reports -> sharded session -> sealed epoch -> WNNLS estimate,
//      producing finite answers whose error is consistent with the
//      mechanism's analytic profile. (The statistical pinning of empirical
//      error to analyzed variance lives in mechanism_conformance_test.cc.)

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/plan.h"
#include "estimation/estimator.h"
#include "ldp/reporter.h"
#include "linalg/rng.h"
#include "mechanisms/optimized.h"
#include "mechanisms/randomized_response.h"
#include "mechanisms/registry.h"
#include "workload/histogram.h"
#include "workload/workload.h"

namespace wfm {
namespace {

OptimizerConfig SmallConfig(std::uint64_t seed) {
  OptimizerConfig config;
  config.iterations = 120;
  config.step_search_iterations = 20;
  config.seed = seed;
  return config;
}

// Example 2.2-style skewed counts summing exactly to `total`.
Vector SkewedTruth(int n, int total) {
  Vector truth(n, 0.0);
  double assigned = 0.0;
  for (int u = 0; u < n; ++u) {
    truth[u] = std::floor(static_cast<double>(total) / (2 << u));
    assigned += truth[u];
  }
  truth[0] += total - assigned;
  return truth;
}

TEST(PlanParityTest, BitIdenticalToManualQuickstartWiring) {
  const int n = 5;
  const double eps = 1.0;
  const int num_users = 4000;
  const OptimizerConfig config = SmallConfig(/*seed=*/1);
  auto workload = std::make_shared<HistogramWorkload>(n);
  const Vector truth = SkewedTruth(n, num_users);

  // --- Manual path: mechanism, reporter and decoder wired by hand. --------
  const WorkloadStats stats = WorkloadStats::From(*workload);
  const OptimizedMechanism mechanism(stats, eps, config);
  const ReportDecoder decoder =
      ReportDecoder::FromAnalysis(mechanism.AnalyzeFactorization(stats));
  Rng manual_rng(2024);
  const StrategyReporter reporter(mechanism.strategy());
  Vector histogram(reporter.num_outputs(), 0.0);
  for (int u = 0; u < n; ++u) {
    for (int j = 0; j < static_cast<int>(truth[u]); ++j) {
      histogram[reporter.RespondIndex(u, manual_rng)] += 1.0;
    }
  }
  const WorkloadEstimate manual = EstimateWorkloadAnswers(
      decoder, *workload, histogram, num_users, EstimatorKind::kWnnls);

  // --- Plan path, same pinned seeds. --------------------------------------
  const StatusOr<Plan> built = Plan::For(workload)
                                   .Epsilon(eps)
                                   .Mechanism("Optimized")
                                   .Optimizer(config)
                                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const Plan& plan = built.value();
  EXPECT_EQ(plan.mechanism_name(), "Optimized");

  const PlanClient client = plan.Client();
  std::unique_ptr<PlanSession> session = plan.StartSession(/*num_shards=*/1);
  Rng session_rng(2024);
  for (int u = 0; u < n; ++u) {
    for (int j = 0; j < static_cast<int>(truth[u]); ++j) {
      ASSERT_TRUE(session->Accept(0, client.Respond(u, session_rng)).ok());
    }
  }
  const EpochSnapshot sealed = session->Seal();
  EXPECT_EQ(sealed.histogram, histogram);  // Bit-identical.
  EXPECT_EQ(sealed.count, static_cast<std::int64_t>(num_users));
  const StatusOr<WorkloadEstimate> served =
      session->Estimate(EstimatorKind::kWnnls);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served.value().data_vector, manual.data_vector);
  EXPECT_EQ(served.value().query_answers, manual.query_answers);

  // The unbiased estimator kind agrees as well.
  const WorkloadEstimate manual_unbiased = EstimateWorkloadAnswers(
      decoder, *workload, histogram, num_users, EstimatorKind::kUnbiased);
  const StatusOr<WorkloadEstimate> served_unbiased =
      session->Estimate(EstimatorKind::kUnbiased);
  ASSERT_TRUE(served_unbiased.ok()) << served_unbiased.status().ToString();
  EXPECT_EQ(served_unbiased.value().data_vector, manual_unbiased.data_vector);
}

TEST(PlanDeployTest, EveryRegistryMechanismRunsEndToEnd) {
  // client reports -> sharded session -> sealed epoch -> WNNLS estimate for
  // all nine registry entries (n = 8 so Fourier qualifies).
  const int n = 8;
  const double eps = 2.0;
  const int num_users = 30000;
  const int num_shards = 2;
  auto workload = std::make_shared<HistogramWorkload>(n);
  const Vector truth = SkewedTruth(n, num_users);
  const Vector expected_answers = workload->Apply(truth);

  const std::vector<std::string> names =
      MechanismRegistry::Global().ListMechanisms();
  ASSERT_GE(names.size(), 9u);
  std::uint64_t seed = 71;
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    const StatusOr<Plan> built = Plan::For(workload)
                                     .Epsilon(eps)
                                     .Mechanism(name)
                                     .Optimizer(SmallConfig(/*seed=*/9))
                                     .Build();
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const Plan& plan = built.value();
    EXPECT_EQ(plan.mechanism_name(), name);
    EXPECT_GT(plan.Profile().WorstUnitVariance(), 0.0);

    const PlanClient client = plan.Client();
    std::unique_ptr<PlanSession> session = plan.StartSession(num_shards);
    Rng rng(seed++);
    int next_shard = 0;
    for (int u = 0; u < n; ++u) {
      for (int j = 0; j < static_cast<int>(truth[u]); ++j) {
        session->Accept(next_shard, client.Respond(u, rng));
        next_shard = (next_shard + 1) % num_shards;
      }
    }
    const EpochSnapshot sealed = session->Seal();
    EXPECT_EQ(sealed.count, static_cast<std::int64_t>(num_users));

    const StatusOr<WorkloadEstimate> estimate =
        session->Estimate(EstimatorKind::kWnnls);
    ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
    ASSERT_EQ(estimate.value().query_answers.size(), expected_answers.size());

    // Finite, and consistent with the mechanism's analytic error profile:
    // the observed total squared error of one pinned-seed run stays within a
    // wide multiple of its expectation E = DataVariance(truth) (WNNLS only
    // shrinks the unbiased error in practice).
    double total_sq_error = 0.0;
    for (std::size_t i = 0; i < expected_answers.size(); ++i) {
      const double answer = estimate.value().query_answers[i];
      ASSERT_TRUE(std::isfinite(answer));
      total_sq_error += std::pow(answer - expected_answers[i], 2);
    }
    const double analytic = plan.Profile().DataVariance(truth);
    EXPECT_LE(total_sq_error, 20.0 * analytic);

    // The WNNLS estimate approximately conserves the population size.
    EXPECT_NEAR(Sum(estimate.value().data_vector), num_users,
                0.25 * num_users);
  }
}

TEST(PlanDeployTest, DenseMatrixMechanismReportsFlowThroughTheSession) {
  // The additive-noise path: dense reports ingested over two shards must sum
  // to the coordinatewise total of the report stream (up to floating-point
  // commutation) and decode through the plan's linear decoder.
  const int n = 8;
  auto workload = std::make_shared<HistogramWorkload>(n);
  const StatusOr<Plan> built = Plan::For(workload)
                                   .Epsilon(1.0)
                                   .Mechanism("Matrix Mechanism (L1)")
                                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const Plan& plan = built.value();
  const PlanClient client = plan.Client();
  EXPECT_TRUE(client.dense_reports());

  std::unique_ptr<PlanSession> session = plan.StartSession(/*num_shards=*/2);
  Vector sum(client.num_outputs(), 0.0);
  Rng rng(55);
  for (int i = 0; i < 500; ++i) {
    const Report report = client.Respond(i % n, rng);
    ASSERT_TRUE(report.is_dense());
    ASSERT_EQ(static_cast<int>(report.dense.size()), client.num_outputs());
    for (int o = 0; o < client.num_outputs(); ++o) sum[o] += report.dense[o];
    ASSERT_TRUE(session->Accept(i % 2, report).ok());
  }
  const EpochSnapshot sealed = session->Seal();
  EXPECT_EQ(sealed.count, 500);
  for (int o = 0; o < client.num_outputs(); ++o) {
    EXPECT_NEAR(sealed.histogram[o], sum[o], 1e-9 * (1.0 + std::abs(sum[o])));
  }
  const WorkloadEstimate expected =
      EstimateWorkloadAnswers(session->session().decoder(), *workload,
                              sealed.histogram, sealed.count,
                              EstimatorKind::kUnbiased);
  const StatusOr<WorkloadEstimate> served =
      session->Estimate(EstimatorKind::kUnbiased);
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served.value().data_vector, expected.data_vector);
}

TEST(PlanDeployTest, BitVectorReportsFlowThroughTheSession) {
  // The frequency-oracle path: RAPPOR's n-bit reports ingested over two
  // shards must land as the exact per-coordinate set-bit counts, and the
  // unbiased decode must equal the hand-computed affine debias
  // (y - N f)/(1 - 2f) of the same aggregate.
  const int n = 8;
  const double eps = 1.0;
  auto workload = std::make_shared<HistogramWorkload>(n);
  const StatusOr<Plan> built =
      Plan::For(workload).Epsilon(eps).Mechanism("RAPPOR").Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const Plan& plan = built.value();
  const PlanClient client = plan.Client();
  EXPECT_TRUE(client.bit_vector_reports());
  EXPECT_FALSE(client.dense_reports());
  EXPECT_EQ(client.num_outputs(), n);  // m == n for unary encodings.

  std::unique_ptr<PlanSession> session = plan.StartSession(/*num_shards=*/2);
  Vector counts(n, 0.0);
  Rng rng(77);
  const int num_reports = 600;
  for (int i = 0; i < num_reports; ++i) {
    const Report report = client.Respond(i % n, rng);
    ASSERT_TRUE(report.is_bits());
    ASSERT_EQ(static_cast<int>(report.bits.size()), n);
    for (int o = 0; o < n; ++o) counts[o] += report.bits[o];
    ASSERT_TRUE(session->Accept(i % 2, report).ok());
  }
  const EpochSnapshot sealed = session->Seal();
  EXPECT_EQ(sealed.count, num_reports);
  EXPECT_EQ(sealed.histogram, counts);  // Integer counts: exact.

  // The decode is the textbook affine debias against the report count.
  const double f = 1.0 / (1.0 + std::exp(eps / 2.0));
  const StatusOr<WorkloadEstimate> served =
      session->Estimate(EstimatorKind::kUnbiased);
  ASSERT_TRUE(served.ok());
  for (int u = 0; u < n; ++u) {
    const double expected = (counts[u] - num_reports * f) / (1.0 - 2.0 * f);
    EXPECT_NEAR(served.value().data_vector[u], expected, 1e-9);
  }
}

TEST(PlanSessionTest, MalformedReportsAreInvalidArgumentNotFatal) {
  // Reports arrive from untrusted devices: a report whose dimension
  // mismatches the deployment (and any other corrupt shape) must surface as
  // kInvalidArgument and leave the aggregate untouched — a regression test
  // for the CHECK-abort this used to be.
  const int n = 8;
  auto workload = std::make_shared<HistogramWorkload>(n);

  // Dense deployment (Matrix Mechanism).
  const StatusOr<Plan> dense_plan = Plan::For(workload)
                                        .Epsilon(1.0)
                                        .Mechanism("Matrix Mechanism (L1)")
                                        .Build();
  ASSERT_TRUE(dense_plan.ok()) << dense_plan.status().ToString();
  const int dense_m = dense_plan.value().Client().num_outputs();
  std::unique_ptr<PlanSession> dense = dense_plan.value().StartSession(1);
  Report wrong_dim;
  wrong_dim.dense = Vector(dense_m + 3, 1.0);
  EXPECT_EQ(dense->Accept(0, wrong_dim).code(), StatusCode::kInvalidArgument);
  // A non-finite entry would poison the aggregate (NaN forever after).
  Report poisoned;
  poisoned.dense = Vector(dense_m, 1.0);
  poisoned.dense[2] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(dense->Accept(0, poisoned).code(), StatusCode::kInvalidArgument);
  poisoned.dense[2] = std::numeric_limits<double>::infinity();
  EXPECT_EQ(dense->Accept(0, poisoned).code(), StatusCode::kInvalidArgument);

  // Categorical deployment: out-of-range index.
  const StatusOr<Plan> cat_plan =
      Plan::For(workload).Epsilon(1.0).Mechanism("Randomized Response").Build();
  ASSERT_TRUE(cat_plan.ok());
  std::unique_ptr<PlanSession> cat = cat_plan.value().StartSession(1);
  Report bad_index;
  bad_index.index = cat_plan.value().Client().num_outputs();
  EXPECT_EQ(cat->Accept(0, bad_index).code(), StatusCode::kInvalidArgument);
  bad_index.index = -1;
  EXPECT_EQ(cat->Accept(0, bad_index).code(), StatusCode::kInvalidArgument);

  // Bit-vector deployment: wrong width and non-binary entries.
  const StatusOr<Plan> bits_plan =
      Plan::For(workload).Epsilon(1.0).Mechanism("OUE").Build();
  ASSERT_TRUE(bits_plan.ok());
  std::unique_ptr<PlanSession> bits = bits_plan.value().StartSession(1);
  Report short_bits;
  short_bits.bits.assign(n - 1, 0);
  EXPECT_EQ(bits->Accept(0, short_bits).code(), StatusCode::kInvalidArgument);
  Report corrupt_bits;
  corrupt_bits.bits.assign(n, 0);
  corrupt_bits.bits[3] = 2;
  EXPECT_EQ(bits->Accept(0, corrupt_bits).code(),
            StatusCode::kInvalidArgument);

  // A report whose *shape* mismatches the deployment is equally
  // device-controlled: rejected, never forwarded to a kind-checking abort.
  Report dense_into_bits;
  dense_into_bits.dense = Vector(n, 1.0);
  EXPECT_EQ(bits->Accept(0, dense_into_bits).code(),
            StatusCode::kInvalidArgument);
  Report index_into_dense;
  index_into_dense.index = 0;
  EXPECT_EQ(dense->Accept(0, index_into_dense).code(),
            StatusCode::kInvalidArgument);

  // Nothing was ingested anywhere.
  EXPECT_EQ(dense->session().total_responses(), 0);
  EXPECT_EQ(cat->session().total_responses(), 0);
  EXPECT_EQ(bits->session().total_responses(), 0);
  EXPECT_EQ(dense->Seal().histogram, Vector(dense_m, 0.0));
  EXPECT_EQ(bits->Seal().histogram, Vector(n, 0.0));

  // A well-formed report still lands after rejections.
  Rng rng(5);
  ASSERT_TRUE(
      bits->Accept(0, bits_plan.value().Client().Respond(0, rng)).ok());
  EXPECT_EQ(bits->session().total_responses(), 1);
}

TEST(PlanBuilderTest, UnknownMechanismIsNotFoundAndListsRegistry) {
  auto workload = std::make_shared<HistogramWorkload>(8);
  const StatusOr<Plan> built =
      Plan::For(workload).Epsilon(1.0).Mechanism("Optimzied").Build();  // Typo.
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kNotFound);
  EXPECT_NE(built.status().message().find("Optimized"), std::string::npos)
      << "error should list the registered names";
}

TEST(PlanBuilderTest, FourierOffPowerOfTwoIsInvalidArgument) {
  auto workload = std::make_shared<HistogramWorkload>(12);
  const StatusOr<Plan> built =
      Plan::For(workload).Epsilon(1.0).Mechanism("Fourier").Build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

TEST(PlanBuilderTest, RequiresPositiveEpsilonAndAWorkload) {
  auto workload = std::make_shared<HistogramWorkload>(4);
  EXPECT_EQ(Plan::For(workload).Mechanism("Randomized Response").Build()
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // Epsilon never set.
  EXPECT_EQ(Plan::For(workload)
                .Epsilon(-0.5)
                .Mechanism("Randomized Response")
                .Build()
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Plan::For(nullptr).Epsilon(1.0).Build().status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PlanBuilderTest, FixedStrategyDeploysAndValidatesShape) {
  const int n = 6;
  auto workload = std::make_shared<HistogramWorkload>(n);
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(n, 1.0);

  const StatusOr<Plan> built =
      Plan::For(workload).Epsilon(1.0).Strategy(q).Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built.value().mechanism_name(), "Strategy");

  // The fixed-strategy client draws exactly like a StrategyReporter over q.
  Rng a(3), b(3);
  const StrategyReporter reference(q);
  const PlanClient client = built.value().Client();
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(client.Respond(i % n, a).index, reference.RespondIndex(i % n, b));
  }

  const Matrix wrong = RandomizedResponseMechanism::BuildStrategy(n + 1, 1.0);
  EXPECT_EQ(Plan::For(workload).Epsilon(1.0).Strategy(wrong).Build()
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // A strategy saved at a looser epsilon cannot be deployed at a tighter
  // one — a runtime condition (corrupt/mismatched strategy file), so it must
  // surface as Status, not as the StrategyMechanism constructor's abort.
  const Matrix loose = RandomizedResponseMechanism::BuildStrategy(n, 2.0);
  const StatusOr<Plan> mismatched =
      Plan::For(workload).Epsilon(1.0).Strategy(loose).Build();
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
}

TEST(PlanBuilderTest, AutoSelectsTheRegistryArgmin) {
  const int n = 16;
  const double eps = 1.0;
  auto workload = std::make_shared<HistogramWorkload>(n);
  const WorkloadStats stats = WorkloadStats::From(*workload);
  MechanismOptions options;
  options.optimizer = SmallConfig(/*seed=*/5);

  const StatusOr<std::string> expected =
      MechanismRegistry::Global().AutoSelect(stats, eps, options);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  const StatusOr<Plan> built = Plan::For(workload)
                                   .Epsilon(eps)
                                   .Mechanism(Auto())
                                   .Optimizer(options.optimizer)
                                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built.value().mechanism_name(), expected.value());
}

TEST(PlanSessionTest, EstimateBeforeFirstSealIsFailedPrecondition) {
  auto workload = std::make_shared<HistogramWorkload>(4);
  const StatusOr<Plan> built = Plan::For(workload)
                                   .Epsilon(1.0)
                                   .Mechanism("Randomized Response")
                                   .Build();
  ASSERT_TRUE(built.ok());
  std::unique_ptr<PlanSession> session = built.value().StartSession(1);
  EXPECT_EQ(session->Estimate().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(PlanSessionTest, BatchIngestValidatesAtomically) {
  // AcceptBatch is all-or-nothing: one malformed report anywhere in the
  // batch rejects the whole batch with its position named, and nothing —
  // including the valid prefix before it — is ingested.
  auto workload = std::make_shared<HistogramWorkload>(6);
  const StatusOr<Plan> built = Plan::For(workload)
                                   .Epsilon(1.0)
                                   .Mechanism("Randomized Response")
                                   .Build();
  ASSERT_TRUE(built.ok());
  std::unique_ptr<PlanSession> session = built.value().StartSession(2);

  std::vector<Report> batch(5);
  for (int i = 0; i < 5; ++i) batch[i].index = i;
  batch[3].index = built.value().Client().num_outputs();  // Out of range.
  const Status rejected = session->AcceptBatch(1, batch);
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.message().find("report 3"), std::string::npos);
  EXPECT_EQ(session->session().pending_responses(), 0);

  batch[3].index = 0;
  ASSERT_TRUE(session->AcceptBatch(1, batch).ok());
  EXPECT_EQ(session->session().pending_responses(), 5);
  const EpochSnapshot sealed = session->Seal();
  EXPECT_EQ(sealed.count, 5);
}

TEST(PlanSessionTest, SessionsShareThePlansDecoderAndStrategy) {
  auto workload = std::make_shared<HistogramWorkload>(6);
  const StatusOr<Plan> built = Plan::For(workload)
                                   .Epsilon(1.0)
                                   .Mechanism("Randomized Response")
                                   .Build();
  ASSERT_TRUE(built.ok());
  std::unique_ptr<PlanSession> first = built.value().StartSession(1);
  std::unique_ptr<PlanSession> second = built.value().StartSession(2);
  const Plan copy = built.value();
  std::unique_ptr<PlanSession> third = copy.StartSession(1);

  // One decoder object behind every session of the plan (and of its copies),
  // and it is the session's version-0 decoder, not a copy of it.
  const ReportDecoder* decoder = &first->session().decoder();
  EXPECT_EQ(&second->session().decoder(), decoder);
  EXPECT_EQ(&third->session().decoder(), decoder);
  EXPECT_EQ(first->session().DecoderForVersion(0).get(), decoder);
  EXPECT_EQ(second->session().DecoderForVersion(0).get(), decoder);
  // The plan keeps one WorkloadStats: stats() is the decoder's own copy.
  const Plan& plan = built.value();
  EXPECT_EQ(&plan.stats(),
            &plan.StartSession(1)->session().decoder().workload_stats());
  EXPECT_EQ(&copy.stats(), &decoder->workload_stats());

  // The served strategy is the plan's Q, bit for bit.
  const Matrix* q = built.value().DeployedStrategy();
  ASSERT_NE(q, nullptr);
  const StatusOr<StrategySnapshot> current = second->CurrentStrategy();
  ASSERT_TRUE(current.ok()) << current.status().ToString();
  EXPECT_EQ(current.value().version, 0);
  EXPECT_EQ(current.value().epsilon, 1.0);
  ASSERT_EQ(current.value().q.rows(), q->rows());
  ASSERT_EQ(current.value().q.cols(), q->cols());
  EXPECT_EQ(std::memcmp(current.value().q.data(), q->data(),
                        sizeof(double) * q->rows() * q->cols()),
            0);

  // Sessions of one plan still aggregate independently.
  Report report;
  report.index = 2;
  ASSERT_TRUE(first->Accept(0, report).ok());
  EXPECT_EQ(first->session().pending_responses(), 1);
  EXPECT_EQ(second->session().pending_responses(), 0);
}

TEST(PlanSessionTest, RollStrategyValidatesAgainstTheDecodersStats) {
  // PlanSession keeps no WorkloadStats of its own: a roll is checked and
  // decoded against the stats the shared version-0 decoder carries.
  const int n = 6;
  auto workload = std::make_shared<HistogramWorkload>(n);
  const StatusOr<Plan> built = Plan::For(workload)
                                   .Epsilon(1.0)
                                   .Mechanism("Randomized Response")
                                   .Build();
  ASSERT_TRUE(built.ok());
  std::unique_ptr<PlanSession> session = built.value().StartSession(1);
  const ReportDecoder& initial = session->session().decoder();

  EXPECT_EQ(session->RollStrategy(Matrix(n, n - 1)).status().code(),
            StatusCode::kInvalidArgument);  // Wrong domain.
  EXPECT_EQ(session->RollStrategy(
                       RandomizedResponseMechanism::BuildStrategy(n, 3.0))
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // Spends more than the budget.

  const Matrix q1 = RandomizedResponseMechanism::BuildStrategy(n, 0.5);
  const StatusOr<int> staged = session->RollStrategy(q1);
  ASSERT_TRUE(staged.ok()) << staged.status().ToString();
  EXPECT_EQ(staged.value(), 1);
  EXPECT_EQ(session->CurrentStrategy().value().version, 0);  // Until Seal.

  Report report;
  report.index = 1;
  ASSERT_TRUE(session->Accept(0, report).ok());
  EXPECT_EQ(session->Seal().strategy_version, 0);
  const StatusOr<StrategySnapshot> rolled = session->CurrentStrategy();
  ASSERT_TRUE(rolled.ok());
  EXPECT_EQ(rolled.value().version, 1);
  EXPECT_EQ(std::memcmp(rolled.value().q.data(), q1.data(),
                        sizeof(double) * n * n),
            0);
  const std::shared_ptr<const ReportDecoder> v1 =
      session->session().DecoderForVersion(1);
  ASSERT_NE(v1, nullptr);
  EXPECT_NE(v1.get(), &initial);
  EXPECT_EQ(&session->session().decoder(), &initial);  // Pinned to v0.
  EXPECT_EQ(v1->workload_stats().gram.rows(), n);

  // Devices re-encode under the rolled strategy.
  const StrategyReporter rolled_client(q1);
  Rng rng(8);
  for (int r = 0; r < 600; ++r) {
    ASSERT_TRUE(session->Accept(0, rolled_client.Respond(r % n, rng)).ok());
  }
  EXPECT_EQ(session->Seal().strategy_version, 1);
  const StatusOr<WorkloadEstimate> estimate =
      session->EstimateWindow(2, EstimatorKind::kWnnls);
  ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
  ASSERT_EQ(estimate.value().data_vector.size(), static_cast<std::size_t>(n));
  for (double v : estimate.value().data_vector) EXPECT_TRUE(std::isfinite(v));
}

TEST(PlanSessionTest, SnapshotAccessAndRestoreRoundTrip) {
  // The PlanSession surface the wire service maps GET/PUSH snapshot onto:
  // kNotFound before sealing, the sealed epoch after, and restore adopting a
  // foreign epoch into local history.
  auto workload = std::make_shared<HistogramWorkload>(4);
  const StatusOr<Plan> built = Plan::For(workload)
                                   .Epsilon(1.0)
                                   .Mechanism("Randomized Response")
                                   .Build();
  ASSERT_TRUE(built.ok());
  std::unique_ptr<PlanSession> session = built.value().StartSession(1);
  EXPECT_EQ(session->Snapshot(0).status().code(), StatusCode::kNotFound);

  Report r;
  r.index = 1;
  ASSERT_TRUE(session->Accept(0, r).ok());
  const EpochSnapshot sealed = session->Seal();
  const auto fetched = session->Snapshot(0);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(*fetched.value(), sealed);

  std::unique_ptr<PlanSession> other = built.value().StartSession(1);
  const StatusOr<int> adopted = other->RestoreSealedEpoch(sealed);
  ASSERT_TRUE(adopted.ok());
  EXPECT_EQ(adopted.value(), 0);
  EXPECT_EQ(other->Estimate().value().query_answers,
            session->Estimate().value().query_answers);

  EpochSnapshot malformed;
  malformed.histogram = {1.0};  // Wrong dimension for this deployment.
  EXPECT_EQ(other->RestoreSealedEpoch(malformed).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace wfm
