#include "mechanisms/factored.h"

#include <limits>
#include <memory>
#include <vector>

#include "core/strategy.h"
#include "linalg/kron.h"

namespace wfm {
namespace {

// Same Gram-side residual gate StrategyMechanism uses (Definition 3.2
// requires W = VQ), applied to the worst factor.
constexpr double kResidualTolerance = 1e-5;

}  // namespace

FactoredStrategyMechanism::FactoredStrategyMechanism(FactoredStrategy strategy,
                                                     int n, double eps,
                                                     std::string name)
    : strategy_(std::move(strategy)),
      n_(n),
      eps_(eps),
      name_(std::move(name)) {
  WFM_CHECK(!strategy_.factors.empty());
  WFM_CHECK_EQ(strategy_.factors.size(), strategy_.epsilons.size());
  WFM_CHECK_EQ(strategy_.cols(), n_) << "composed strategy domain mismatch";
  // The composed guarantee is the sum of factor budgets (independent
  // per-factor sampling multiplies the likelihood ratios).
  WFM_CHECK_LE(strategy_.total_epsilon(), eps * (1.0 + 1e-9))
      << "factor budgets exceed the declared total epsilon";
  for (std::size_t i = 0; i < strategy_.factors.size(); ++i) {
    const StrategyValidation v =
        ValidateStrategy(strategy_.factors[i], strategy_.epsilons[i],
                         /*tol=*/1e-6);
    WFM_CHECK(v.valid) << "invalid factor" << i
                       << "strategy matrix:" << v.ToString();
  }
}

StatusOr<FactoredAnalysis> FactoredStrategyMechanism::TryAnalyzeFactored(
    const WorkloadStats& workload) const {
  if (!workload.factored()) {
    return Status::FailedPrecondition(
        name_ + " holds a factored strategy; workload '" + workload.name +
        "' has no Kronecker structure (flat stats)");
  }
  if (workload.factors.size() != strategy_.factors.size()) {
    return Status::FailedPrecondition(
        name_ + " factor count mismatch for workload '" + workload.name + "'");
  }
  for (std::size_t i = 0; i < workload.factors.size(); ++i) {
    if (workload.factors[i].n != strategy_.factors[i].cols()) {
      return Status::FailedPrecondition(
          name_ + " factor " + std::to_string(i) +
          " domain mismatch for workload '" + workload.name + "'");
    }
  }
  FactoredAnalysis analysis(strategy_, workload);
  if (analysis.FactorizationResidual() >= kResidualTolerance) {
    return Status::FailedPrecondition(
        name_ + " cannot represent workload " + workload.name +
        " (worst factor residual " +
        std::to_string(analysis.FactorizationResidual()) + ")");
  }
  return analysis;
}

ErrorProfile FactoredStrategyMechanism::Analyze(
    const WorkloadStats& workload) const {
  StatusOr<ErrorProfile> profile = TryAnalyze(workload);
  WFM_CHECK(profile.ok()) << profile.status().ToString();
  return std::move(profile).value();
}

StatusOr<ErrorProfile> FactoredStrategyMechanism::TryAnalyze(
    const WorkloadStats& workload) const {
  StatusOr<FactoredAnalysis> analysis = TryAnalyzeFactored(workload);
  if (!analysis.ok()) return analysis.status();
  ErrorProfile profile;
  profile.phi = analysis.value().PerUserVariance();
  profile.num_queries = workload.p;
  return profile;
}

StatusOr<Deployment> FactoredStrategyMechanism::Deploy(
    const WorkloadStats& workload) const {
  StatusOr<FactoredAnalysis> analysis = TryAnalyzeFactored(workload);
  if (!analysis.ok()) return analysis.status();
  const FactoredAnalysis& fa = analysis.value();
  WFM_CHECK_LE(fa.m(), std::numeric_limits<int>::max());
  ErrorProfile profile;
  profile.phi = fa.PerUserVariance();
  profile.num_queries = workload.p;
  std::vector<Matrix> b_factors;
  b_factors.reserve(strategy_.factors.size());
  for (int i = 0; i < fa.num_factors(); ++i) {
    b_factors.push_back(fa.factor_analysis(i).ReconstructionB());
  }
  return Deployment{
      std::make_shared<FactoredStrategyReporter>(strategy_.factors),
      std::make_shared<const ReportDecoder>(std::move(b_factors), workload),
      std::move(profile)};
}

}  // namespace wfm
