// Common interface for ε-LDP mechanisms that answer linear query workloads.
//
// Every mechanism exposes an ErrorProfile against a workload: the per-user
// unit variance phi_u (Theorem 3.4 with x = e_u), from which worst-case /
// average-case variance, data-dependent variance and the paper's sample
// complexity metric (Corollary 5.4) all follow. Strategy-matrix mechanisms
// (Proposition 2.6) get their profile from FactorizationAnalysis with the
// optimal reconstruction V of Theorem 3.10 — exactly how the paper evaluates
// baselines on workloads they were not designed for (Section 6.1 runs the
// same Q on every workload and re-derives V per workload). Additive-noise
// mechanisms (the distributed Matrix Mechanism) compute their profile in
// closed form.
//
// Beyond analysis, every runnable mechanism exposes Deploy(): the
// client/server halves of the paper's one-round protocol — a Reporter that
// privatizes one user's type on-device and a ReportDecoder that
// reconstructs the data vector from the aggregate of all reports. api/Plan
// is the high-level front door over this seam.

#ifndef WFM_MECHANISMS_MECHANISM_H_
#define WFM_MECHANISMS_MECHANISM_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "core/factorization.h"
#include "estimation/decoder.h"
#include "ldp/reporter.h"
#include "linalg/matrix.h"

namespace wfm {

/// Per-user variance profile of a mechanism on a fixed workload.
struct ErrorProfile {
  /// phi[u] = total workload variance contributed by one user of type u.
  Vector phi;
  /// Number of workload queries p (normalizes the sample complexity).
  std::int64_t num_queries = 0;

  /// max_u phi_u: worst-case variance per user (Corollary 3.5 / N).
  double WorstUnitVariance() const;
  /// (1/n) sum_u phi_u: average-case variance per user (Corollary 3.6 / N).
  double AverageUnitVariance() const;
  /// Exact total variance on a dataset x (Theorem 3.4).
  double DataVariance(const Vector& x) const;
  /// Corollary 5.4: samples to reach normalized variance alpha (worst case).
  double SampleComplexity(double alpha) const;
  /// Section 6.4: sample complexity with the worst case replaced by the
  /// data-dependent variance of the normalized histogram x / sum(x).
  double SampleComplexityOnData(const Vector& x, double alpha) const;
};

/// The two halves of a runnable deployment for one (mechanism, workload)
/// pair: what runs on each device and how the server decodes the aggregate,
/// plus the error profile of that deployment on the workload (computed from
/// the same analysis, so Deploy() callers never re-derive it). Both halves
/// are immutable and shared: every client, server and session of a plan
/// points at the same reporter and decoder.
struct Deployment {
  std::shared_ptr<const Reporter> reporter;
  std::shared_ptr<const ReportDecoder> decoder;
  ErrorProfile profile;
};

class Mechanism {
 public:
  virtual ~Mechanism() = default;

  /// Display name as used in the paper's figures.
  virtual std::string Name() const = 0;

  /// Domain size this instance was built for.
  virtual int domain_size() const = 0;

  /// Privacy budget this instance was built for.
  virtual double epsilon() const = 0;

  /// Error analysis against a workload (consumes no privacy budget).
  /// Aborts when the mechanism cannot represent the workload — callers that
  /// can hit that at runtime (cross-evaluation, AutoSelect) use TryAnalyze.
  virtual ErrorProfile Analyze(const WorkloadStats& workload) const = 0;

  /// Analyze with failures reported as Status instead of aborting:
  /// kFailedPrecondition when the mechanism cannot produce unbiased answers
  /// for this workload (W outside the strategy's row space).
  virtual StatusOr<ErrorProfile> TryAnalyze(const WorkloadStats& workload) const;

  /// Client/server halves for actually running this mechanism on `workload`.
  /// Base implementation: analysis-only mechanism, kFailedPrecondition.
  virtual StatusOr<Deployment> Deploy(const WorkloadStats& workload) const;
};

/// A mechanism fully described by a strategy matrix Q (Proposition 2.6).
/// Reconstruction uses the closed-form optimal V of Theorem 3.10.
class StrategyMechanism : public Mechanism {
 public:
  StrategyMechanism(Matrix q, int n, double eps);

  int domain_size() const override { return n_; }
  double epsilon() const override { return eps_; }
  const Matrix& strategy() const { return q_; }

  ErrorProfile Analyze(const WorkloadStats& workload) const override;
  StatusOr<ErrorProfile> TryAnalyze(const WorkloadStats& workload) const override;

  /// Deployable on any workload in the strategy's row space: the client is
  /// an alias-table StrategyReporter, the server decodes through the
  /// Theorem 3.10 reconstruction.
  StatusOr<Deployment> Deploy(const WorkloadStats& workload) const override;

  /// Full factorization analysis (reconstruction matrix, residuals, ...).
  FactorizationAnalysis AnalyzeFactorization(const WorkloadStats& workload) const;

 private:
  Matrix q_;
  int n_;
  double eps_;
};

/// A StrategyMechanism around an externally supplied strategy — e.g. one
/// loaded from disk in the offline/online deployment split (strategy_io.h)
/// or handed to PlanBuilder::Strategy().
class FixedStrategyMechanism final : public StrategyMechanism {
 public:
  FixedStrategyMechanism(Matrix q, int n, double eps,
                         std::string name = "Strategy")
      : StrategyMechanism(std::move(q), n, eps), name_(std::move(name)) {}

  std::string Name() const override { return name_; }

 private:
  std::string name_;
};

}  // namespace wfm

#endif  // WFM_MECHANISMS_MECHANISM_H_
