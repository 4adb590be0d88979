// The server half of a deployed mechanism: reconstruct the data vector from
// the m-dimensional aggregate of all reports.
//
// Two decode families cover every deployable mechanism in this library:
//
//   * linear — the unbiased estimate is x_hat = B y, where y sums the
//     reports (response histogram for categorical mechanisms, coordinatewise
//     sum for additive ones) and B is the mechanism's n x m reconstruction
//     factor: Theorem 3.10's optimal B = (Qᵀ D_Q⁻¹ Q)† Qᵀ D_Q⁻¹ for strategy
//     mechanisms, the pseudo-inverse A† for the distributed Matrix
//     Mechanism;
//   * affine — unary-encoding frequency oracles (RAPPOR, OUE) report n-bit
//     vectors whose per-coordinate debiasing needs the report count N:
//     x_hat = (y - N q 1) / (p - q), with p = P(bit = 1 | true bit = 1) and
//     q = P(bit = 1 | true bit = 0). The map is affine in y, not linear, so
//     the decoder carries (p, q) and callers supply N at decode time
//     (EpochSnapshot::count).
//
// The WNNLS consistent estimate (Appendix A) additionally needs only the
// workload Gram matrix, so (decode factor, WorkloadStats) is the complete
// server-side description of any deployment and is what
// collect/CollectionSession carries.

#ifndef WFM_ESTIMATION_DECODER_H_
#define WFM_ESTIMATION_DECODER_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/factorization.h"
#include "linalg/matrix.h"

namespace wfm {

/// Parameters of the affine debias x_hat = (y - N q 1)/(p - q) used by
/// unary-encoding frequency oracles. `p` is the probability a true bit is
/// reported as 1, `q` the probability a false bit is; unbiased decoding
/// requires p > q.
struct AffineDebias {
  double p = 1.0;  ///< P(reported bit = 1 | true bit = 1).
  double q = 0.0;  ///< P(reported bit = 1 | true bit = 0).
};

class ReportDecoder {
 public:
  /// Linear decoder: `b` is the n x m decode factor; `stats` supplies the
  /// Gram matrix for consistent (WNNLS) estimation on the same workload.
  ReportDecoder(Matrix b, WorkloadStats stats);

  /// Affine decoder (m = n = stats.n): debiases n-bit-vector aggregates as
  /// x_hat = (y - N q 1)/(p - q). Decoding requires the report count N, so
  /// callers must pass the true N to EstimateDataVector.
  ReportDecoder(AffineDebias debias, WorkloadStats stats);

  /// Factored (Kronecker) decoder: per-factor reconstruction factors B_i
  /// (n_i x m_i, factor order matching stats.factors), decoding
  /// x̂ = (⊗ B_i) y mode-wise — no composed n x m matrix exists. `stats`
  /// must be factored; m is Π m_i.
  ReportDecoder(std::vector<Matrix> b_factors, WorkloadStats stats);

  // Copies and moves carry the cached Lipschitz constant along (the atomic
  // member deletes the defaults).
  ReportDecoder(const ReportDecoder& other);
  ReportDecoder& operator=(const ReportDecoder& other);
  ReportDecoder(ReportDecoder&& other) noexcept;
  ReportDecoder& operator=(ReportDecoder&& other) noexcept;

  /// Decoder of a strategy factorization: B = analysis.ReconstructionB().
  /// Bit-identical to estimating through the analysis directly. Takes the
  /// analysis by value and moves B and the workload stats out of it, so a
  /// caller that passes an rvalue hands B over without a copy.
  static ReportDecoder FromAnalysis(FactorizationAnalysis analysis);

  int n() const { return stats_.n; }
  int m() const { return m_; }
  /// Linear decode factor; empty for affine and factored decoders.
  const Matrix& b() const { return b_; }
  /// True when the decode factor is held in Kronecker form.
  bool factored() const { return factored_mode_; }
  /// Per-factor decode factors; empty unless factored().
  const std::vector<Matrix>& b_factors() const { return b_factors_; }
  const WorkloadStats& workload_stats() const { return stats_; }

  /// True when this decoder debiases affinely and therefore needs the report
  /// count N alongside the aggregate.
  bool needs_report_count() const { return affine_mode_; }
  /// The affine parameters; call only when needs_report_count() is true.
  const AffineDebias& affine_debias() const;

  /// Unbiased estimate of the data vector from the aggregate: B y for linear
  /// decoders, (y - N q 1)/(p - q) for affine ones. `num_reports` is the
  /// report count N behind the aggregate; linear decoders ignore it, affine
  /// decoders require the true count (deliberately no default — an affine
  /// decode without its N would compile and silently return estimates
  /// shifted by N q/(p - q)). Aborts on dimension mismatch — use
  /// TryEstimateDataVector where the aggregate arrives from an untrusted
  /// source.
  Vector EstimateDataVector(const Vector& aggregate,
                            std::int64_t num_reports) const;

  /// EstimateDataVector with runtime-reachable failures as Status:
  /// kInvalidArgument when the aggregate's dimension does not match the
  /// decoder's m (a corrupt or mismatched report stream) or the report count
  /// is negative.
  StatusOr<Vector> TryEstimateDataVector(const Vector& aggregate,
                                         std::int64_t num_reports) const;

  /// 2·λ_max(G): the Lipschitz constant of the WNNLS gradient for this
  /// deployment's workload. Computed by power iteration on first use and
  /// cached, so repeated consistent decodes (one per served estimate) pay
  /// for it once — once per plan, since every session of a plan shares its
  /// decoder. For factored decoders λ_max(⊗ G_i) = Π λ_max(G_i), so the
  /// power iteration runs per factor. Thread-safe; a racing first call
  /// recomputes the same value.
  double GramLipschitz() const;

 private:
  Matrix b_;  ///< Empty in affine and factored modes.
  std::vector<Matrix> b_factors_;  ///< Non-empty only in factored mode.
  WorkloadStats stats_;
  int m_ = 0;
  bool affine_mode_ = false;
  bool factored_mode_ = false;
  AffineDebias affine_;
  /// Negative means "not computed yet".
  mutable std::atomic<double> gram_lipschitz_{-1.0};
};

}  // namespace wfm

#endif  // WFM_ESTIMATION_DECODER_H_
