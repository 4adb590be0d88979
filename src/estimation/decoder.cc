#include "estimation/decoder.h"

#include <limits>
#include <string>
#include <utility>

#include "linalg/kron.h"
#include "linalg/symmetric_eigen.h"

namespace wfm {

ReportDecoder::ReportDecoder(Matrix b, WorkloadStats stats)
    : b_(std::move(b)), stats_(std::move(stats)), m_(b_.cols()) {
  WFM_CHECK_GT(b_.rows(), 0);
  WFM_CHECK_GT(b_.cols(), 0);
  WFM_CHECK_EQ(b_.rows(), stats_.n);
}

ReportDecoder::ReportDecoder(AffineDebias debias, WorkloadStats stats)
    : stats_(std::move(stats)),
      m_(stats_.n),
      affine_mode_(true),
      affine_(debias) {
  WFM_CHECK_GT(stats_.n, 0);
  // Unbiased debiasing needs p > q (the map is not invertible at p == q) and
  // both must be probabilities.
  WFM_CHECK(affine_.q >= 0.0 && affine_.q < affine_.p && affine_.p <= 1.0)
      << "affine debias requires 0 <= q < p <= 1, got p =" << affine_.p
      << "q =" << affine_.q;
}

ReportDecoder::ReportDecoder(std::vector<Matrix> b_factors, WorkloadStats stats)
    : b_factors_(std::move(b_factors)),
      stats_(std::move(stats)),
      factored_mode_(true) {
  WFM_CHECK(stats_.factored())
      << "factored decoder needs Kronecker-structured workload stats";
  WFM_CHECK_EQ(b_factors_.size(), stats_.factors.size())
      << "decode factor count mismatch";
  std::int64_t m = 1;
  std::int64_t n = 1;
  for (std::size_t i = 0; i < b_factors_.size(); ++i) {
    WFM_CHECK_EQ(b_factors_[i].rows(), stats_.factors[i].n)
        << "decode factor" << i << "domain mismatch";
    WFM_CHECK_GT(b_factors_[i].cols(), 0);
    m = CheckedMulNonNegative(m, b_factors_[i].cols());
    n = CheckedMulNonNegative(n, b_factors_[i].rows());
  }
  WFM_CHECK_EQ(n, stats_.n);
  WFM_CHECK_LE(m, std::numeric_limits<int>::max())
      << "composed output alphabet exceeds int";
  m_ = static_cast<int>(m);
}

ReportDecoder::ReportDecoder(const ReportDecoder& other)
    : b_(other.b_),
      b_factors_(other.b_factors_),
      stats_(other.stats_),
      m_(other.m_),
      affine_mode_(other.affine_mode_),
      factored_mode_(other.factored_mode_),
      affine_(other.affine_),
      gram_lipschitz_(other.gram_lipschitz_.load(std::memory_order_relaxed)) {}

ReportDecoder& ReportDecoder::operator=(const ReportDecoder& other) {
  b_ = other.b_;
  b_factors_ = other.b_factors_;
  stats_ = other.stats_;
  m_ = other.m_;
  affine_mode_ = other.affine_mode_;
  factored_mode_ = other.factored_mode_;
  affine_ = other.affine_;
  gram_lipschitz_.store(other.gram_lipschitz_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  return *this;
}

ReportDecoder::ReportDecoder(ReportDecoder&& other) noexcept
    : b_(std::move(other.b_)),
      b_factors_(std::move(other.b_factors_)),
      stats_(std::move(other.stats_)),
      m_(other.m_),
      affine_mode_(other.affine_mode_),
      factored_mode_(other.factored_mode_),
      affine_(other.affine_),
      gram_lipschitz_(other.gram_lipschitz_.load(std::memory_order_relaxed)) {}

ReportDecoder& ReportDecoder::operator=(ReportDecoder&& other) noexcept {
  b_ = std::move(other.b_);
  b_factors_ = std::move(other.b_factors_);
  stats_ = std::move(other.stats_);
  m_ = other.m_;
  affine_mode_ = other.affine_mode_;
  factored_mode_ = other.factored_mode_;
  affine_ = other.affine_;
  gram_lipschitz_.store(other.gram_lipschitz_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  return *this;
}

const AffineDebias& ReportDecoder::affine_debias() const {
  WFM_CHECK(affine_mode_) << "affine_debias() on a linear decoder";
  return affine_;
}

double ReportDecoder::GramLipschitz() const {
  double cached = gram_lipschitz_.load(std::memory_order_acquire);
  if (cached >= 0.0) return cached;
  if (factored_mode_) {
    // λ_max(⊗ G_i) = Π λ_max(G_i): eigenvalues of a Kronecker product are
    // the products of factor eigenvalues.
    double lambda = 1.0;
    for (const WorkloadStats& f : stats_.factors) {
      lambda *= PowerIterationLargestEigenvalue(f.gram);
    }
    cached = 2.0 * lambda;
  } else {
    cached = 2.0 * PowerIterationLargestEigenvalue(stats_.gram);
  }
  gram_lipschitz_.store(cached, std::memory_order_release);
  return cached;
}

ReportDecoder ReportDecoder::FromAnalysis(FactorizationAnalysis analysis) {
  return ReportDecoder(std::move(analysis.b_), std::move(analysis.workload_));
}

Vector ReportDecoder::EstimateDataVector(const Vector& aggregate,
                                         std::int64_t num_reports) const {
  StatusOr<Vector> estimate = TryEstimateDataVector(aggregate, num_reports);
  WFM_CHECK(estimate.ok()) << estimate.status().ToString();
  return std::move(estimate).value();
}

StatusOr<Vector> ReportDecoder::TryEstimateDataVector(
    const Vector& aggregate, std::int64_t num_reports) const {
  if (static_cast<int>(aggregate.size()) != m_) {
    return Status::InvalidArgument(
        "aggregate has dimension " + std::to_string(aggregate.size()) +
        ", decoder expects m = " + std::to_string(m_));
  }
  if (factored_mode_) {
    std::vector<const Matrix*> factors;
    factors.reserve(b_factors_.size());
    for (const Matrix& b : b_factors_) factors.push_back(&b);
    return KroneckerMatVec(factors, aggregate);
  }
  if (!affine_mode_) return MultiplyVec(b_, aggregate);
  if (num_reports < 0) {
    return Status::InvalidArgument("report count must be non-negative, got " +
                                   std::to_string(num_reports));
  }
  const double shift = static_cast<double>(num_reports) * affine_.q;
  const double inv_gap = 1.0 / (affine_.p - affine_.q);
  Vector estimate(m_);
  for (int u = 0; u < m_; ++u) {
    estimate[u] = (aggregate[u] - shift) * inv_gap;
  }
  return estimate;
}

}  // namespace wfm
