#include "ldp/reporter.h"

#include <limits>

#include "linalg/kron.h"

namespace wfm {

StrategyReporter::StrategyReporter(const Matrix& q) : num_outputs_(q.rows()) {
  samplers_.reserve(q.cols());
  for (int u = 0; u < q.cols(); ++u) samplers_.emplace_back(q.Col(u));
}

Report StrategyReporter::Respond(int user_type, Rng& rng) const {
  Report report;
  report.index = RespondIndex(user_type, rng);
  return report;
}

FactoredStrategyReporter::FactoredStrategyReporter(
    const std::vector<Matrix>& factors) {
  WFM_CHECK(!factors.empty()) << "factored reporter needs at least one factor";
  std::int64_t n = 1;
  std::int64_t m = 1;
  factors_.reserve(factors.size());
  for (const Matrix& q : factors) {
    factors_.emplace_back(q);
    n = CheckedMulNonNegative(n, q.cols());
    m = CheckedMulNonNegative(m, q.rows());
  }
  WFM_CHECK_LE(n, std::numeric_limits<int>::max());
  WFM_CHECK_LE(m, std::numeric_limits<int>::max())
      << "composed output alphabet exceeds int";
  n_ = static_cast<int>(n);
  m_ = static_cast<int>(m);
  // type_strides_[i] = Π_{j > i} n_j, the place value of factor i's digit.
  std::vector<std::uint64_t> strides(factors.size(), 1);
  for (std::size_t i = factors.size() - 1; i > 0; --i) {
    strides[i - 1] = strides[i] * factors[i].cols();
  }
  type_strides_.reserve(strides.size());
  for (const std::uint64_t stride : strides) type_strides_.emplace_back(stride);
}

Report FactoredStrategyReporter::Respond(int user_type, Rng& rng) const {
  WFM_CHECK(user_type >= 0 && user_type < n_)
      << "user type out of range:" << user_type << "for n =" << n_;
  // Mixed-radix decompose (factor 0 most significant) from the most
  // significant digit down, sampling each factor as its digit appears: the
  // RNG is consumed in factor index order and nothing is allocated or
  // divided. The output index is the same flattening of the factor outputs.
  std::uint64_t rest = static_cast<std::uint64_t>(user_type);
  int out = 0;
  for (std::size_t i = 0; i < factors_.size(); ++i) {
    const Divisor::QuotientRemainder digit = type_strides_[i].Divide(rest);
    rest = digit.remainder;
    out = out * factors_[i].num_outputs() +
          factors_[i].RespondIndex(static_cast<int>(digit.quotient), rng);
  }
  Report report;
  report.index = out;
  return report;
}

BitVectorReporter::BitVectorReporter(int n, double prob_one_given_one,
                                     double prob_one_given_zero)
    : n_(n), p_(prob_one_given_one), q_(prob_one_given_zero) {
  WFM_CHECK_GT(n, 0);
  WFM_CHECK(q_ >= 0.0 && q_ < p_ && p_ <= 1.0)
      << "bit-vector reporter requires 0 <= q < p <= 1, got p =" << p_
      << "q =" << q_;
}

Report BitVectorReporter::Respond(int user_type, Rng& rng) const {
  WFM_CHECK(user_type >= 0 && user_type < n_)
      << "user type out of range:" << user_type << "for n =" << n_;
  Report report;
  report.bits.resize(n_);
  for (int i = 0; i < n_; ++i) {
    report.bits[i] =
        static_cast<std::uint8_t>(rng.Bernoulli(i == user_type ? p_ : q_));
  }
  return report;
}

}  // namespace wfm
