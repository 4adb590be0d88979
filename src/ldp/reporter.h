// The client half of a deployed mechanism: turn one user's true type into
// one privatized report.
//
// Three report shapes cover every mechanism in this library:
//   * categorical — strategy-matrix mechanisms (Definition 2.5) emit an
//     output index o in [0, m); the server-side aggregate is the response
//     histogram y with y_o = #{reports == o};
//   * dense — additive-noise mechanisms (the distributed Matrix Mechanism)
//     emit a real m-vector A e_u + xi; the aggregate is the coordinatewise
//     sum;
//   * bit vector — unary-encoding frequency oracles (RAPPOR, OUE) emit n
//     independently randomized bits of the one-hot encoding e_u; the
//     aggregate is the per-coordinate count of set bits.
// All three are the same operation once a categorical report is read as the
// one-hot vector e_o and a bit vector as a 0/1 m-vector: the server only
// ever needs the sum of reports, which is why one Reporter interface (and
// one collect/ pipeline) serves them all. The decode differs: categorical
// and dense aggregates reconstruct linearly (x_hat = B y), bit-vector
// aggregates affinely against the report count N (x_hat = (y - N q)/(p - q),
// estimation/decoder.h).

#ifndef WFM_LDP_REPORTER_H_
#define WFM_LDP_REPORTER_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "linalg/matrix.h"
#include "linalg/rng.h"
#include "linalg/samplers.h"

namespace wfm {

/// One user's privatized report — the only data that leaves the device.
/// Exactly one shape is populated: `bits` for unary-encoding mechanisms,
/// `dense` for additive ones, `index` otherwise.
struct Report {
  /// Categorical response index in [0, m); meaningful iff the other shapes
  /// are empty.
  int index = -1;
  /// Dense m-vector report; non-empty iff the mechanism is additive.
  Vector dense;
  /// n-bit unary-encoding report; non-empty iff the mechanism is a
  /// frequency oracle (RAPPOR/OUE).
  std::vector<std::uint8_t> bits;

  bool is_dense() const { return !dense.empty(); }
  bool is_bits() const { return !bits.empty(); }

  friend bool operator==(const Report&, const Report&) = default;
};

/// Interface for the on-device half of a deployment (see Mechanism::Deploy).
class Reporter {
 public:
  virtual ~Reporter() = default;

  /// Report dimension m: the response alphabet size for categorical
  /// reporters, the report vector length for dense and bit-vector ones.
  virtual int num_outputs() const = 0;

  /// Domain size n this reporter was built for.
  virtual int num_types() const = 0;

  /// True when Respond emits dense vectors instead of indices.
  virtual bool dense_reports() const = 0;

  /// True when Respond emits n-bit vectors (unary-encoding mechanisms).
  virtual bool bit_vector_reports() const { return false; }

  /// Privatizes one user's true type.
  virtual Report Respond(int user_type, Rng& rng) const = 0;
};

/// Categorical reporter over a column-stochastic strategy matrix: the client
/// side of a strategy-matrix mechanism (Definition 2.5). Each column of Q is
/// compiled into an alias table once, so responding is O(1) per user.
class StrategyReporter final : public Reporter {
 public:
  /// `q` must be column-stochastic (columns are response distributions).
  explicit StrategyReporter(const Matrix& q);

  int num_outputs() const override { return num_outputs_; }
  int num_types() const override { return static_cast<int>(samplers_.size()); }
  bool dense_reports() const override { return false; }
  Report Respond(int user_type, Rng& rng) const override;

  /// The randomized response o = M_Q(u) alone, an index in
  /// [0, num_outputs()); Respond() wraps exactly this draw (same RNG
  /// consumption) in a Report.
  int RespondIndex(int user_type, Rng& rng) const {
    WFM_CHECK(user_type >= 0 && user_type < num_types());
    return samplers_[user_type].Sample(rng);
  }

 private:
  std::vector<AliasSampler> samplers_;  // One per user type (column).
  int num_outputs_;
};

/// Categorical reporter for a Kronecker-factored strategy Q = ⊗ Q_i: the
/// columns of ⊗ Q_i are the ⊗ of factor columns, so sampling the composed
/// channel is sampling each factor independently. The user type decomposes
/// mixed-radix into per-factor types (factor 0 most significant, matching
/// linalg/kron.h) and the output index is the same flattening of the factor
/// outputs — a composed report costs k small alias-table draws, never
/// touching the Π m_i x Π n_i product. Each digit comes from a Divisor of
/// its place value, built at construction, so Respond neither divides nor
/// allocates.
class FactoredStrategyReporter final : public Reporter {
 public:
  /// `factors` are the per-factor strategies Q_i; the composed output
  /// alphabet Π m_i must fit an int.
  explicit FactoredStrategyReporter(const std::vector<Matrix>& factors);

  int num_outputs() const override { return m_; }
  int num_types() const override { return n_; }
  bool dense_reports() const override { return false; }
  Report Respond(int user_type, Rng& rng) const override;

  int num_factors() const { return static_cast<int>(factors_.size()); }

 private:
  std::vector<StrategyReporter> factors_;
  std::vector<Divisor> type_strides_;  ///< Place value of each factor's type.
  int n_ = 1;
  int m_ = 1;
};

/// Client half of unary-encoding frequency oracles (RAPPOR, OUE): one-hot
/// encode the type into n bits, then report each bit independently as 1 with
/// probability p if the true bit is 1 and q if it is 0 (one Bernoulli draw
/// per bit, in coordinate order). The matching server half is
/// ReportDecoder's AffineDebias{p, q} mode.
class BitVectorReporter final : public Reporter {
 public:
  /// `prob_one_given_one` is p, `prob_one_given_zero` is q; unbiased
  /// decoding requires p > q (RAPPOR: p = 1 - f, q = f; OUE: p = 1/2,
  /// q = 1/(e^eps + 1)).
  BitVectorReporter(int n, double prob_one_given_one,
                    double prob_one_given_zero);

  int num_outputs() const override { return n_; }  // m == n for bit vectors.
  int num_types() const override { return n_; }
  bool dense_reports() const override { return false; }
  bool bit_vector_reports() const override { return true; }
  Report Respond(int user_type, Rng& rng) const override;

  double prob_one_given_one() const { return p_; }
  double prob_one_given_zero() const { return q_; }

 private:
  int n_;
  double p_;
  double q_;
};

}  // namespace wfm

#endif  // WFM_LDP_REPORTER_H_
