// Discrete distribution samplers used by the LDP runtime.
//
// * Divisor — exact r / d and r mod d for a fixed d > 0 without a hardware
//   divide: a 64-bit reciprocal of d is computed once, so each split is a
//   multiply-high plus one branch-free correction. UniformIndex reduces its
//   raw draws with it, and FactoredStrategyReporter splits a user type into
//   its mixed-radix digits with one Divisor per factor.
// * UniformIndex — uniform index in [0, n) without a division per draw:
//   the rejection limit and the Divisor of n are computed once. Consumes the
//   generator exactly like Rng::UniformInt(n), so every stream built on it
//   is bit-identical to one built on UniformInt.
// * AliasSampler — O(1), division-free, branch-free sampling from a fixed
//   categorical distribution (Vose's method); one table per strategy-matrix
//   column turns a user's randomized response into one UniformIndex draw,
//   one NextDouble() and a mask select between the entry and its alias
//   (12 bytes per entry: a double probability and an int alias). The only
//   conditional jump left in a draw is UniformIndex's rejection loop.
// * SampleBinomial — exact binomial sampling: inversion for small mean,
//   Hormann's BTRS transformed-rejection for large mean.
// * SampleMultinomial — chained conditional binomials; lets the simulator
//   draw the full response histogram of x_u users of one type at once
//   instead of looping over users.

#ifndef WFM_LINALG_SAMPLERS_H_
#define WFM_LINALG_SAMPLERS_H_

#include <cstdint>
#include <vector>

#include "linalg/rng.h"

namespace wfm {

class Divisor {
 public:
  struct QuotientRemainder {
    std::uint64_t quotient;
    std::uint64_t remainder;
  };

  /// Precomputes the reciprocal of d > 0 (the only division).
  explicit Divisor(std::uint64_t d);

  /// Exact {r / d, r % d} for every 64-bit r, with no division and no
  /// branch. reciprocal_ = floor((2^64 - 1) / d) underestimates the quotient
  /// by at most one, so the remainder before the correction lies in
  /// [0, 2d). (Lemire's UINT64_MAX / d + 1 is no substitute: it wraps to 0
  /// at d = 1, the last place value of every mixed-radix split.)
  QuotientRemainder Divide(std::uint64_t r) const {
    const std::uint64_t quotient = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(r) * reciprocal_) >> 64);
    const std::uint64_t remainder = r - quotient * d_;
    const std::uint64_t carry = remainder >= d_;  // 0 or 1.
    return {quotient + carry, remainder - (d_ & (0 - carry))};
  }

  std::uint64_t divisor() const { return d_; }

 private:
  std::uint64_t d_;
  std::uint64_t reciprocal_;
};

class UniformIndex {
 public:
  /// Precomputes the draw for the range [0, n); n > 0.
  explicit UniformIndex(int n);

  /// Uniform index in [0, n): rejects raw outputs at or above limit() (no
  /// modulo bias), then reduces the accepted one with Mod(). Draws the same
  /// NextUint64() values and returns the same index as Rng::UniformInt(n).
  int Draw(Rng& rng) const {
    std::uint64_t r;
    do {
      r = rng.NextUint64();
    } while (r >= limit_);
    return static_cast<int>(Mod(r));
  }

  /// Exact r mod n with no division (Divisor::Divide's remainder).
  std::uint64_t Mod(std::uint64_t r) const { return n_.Divide(r).remainder; }

  /// Largest multiple of n not above 2^64 - 1: raw outputs at or above it
  /// are rejected, exactly as in Rng::UniformInt.
  std::uint64_t limit() const { return limit_; }
  int size() const { return static_cast<int>(n_.divisor()); }

 private:
  Divisor n_;
  std::uint64_t limit_;
};

class AliasSampler {
 public:
  /// Builds the alias table for the given non-negative weights (need not be
  /// normalized; their sum must be positive).
  explicit AliasSampler(const std::vector<double>& weights);

  /// Samples an index in [0, weights.size()) proportional to its weight.
  /// Consumes the generator exactly like UniformInt(size()) followed by
  /// NextDouble(), and returns what `NextDouble() < probability(i) ? i :
  /// alias(i)` would. The choice is a mask select, not a branch: which side
  /// wins is a coin flip, so a branch would mispredict on about half of all
  /// draws.
  int Sample(Rng& rng) const {
    const int i = index_.Draw(rng);
    const int alias = alias_[i];
    const int keep = -static_cast<int>(rng.NextDouble() < prob_[i]);
    return alias ^ ((i ^ alias) & keep);
  }

  int size() const { return index_.size(); }
  /// Table entry i: Sample returns i when its NextDouble() falls below
  /// probability(i), alias(i) otherwise. An entry never paired with a
  /// smaller one has probability 1 and aliases itself.
  double probability(int i) const { return prob_[i]; }
  int alias(int i) const { return alias_[i]; }

 private:
  UniformIndex index_;
  std::vector<double> prob_;
  std::vector<int> alias_;
};

/// Draws from Binomial(n, p) exactly. n >= 0, p in [0, 1].
std::int64_t SampleBinomial(Rng& rng, std::int64_t n, double p);

/// Draws counts (c_1, ..., c_k) ~ Multinomial(n; probs). `probs` must be
/// non-negative and is normalized internally.
std::vector<std::int64_t> SampleMultinomial(Rng& rng, std::int64_t n,
                                            const std::vector<double>& probs);

}  // namespace wfm

#endif  // WFM_LINALG_SAMPLERS_H_
