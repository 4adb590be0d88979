// Discrete distribution samplers used by the LDP runtime.
//
// * UniformIndex — uniform index in [0, n) without a division per draw:
//   the rejection limit and a 64-bit reciprocal of n are computed once, so
//   r mod n is a multiply-high plus at most one correction. Consumes the
//   generator exactly like Rng::UniformInt(n), so every stream built on it
//   is bit-identical to one built on UniformInt.
// * AliasSampler — O(1), division-free sampling from a fixed categorical
//   distribution (Vose's method); one table per strategy-matrix column turns
//   a user's randomized response into one UniformIndex draw, one
//   NextDouble() and one table lookup (12 bytes per entry: a double
//   probability and an int alias).
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

  /// Exact r mod n with no division. reciprocal_ = floor((2^64 - 1) / n)
  /// underestimates the quotient by at most one, so the remainder before the
  /// correction lies in [0, 2n).
  std::uint64_t Mod(std::uint64_t r) const {
    const std::uint64_t quotient = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(r) * reciprocal_) >> 64);
    std::uint64_t rem = r - quotient * n_;
    if (rem >= n_) rem -= n_;
    return rem;
  }

  /// Largest multiple of n not above 2^64 - 1: raw outputs at or above it
  /// are rejected, exactly as in Rng::UniformInt.
  std::uint64_t limit() const { return limit_; }
  int size() const { return static_cast<int>(n_); }

 private:
  std::uint64_t n_;
  std::uint64_t limit_;
  std::uint64_t reciprocal_;
};

class AliasSampler {
 public:
  /// Builds the alias table for the given non-negative weights (need not be
  /// normalized; their sum must be positive).
  explicit AliasSampler(const std::vector<double>& weights);

  /// Samples an index in [0, weights.size()) proportional to its weight.
  /// Consumes the generator exactly like UniformInt(size()) followed by
  /// NextDouble().
  int Sample(Rng& rng) const {
    const int i = index_.Draw(rng);
    return rng.NextDouble() < prob_[i] ? i : alias_[i];
  }

  int size() const { return index_.size(); }
  /// Table entry i: Sample returns i when its NextDouble() falls below
  /// probability(i), alias(i) otherwise.
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
