// Deterministic pseudo-random number generation (xoshiro256++).
//
// All randomized components of the library (strategy initialization, LDP
// response simulation, synthetic datasets) draw from this generator so that
// every experiment is reproducible from a single seed. Streams can be forked
// to decorrelate components without coupling their consumption order.

#ifndef WFM_LINALG_RNG_H_
#define WFM_LINALG_RNG_H_

#include <cstdint>

namespace wfm {

class Rng {
 public:
  /// Seeds the state via SplitMix64, which guarantees a well-mixed nonzero
  /// state for any seed value (including 0).
  explicit Rng(std::uint64_t seed);

  /// Next raw 64-bit output (xoshiro256++, Blackman & Vigna). Defined here
  /// so per-report samplers inline it.
  std::uint64_t NextUint64() {
    const std::uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 random bits.
  double NextDouble() {
    return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [a, b).
  double Uniform(double a, double b);

  /// Uniform integer in [0, n); n > 0. Uses rejection to avoid modulo bias.
  int UniformInt(int n);

  /// Standard normal via the Marsaglia polar method (one value cached).
  double Normal();

  double Normal(double mean, double stddev) { return mean + stddev * Normal(); }

  /// Laplace(0, scale): density (1/2b) exp(-|x|/b).
  double Laplace(double scale);

  /// Exponential with the given rate (mean 1/rate).
  double Exponential(double rate);

  /// Bernoulli(p).
  bool Bernoulli(double p) { return NextDouble() < p; }

  /// Derives an independent generator (jump via reseeding from this stream).
  Rng Fork();

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace wfm

#endif  // WFM_LINALG_RNG_H_
