#include "linalg/samplers.h"

#include <cmath>
#include <numeric>

#include "common/check.h"

namespace wfm {
namespace {

/// Stirling tail: log(k!) - [ log(sqrt(2 pi)) + (k+1/2) log(k+1) - (k+1) ].
/// Table for k <= 9, asymptotic series beyond (as in the TensorFlow/JAX
/// binomial samplers, following Hormann 1993).
double StirlingApproxTail(double k) {
  static const double kTable[] = {
      0.0810614667953272,  0.0413406959554092,  0.0276779256849983,
      0.02079067210376509, 0.0166446911898211,  0.0138761288230707,
      0.0118967099458917,  0.0104112652619720,  0.00925546218271273,
      0.00833056343336287};
  if (k <= 9.0) return kTable[static_cast<int>(k)];
  const double kp1sq = (k + 1.0) * (k + 1.0);
  return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / 1260.0 / kp1sq) / kp1sq) / (k + 1.0);
}

/// Inversion sampler; efficient when n*p is small (expected n*p iterations).
std::int64_t BinomialInversion(Rng& rng, std::int64_t n, double p) {
  const double q = -std::log1p(-p);  // -log(1-p) > 0.
  // Sum exponential spacings: count arrivals of a Poisson-like process.
  // Equivalent to the standard geometric-jumps inversion and numerically
  // stable for tiny p.
  std::int64_t num_geom = 0;
  double geom_sum = 0.0;
  while (true) {
    const double g = rng.Exponential(1.0) / (static_cast<double>(n) - num_geom);
    geom_sum += g;
    if (geom_sum > q) break;
    ++num_geom;
    if (num_geom == n) break;
  }
  return num_geom;
}

/// Hormann's BTRS rejection sampler. Requires n*p >= 10 and p <= 0.5.
std::int64_t BinomialBtrs(Rng& rng, std::int64_t n, double p) {
  const double nd = static_cast<double>(n);
  const double stddev = std::sqrt(nd * p * (1.0 - p));
  const double b = 1.15 + 2.53 * stddev;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nd * p + 0.5;
  const double v_r = 0.92 - 4.2 / b;
  const double r = p / (1.0 - p);
  const double alpha = (2.83 + 5.1 / b) * stddev;
  const double m = std::floor((nd + 1.0) * p);

  while (true) {
    const double u = rng.NextDouble() - 0.5;
    double v = rng.NextDouble();
    const double us = 0.5 - std::abs(u);
    const double kd = std::floor((2.0 * a / us + b) * u + c);
    if (kd < 0.0 || kd > nd) continue;
    if (us >= 0.07 && v <= v_r) return static_cast<std::int64_t>(kd);

    v = std::log(v * alpha / (a / (us * us) + b));
    const double upper =
        (m + 0.5) * std::log((m + 1.0) / (r * (nd - m + 1.0))) +
        (nd + 1.0) * std::log((nd - m + 1.0) / (nd - kd + 1.0)) +
        (kd + 0.5) * std::log(r * (nd - kd + 1.0) / (kd + 1.0)) +
        StirlingApproxTail(m) + StirlingApproxTail(nd - m) -
        StirlingApproxTail(kd) - StirlingApproxTail(nd - kd);
    if (v <= upper) return static_cast<std::int64_t>(kd);
  }
}

std::uint64_t PositiveSize(int n) {
  WFM_CHECK_GT(n, 0);
  return static_cast<std::uint64_t>(n);
}

}  // namespace

Divisor::Divisor(std::uint64_t d) : d_(d) {
  WFM_CHECK_GT(d, 0u);
  reciprocal_ = UINT64_MAX / d_;
}

// The only divisions: once per table, never per draw.
UniformIndex::UniformIndex(int n)
    : n_(PositiveSize(n)), limit_(UINT64_MAX - UINT64_MAX % n_.divisor()) {}

AliasSampler::AliasSampler(const std::vector<double>& weights)
    : index_(static_cast<int>(weights.size())) {
  const int n = static_cast<int>(weights.size());
  double total = 0.0;
  for (double w : weights) {
    WFM_CHECK_GE(w, 0.0) << "alias weights must be non-negative";
    total += w;
  }
  WFM_CHECK_GT(total, 0.0) << "alias weights must not all be zero";

  prob_.assign(n, 0.0);
  // An entry that is never paired keeps probability 1 and points at itself,
  // so both sides of Sample's select name it.
  alias_.resize(n);
  std::iota(alias_.begin(), alias_.end(), 0);
  std::vector<double> scaled(n);
  for (int i = 0; i < n; ++i) scaled[i] = weights[i] * n / total;

  std::vector<int> small, large;
  small.reserve(n);
  large.reserve(n);
  for (int i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    const int s = small.back();
    small.pop_back();
    const int l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  // Leftovers are 1 up to round-off.
  for (int i : large) prob_[i] = 1.0;
  for (int i : small) prob_[i] = 1.0;
}

std::int64_t SampleBinomial(Rng& rng, std::int64_t n, double p) {
  WFM_CHECK_GE(n, 0);
  WFM_CHECK(p >= 0.0 && p <= 1.0) << "p =" << p;
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  if (p > 0.5) return n - SampleBinomial(rng, n, 1.0 - p);
  if (static_cast<double>(n) * p < 10.0) return BinomialInversion(rng, n, p);
  return BinomialBtrs(rng, n, p);
}

std::vector<std::int64_t> SampleMultinomial(Rng& rng, std::int64_t n,
                                            const std::vector<double>& probs) {
  const int k = static_cast<int>(probs.size());
  WFM_CHECK_GT(k, 0);
  double total = 0.0;
  for (double p : probs) {
    WFM_CHECK_GE(p, 0.0);
    total += p;
  }
  WFM_CHECK_GT(total, 0.0);

  std::vector<std::int64_t> counts(k, 0);
  std::int64_t remaining = n;
  double mass_left = total;
  for (int i = 0; i < k - 1 && remaining > 0; ++i) {
    if (probs[i] <= 0.0) continue;
    // Conditional probability of category i among the remaining mass.
    const double cond = std::min(1.0, probs[i] / mass_left);
    counts[i] = SampleBinomial(rng, remaining, cond);
    remaining -= counts[i];
    mass_left -= probs[i];
    if (mass_left <= 0.0) break;
  }
  counts[k - 1] += remaining;
  return counts;
}

}  // namespace wfm
