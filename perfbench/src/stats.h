// Order statistics for benchmark samples.
//
// Percentiles use the nearest-rank rule on the sorted samples: the p-th
// percentile of N samples is the ceil(p/100 * N)-th smallest, so exactly
// N - ceil(p/100 * N) samples lie beyond it. A tail percentile is only
// reported when at least ten samples lie beyond it; TailPercentile picks the
// highest such percentile from a fixed ladder.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile, p in (0, 100]. Requires non-empty samples.
double Percentile(std::vector<double> samples, double p);

/// Percentile(samples, 50).
double Median(std::vector<double> samples);

/// Number of samples beyond the nearest-rank p-th percentile of n samples.
std::int64_t SamplesBeyond(std::int64_t n, double p);

struct Tail {
  double percentile = 0.0;  ///< 0 when no ladder entry has ten beyond it.
  double value = 0.0;
};

/// The highest percentile of {50, 90, 99, 99.9, 99.99, 99.999} with at least
/// ten samples beyond it, and its value. Fewer than 20 samples support none
/// of them; the result then has percentile 0 and the sample maximum.
Tail TailPercentile(const std::vector<double>& samples);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
