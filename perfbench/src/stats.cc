#include "stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace perfbench {
namespace {

constexpr double kLadder[] = {50.0, 90.0, 99.0, 99.9, 99.99, 99.999};

// ceil(p/100 * n) with the product rounded first, so that e.g. 99.9% of
// 1000 is exactly rank 999 despite binary floating point.
std::int64_t Rank(std::int64_t n, double p) {
  const double exact = p / 100.0 * static_cast<double>(n);
  const double rounded = std::round(exact);
  const double rank =
      std::abs(exact - rounded) < 1e-9 ? rounded : std::ceil(exact);
  return std::clamp<std::int64_t>(static_cast<std::int64_t>(rank), 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  WFM_CHECK(!samples.empty());
  WFM_CHECK(p > 0.0 && p <= 100.0);
  const std::int64_t rank = Rank(static_cast<std::int64_t>(samples.size()), p);
  auto nth = samples.begin() + (rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

std::int64_t SamplesBeyond(std::int64_t n, double p) { return n - Rank(n, p); }

Tail TailPercentile(const std::vector<double>& samples) {
  WFM_CHECK(!samples.empty());
  const auto n = static_cast<std::int64_t>(samples.size());
  Tail tail;
  for (const double p : kLadder) {
    if (SamplesBeyond(n, p) >= 10) tail.percentile = p;
  }
  tail.value = tail.percentile > 0.0
                   ? Percentile(samples, tail.percentile)
                   : *std::max_element(samples.begin(), samples.end());
  return tail;
}

}  // namespace perfbench
