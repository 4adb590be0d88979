// The benchmark's four workloads, each one deployment of the library driven
// through its public API: a plan is built (the offline half); on all but
// plan-prefix64, reports are then generated on the client side, ingested,
// sealed and decoded (the online half). Every output is checked.
//
//   plan-prefix64     Plan::Build of Prefix(64), "Optimized"; the build is
//                     the measured operation (core + linalg) and there is
//                     no online half.
//   wire-ingest       Prefix(16), "Optimized", ingested over loopback TCP by
//                     a one-report-per-frame and a 256-report-batch
//                     connection at once (wire + collect).
//   decode-prefix512  Prefix(512), "Hadamard", ingested in-process; each
//                     epoch serves an uncached WNNLS and an unbiased
//                     estimate (estimation).
//   structured-kron   Prefix(32)xHistogram(16)xPrefix(32), "Optimized":
//                     n = 16384 past the dense ceiling, so the factored
//                     optimizer, reporter and operator-form WNNLS run.
//
// An untraced run reports the end-to-end metrics. A traced run replays one
// fixed deployment cycle three times (to warm up, without and with spans),
// times each layer from outside around calls to that layer's public
// functions, and reports the per-layer metrics.
#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 1;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measurement window of an untraced run.
  double seconds = 10.0;
  bool trace = false;
  /// Smoke-test sizes: every code path at a fraction of a second.
  bool tiny = false;
};

struct RunResult {
  std::map<std::string, Metric> metrics;
  /// Operations attempted and failed: calls into the library, plus the
  /// output checks. A non-OK status, a failed check, a client retry or a
  /// timeout each count as one failure.
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// One message per failed check or non-OK status.
  std::vector<std::string> failures;
  /// Human-readable detail: tail percentiles, the self-time table.
  std::vector<std::string> notes;
  /// Traced runs: every span as JSON lines.
  std::string spans_jsonl;
};

/// Names accepted by RunOptions::workload.
std::vector<std::string> WorkloadNames();

/// Runs one workload; aborts on an unknown name.
RunResult RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
