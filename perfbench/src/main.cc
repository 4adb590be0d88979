// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--spans-out <file>] [--git-sha <sha>]
//
// Prints the host fingerprint, one line per metric (value, unit, sample
// count), detail notes, and as the last line one JSON object:
//   {"correct": bool, "attempted": n, "failed": n,
//    "metrics": {"<name>": {"value": x, "unit": "u", "samples": n}, ...}}
// Exits 1 when an output check failed, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "host.h"
#include "pipeline.h"

namespace {

// Sizes the linalg thread pool to one thread before anything creates it.
// On a shared host, slow spells stretch the pool's fork-join barriers far
// more than single-threaded work, so the one build whose kernels are big
// enough to use the pool (decode-prefix512) varies much less from run to run
// without it. The host fingerprint records the value.
void PinThreadPool() { setenv("WFM_NUM_THREADS", "1", 1); }

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] [--spans-out <file>] "
               "[--git-sha <sha>]\n",
               why);
  return 2;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  PinThreadPool();
  perfbench::RunOptions options;
  std::string spans_out;
  std::string git_sha = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      options.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--spans-out") {
      spans_out = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!have_workload || !known) return Usage("unknown or missing --workload");
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");

  std::printf("host %s\n",
              perfbench::HostFingerprintJson(options.seed, git_sha).c_str());
  std::printf("workload %s seed %llu trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0);
  std::fflush(stdout);

  perfbench::RunResult result = perfbench::RunWorkload(options);

  for (const std::string& note : result.notes) std::printf("  %s\n", note.c_str());
  std::string metrics;
  for (const auto& [name, m] : result.metrics) {
    if (!std::isfinite(m.value)) {
      ++result.failed;
      result.failures.push_back("metric " + name + " is not finite");
      continue;
    }
    std::printf("  %-34s %-22.10g %-6s n=%lld\n", name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
    metrics += (metrics.empty() ? "" : ", ") + ("\"" + name + "\": {\"value\": ") +
               JsonNumber(m.value) + ", \"unit\": \"" + m.unit +
               "\", \"samples\": " + std::to_string(m.samples) + "}";
  }
  for (const std::string& failure : result.failures) {
    std::printf("  FAILED %s\n", failure.c_str());
  }
  if (!spans_out.empty() && options.trace) {
    std::ofstream out(spans_out);
    out << result.spans_jsonl;
    if (!out) std::fprintf(stderr, "perfbench: cannot write %s\n", spans_out.c_str());
  }
  const bool correct = result.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed), metrics.c_str());
  return correct ? 0 : 1;
}
