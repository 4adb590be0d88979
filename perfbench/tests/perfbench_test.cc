// The benchmark's own tests: percentile selection, span self-time
// arithmetic on synthetic nested spans, and a tiny-size run of every
// workload in both modes. Exits non-zero on the first failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "pipeline.h"
#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // Unsorted on purpose.
  return v;
}

void TestPercentiles() {
  Expect(perfbench::Median(OneTo(5)) == 3.0, "median of 1..5 is 3");
  Expect(perfbench::Median(OneTo(4)) == 2.0, "nearest-rank median of 1..4 is 2");
  Expect(perfbench::Percentile(OneTo(100), 99) == 99.0, "p99 of 1..100 is 99");
  Expect(perfbench::Percentile(OneTo(1000), 99.9) == 999.0, "p99.9 of 1..1000");
  Expect(perfbench::Percentile(OneTo(7), 100) == 7.0, "p100 is the maximum");
  Expect(perfbench::SamplesBeyond(1000, 99) == 10, "10 samples beyond p99 of 1000");
  Expect(perfbench::SamplesBeyond(1000, 99.9) == 1, "1 sample beyond p99.9 of 1000");

  // The tail is the highest ladder percentile with at least ten samples
  // beyond it.
  perfbench::Tail t = perfbench::TailPercentile(OneTo(1000));
  Expect(t.percentile == 99.0 && t.value == 990.0, "1000 samples: p99 = 990");
  t = perfbench::TailPercentile(OneTo(999));
  Expect(t.percentile == 90.0 && t.value == 900.0, "999 samples: only p90");
  t = perfbench::TailPercentile(OneTo(100000));
  Expect(t.percentile == 99.99 && t.value == 99990.0, "1e5 samples: p99.99");
  t = perfbench::TailPercentile(OneTo(20));
  Expect(t.percentile == 50.0 && t.value == 10.0, "20 samples: p50");
  t = perfbench::TailPercentile(OneTo(19));
  Expect(t.percentile == 0.0 && t.value == 19.0, "19 samples: none, maximum");
}

void TestSelfTimes() {
  // Wall [0, 100]. Request 1: core.a [10, 60] containing linalg.b [20, 30]
  // and linalg.c [40, 55] which contains estimation.d [45, 50]. Request 2:
  // wire.e [70, 90]. Spans [95, 120] and [-10, 5] straddle the wall edges.
  std::vector<perfbench::Span> spans = {
      {"core.a", 10, 60, -1, 1},      {"linalg.b", 20, 30, 0, 1},
      {"linalg.c", 40, 55, 0, 1},     {"estimation.d", 45, 50, 2, 1},
      {"wire.e", 70, 90, -1, 2},      {"collect.f", 95, 120, -1, 3},
      {"collect.g", -10, 5, -1, 0},
  };
  const perfbench::SelfTimes s = perfbench::ComputeSelfTimes(spans, 0, 100);
  Expect(s.wall_ns == 100, "wall is the interval length");
  Expect(s.layer_ns.at("core") == 50 - 10 - 15, "core self = 50 - children 25");
  Expect(s.layer_ns.at("linalg") == 10 + (15 - 5), "linalg self = 10 + 10");
  Expect(s.layer_ns.at("estimation") == 5, "leaf self is its duration");
  Expect(s.layer_ns.at("wire") == 20, "second request root");
  Expect(s.layer_ns.at("collect") == 5 + 5, "spans clipped to the wall");
  Expect(s.unattributed_ns == 100 - 50 - 20 - 5 - 5, "gaps are unattributed");
  Expect(s.TotalNs() == s.wall_ns, "self times plus unattributed tile the wall");

  // The recorder produces nested spans with parents and request ids.
  perfbench::Tracer tracer(true);
  tracer.NewRequest();
  {
    perfbench::ScopedSpan outer(&tracer, "api.outer");
    perfbench::ScopedSpan inner(&tracer, "core.inner");
  }
  Expect(tracer.spans().size() == 2, "two spans recorded");
  Expect(tracer.spans()[1].parent == 0, "inner span's parent is the outer one");
  Expect(tracer.spans()[0].request_id == 1 && tracer.spans()[1].request_id == 1,
         "spans carry the request id");
  Expect(perfbench::LayerOf("estimation.wnnls") == "estimation", "layer prefix");
  perfbench::Tracer off(false);
  { perfbench::ScopedSpan ignored(&off, "core.x"); }
  Expect(off.spans().empty(), "a disabled tracer records nothing");
}

void TestSmokeRuns() {
  const std::vector<std::string> offline = {"setup_s", "plan_build_s",
                                            "plan_worst_variance", "peak_rss_mb"};
  const std::vector<std::string> online = {
      "ingest_single_rps", "accept_rtt_p50_us", "accept_rtt_p99_us",
      "ingest_batch_rps", "batch_rtt_p99_ms", "fresh_estimate_p50_ms",
      "unbiased_estimate_p50_ms", "estimate_rel_error"};
  for (const std::string& name : perfbench::WorkloadNames()) {
    for (const bool trace : {false, true}) {
      perfbench::RunOptions options;
      options.workload = name;
      options.seed = 3;
      options.seconds = 0.01;
      options.trace = trace;
      options.tiny = true;
      const perfbench::RunResult r = perfbench::RunWorkload(options);
      const std::string tag = name + (trace ? " traced" : " untraced");
      Expect(r.failed == 0 && r.attempted > 0, tag + ": every check passes");
      for (const std::string& f : r.failures) std::fprintf(stderr, "  %s\n", f.c_str());
      if (!trace) {
        // plan-prefix64 has no online half.
        std::vector<std::string> expected = offline;
        if (name != "plan-prefix64") {
          expected.insert(expected.end(), online.begin(), online.end());
        }
        for (const std::string& m : expected) {
          const auto it = r.metrics.find(m);
          Expect(it != r.metrics.end() && it->second.value > 0.0 &&
                     std::isfinite(it->second.value),
                 tag + ": " + m + " is positive");
        }
      } else {
        Expect(r.metrics.count("self.unattributed_s") == 1, tag + ": self times");
        Expect(!r.spans_jsonl.empty(), tag + ": spans recorded");
        if (name == "plan-prefix64") {
          // One random-init run plus the four default seed runs.
          Expect(r.metrics.at("core.optimizer_runs").value == 5.0,
                 tag + ": five optimizer runs per build");
        }
      }
    }
  }
}

}  // namespace

int main() {
  TestPercentiles();
  TestSelfTimes();
  TestSmokeRuns();
  if (failures == 0) std::printf("perfbench_test: all passed\n");
  return failures == 0 ? 0 : 1;
}
