// Quickstart: the paper's running example end to end through the Plan API.
//
// A school wants the distribution of student grades (Example 2.2) without
// ever seeing an individual grade. One Build() call optimizes an LDP
// strategy for the workload (Algorithm 2, offline, no privacy cost) and
// hands back the deployment: every student runs plan.Client() on their own
// grade, the school runs a plan.StartSession() over the reports.
//
// Build & run:  ./build/examples/quickstart [--eps=1.0] [--students=5000]
//                                           [--mechanism=Optimized]

#include <cmath>
#include <cstdio>
#include <memory>

#include "wfm.h"  // Public umbrella API: all wfm modules.

int main(int argc, char** argv) {
  wfm::FlagParser flags(argc, argv);
  const double eps = flags.GetDouble("eps", 1.0);
  const int num_students = flags.GetInt("students", 5000);
  const std::string mechanism = flags.GetString("mechanism", "Optimized");
  wfm::WarnUnusedFlags(flags);  // Typo'd flags must not silently run defaults.

  // True (secret) grade counts over the 5-grade domain, from Example 2.2.
  const char* kGrades[] = {"A", "B", "C", "D", "F"};
  const int n = 5;
  auto workload = std::make_shared<wfm::HistogramWorkload>(n);
  wfm::Vector truth{10, 20, 5, 0, 0};
  for (double& t : truth) t = std::floor(t / 35.0 * num_students);
  truth[1] += num_students - wfm::Sum(truth);  // Exact total.

  // Workload -> deployable mechanism, one call. A typo'd --mechanism fails
  // here with the list of registered names.
  const wfm::StatusOr<wfm::Plan> built =
      wfm::Plan::For(workload).Epsilon(eps).Mechanism(mechanism).Build();
  if (!built.ok()) {
    std::printf("cannot build plan: %s\n", built.status().ToString().c_str());
    return 1;
  }
  const wfm::Plan& plan = built.value();
  std::printf("deployed '%s' at eps = %.2f; expected total squared error "
              "%.1f for %d students\n\n", plan.mechanism_name().c_str(), eps,
              plan.ExpectedTotalVariance(num_students), num_students);

  // Each student randomizes locally; the school reconstructs.
  wfm::Rng rng(2024);
  const wfm::PlanClient client = plan.Client();
  const std::unique_ptr<wfm::PlanSession> server =
      plan.StartSession(/*num_shards=*/1);
  for (int u = 0; u < n; ++u) {
    for (int j = 0; j < static_cast<int>(truth[u]); ++j) {
      server->Accept(0, client.Respond(u, rng));  // The only data sent.
    }
  }
  server->Seal();  // Close the collection round.
  const wfm::WorkloadEstimate estimate =
      server->Estimate(wfm::EstimatorKind::kWnnls).value();

  std::printf("%-6s %12s %12s %10s\n", "grade", "true count", "estimate", "error");
  for (int u = 0; u < n; ++u) {
    std::printf("%-6s %12.0f %12.1f %10.1f\n", kGrades[u], truth[u],
                estimate.query_answers[u], estimate.query_answers[u] - truth[u]);
  }
  std::printf("\n(no individual grade ever left a student's device; each "
              "report is %.2f-LDP)\n", eps);
  return 0;
}
