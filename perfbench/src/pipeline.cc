#include "pipeline.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <utility>

#include "core/factored.h"
#include "estimation/wnnls.h"
#include "host.h"
#include "linalg/kron.h"
#include "mechanisms/factored.h"
#include "stats.h"
#include "trace.h"
#include "wfm.h"
#include "workload/kronecker.h"

namespace perfbench {
namespace {

using wfm::EstimatorKind;
using wfm::Matrix;
using wfm::Vector;

constexpr double kEpsilon = 1.0;
// Users are drawn from this synthetic Figure 3a dataset shape.
constexpr const char* kDataset = "HEPTH";
constexpr int kBatchSize = 256;
// In-process accepts take tens of nanoseconds, so only every 8th call is
// timed individually; over the wire every call is.
constexpr int kInProcessTimingStride = 8;
// Failure messages kept per run (the count is always exact).
constexpr std::size_t kMaxFailureMessages = 20;

// ---------------------------------------------------------------------------
// Workload definitions.

struct Spec {
  std::string workload;   // ParseWorkload grammar.
  std::string mechanism;  // Registry name.
  bool build_in_window = false;  // The build is the measured operation.
  bool wire = false;             // Ingest over loopback TCP.
  int setup_reps = 5;
  // Builds timed before set-up, on workloads whose window does not build.
  int build_reps = 1;
  int min_builds = 1;
  // Report sets of reports_per_set users each; none on a workload without
  // an online half. The first single_per_set reports of a set go one per
  // Accept, the rest in batches of kBatchSize. Over the wire the batch part
  // is re-sent batch_rounds times per epoch.
  int report_sets = 0;
  std::int64_t reports_per_set = 0;
  std::int64_t single_per_set = 0;
  int batch_rounds = 1;
  // Epochs run at least this many times (and at least once per report set),
  // then until the window ends.
  int min_epochs = 0;
  wfm::OptimizerConfig optimizer;
};

Spec MakeSpec(const std::string& name, bool tiny) {
  Spec s;
  if (name == "plan-prefix64") {
    s.workload = tiny ? "Prefix(8)" : "Prefix(64)";
    s.mechanism = "Optimized";
    s.build_in_window = true;
    s.setup_reps = tiny ? 1 : 51;
    s.min_builds = tiny ? 1 : 3;
  } else if (name == "wire-ingest") {
    s.workload = tiny ? "Prefix(4)" : "Prefix(16)";
    s.mechanism = "Optimized";
    s.wire = true;
    s.build_reps = tiny ? 1 : 5;
    s.report_sets = 1;
    s.reports_per_set = tiny ? 2048 : 40000 + 262144;
    s.single_per_set = tiny ? 256 : 40000;
    s.batch_rounds = tiny ? 2 : 8;
    s.min_epochs = tiny ? 2 : 5;
  } else if (name == "decode-prefix512") {
    s.workload = tiny ? "Prefix(16)" : "Prefix(512)";
    s.mechanism = "Hadamard";
    s.setup_reps = tiny ? 1 : 5;
    s.build_reps = tiny ? 1 : 5;
    s.report_sets = tiny ? 2 : 8;
    s.reports_per_set = tiny ? 4000 : 1000000;
    s.single_per_set = tiny ? 400 : 50000;
    s.min_epochs = tiny ? 2 : 8;
  } else if (name == "structured-kron") {
    // Tiny keeps the domain past KroneckerWorkload::kDenseGramLimit so the
    // factored path still runs.
    s.workload = tiny ? "Histogram(64)xHistogram(65)"
                      : "Prefix(32)xHistogram(16)xPrefix(32)";
    s.mechanism = "Optimized";
    s.setup_reps = tiny ? 1 : 5;
    s.report_sets = 2;
    s.reports_per_set = tiny ? 4000 : 200000;
    s.single_per_set = tiny ? 400 : 100000;
    s.min_epochs = tiny ? 2 : 3;
  } else {
    WFM_CHECK(false) << "unknown workload " << name;
  }
  if (tiny) {
    s.optimizer.iterations = 10;
    s.optimizer.step_search_iterations = 3;
    s.optimizer.step_candidates = {1e-3, 1e-2};
  }
  s.min_epochs = std::max(s.min_epochs, s.report_sets);
  return s;
}

// ---------------------------------------------------------------------------
// Accounting of attempted and failed operations.

void Fail(RunResult& r, const std::string& what) {
  ++r.failed;
  if (r.failures.size() < kMaxFailureMessages) r.failures.push_back(what);
}

bool Check(RunResult& r, bool ok, const std::string& what) {
  ++r.attempted;
  if (!ok) Fail(r, "check failed: " + what);
  return ok;
}

bool Count(RunResult& r, const wfm::Status& status, const char* what) {
  ++r.attempted;
  if (!status.ok()) Fail(r, std::string(what) + ": " + status.ToString());
  return status.ok();
}

std::int64_t CounterValue(const char* name) {
  return wfm::MetricsRegistry::Global().GetCounter(name).value();
}

// OptimizeStrategy calls so far: each records one duration sample.
std::int64_t OptimizeCalls() {
  return wfm::MetricsRegistry::Global()
      .GetHistogram("wfm_optimizer_optimize_duration_ns")
      .count();
}

bool SameBits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.rows()) * a.cols() *
                         sizeof(double)) == 0;
}

double RelativeError(const Vector& answers, const Vector& truth) {
  double err = 0.0;
  double norm = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    err += (answers[i] - truth[i]) * (answers[i] - truth[i]);
    norm += truth[i] * truth[i];
  }
  return err / norm;
}

// ---------------------------------------------------------------------------
// Set-up: the workload, its users, the plan and the clients' reports.

struct WireClients {
  std::optional<wfm::CollectionClient> single, batch, control;
};

bool ConnectAll(int port, WireClients& c, RunResult& r) {
  for (auto* slot : {&c.single, &c.batch, &c.control}) {
    wfm::StatusOr<wfm::CollectionClient> client = wfm::CollectionClient::Connect(port);
    if (!Count(r, client.status(), "CollectionClient::Connect")) return false;
    slot->emplace(std::move(client.value()));
  }
  return true;
}

// Everything in place before the first report is ingested.
struct Deployment {
  std::shared_ptr<const wfm::Workload> workload;
  std::optional<wfm::Plan> plan;
  // The true histogram of each report set, and the reports of one of them
  // (set `responses_set`), regenerated when an epoch needs another set.
  std::vector<Vector> sets;
  std::vector<int> responses;
  int responses_set = -1;
  // In-process ingest goes to `session`; wire ingest to `server` through
  // `clients` (declared after the server, so they disconnect first).
  std::unique_ptr<wfm::PlanSession> session;
  std::unique_ptr<wfm::CollectionServer> server;
  WireClients clients;
};

wfm::StatusOr<wfm::Plan> BuildPlan(const Spec& spec,
                                   std::shared_ptr<const wfm::Workload> w) {
  return wfm::Plan::For(std::move(w))
      .Epsilon(kEpsilon)
      .Mechanism(spec.mechanism)
      .Optimizer(spec.optimizer)
      .Build();
}

// The true histogram of each report set's users, drawn from one synthetic
// dataset.
std::vector<Vector> SampleHistograms(const Spec& spec, std::uint64_t seed, int n) {
  const wfm::Dataset base = wfm::MakeSyntheticDataset(
      kDataset, n, static_cast<double>(spec.reports_per_set), seed);
  std::vector<Vector> sets;
  for (int k = 0; k < spec.report_sets; ++k) {
    sets.push_back(
        wfm::SampleUsers(base, spec.reports_per_set, seed * 7919 + k).histogram);
  }
  return sets;
}

// The report of every user in `histogram`, in type order.
void Respond(const wfm::PlanClient& client, const Vector& histogram,
             std::uint64_t seed, int set_index, std::vector<int>& responses) {
  wfm::Rng rng(seed * 31 + set_index + 1);
  double users = 0.0;
  for (const double count : histogram) users += count;
  responses.clear();
  responses.reserve(static_cast<std::size_t>(users));
  for (std::size_t u = 0; u < histogram.size(); ++u) {
    const auto users = static_cast<std::int64_t>(histogram[u]);
    for (std::int64_t i = 0; i < users; ++i) {
      responses.push_back(client.Respond(static_cast<int>(u), rng).index);
    }
  }
}

// Makes `d.responses` hold the reports of report set k.
void UseReportSet(Deployment& d, std::uint64_t seed, int k) {
  if (d.responses_set == k) return;
  Respond(d.plan->Client(), d.sets[k], seed, k, d.responses);
  d.responses_set = k;
}

// The histogram of the first `count` users of `histogram` in type order.
Vector HistogramOfFirst(const Vector& histogram, std::int64_t count) {
  Vector x(histogram.size(), 0.0);
  for (std::size_t u = 0; u < histogram.size() && count > 0; ++u) {
    const std::int64_t take =
        std::min(count, static_cast<std::int64_t>(histogram[u]));
    x[u] = static_cast<double>(take);
    count -= take;
  }
  return x;
}

// While alive, restricts the calling thread -- and every thread it creates
// meanwhile, which inherit the mask -- to CPUs [first, first + 2). A run
// keeps its own threads, the thread pool's included, on CPUs 2-3 and the TCP
// server's on CPUs 0-1, so every run places its threads the same way; on a
// shared virtual machine that halved the run-to-run spread of the timings.
// A no-op on hosts with fewer than four CPUs.
class CpuPairPin {
 public:
  explicit CpuPairPin(int first) {
    if (std::thread::hardware_concurrency() < 4 ||
        pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) != 0) {
      return;
    }
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(first, &set);
    CPU_SET(first + 1, &set);
    pinned_ = pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
  }
  ~CpuPairPin() {
    if (pinned_) pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
  }
  CpuPairPin(const CpuPairPin&) = delete;
  CpuPairPin& operator=(const CpuPairPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

// Brings up the serving side of a built plan: the in-process session, or the
// TCP server and its three client connections. The decoder's Gram Lipschitz
// constant is computed here, once per deployment, not in the first epoch.
bool StartServing(const Spec& spec, Deployment& d, RunResult& r) {
  if (!spec.wire) {
    d.session = d.plan->StartSession(1);
    d.session->session().decoder().GramLipschitz();
    return true;
  }
  wfm::ServiceOptions options;
  options.num_shards = 2;
  d.server = std::make_unique<wfm::CollectionServer>(*d.plan, options);
  {
    const CpuPairPin server_cpus(0);  // The acceptor and its connections.
    if (!Count(r, d.server->Start(), "CollectionServer::Start")) return false;
  }
  d.server->session().session().decoder().GramLipschitz();
  return ConnectAll(d.server->port(), d.clients, r);
}

// Tears the serving side down, and frees the reports, so that every
// set-up starts from nothing.
void StopServing(Deployment& d) {
  d.clients = WireClients();
  d.server.reset();
  d.session.reset();
  d.responses = std::vector<int>();
  d.responses_set = -1;
}

// One set-up of the online half of a built plan: the clients' reports of the
// first report set, then the serving side.
bool SetUpServing(const Spec& spec, std::uint64_t seed, Deployment& d,
                  RunResult& r) {
  UseReportSet(d, seed, 0);
  return StartServing(spec, d, r);
}

// The Table 1 baselines OptimizedMechanism warm-starts from, in its order.
std::vector<Matrix> DefaultSeeds(int n, double eps) {
  std::vector<Matrix> seeds;
  seeds.push_back(wfm::RandomizedResponseMechanism::BuildStrategy(n, eps));
  seeds.push_back(wfm::HadamardResponseMechanism::BuildStrategy(n, eps));
  seeds.push_back(wfm::HierarchicalMechanism::BuildStrategy(n, eps, 4));
  if ((n & (n - 1)) == 0) {
    seeds.push_back(wfm::FourierMechanism::BuildStrategy(n, eps, -1));
  }
  return seeds;
}

const wfm::OptimizerResult* OptimizerResultOf(const wfm::Plan& plan) {
  const auto* optimized =
      dynamic_cast<const wfm::OptimizedMechanism*>(&plan.mechanism());
  return optimized != nullptr ? &optimized->optimizer_result() : nullptr;
}

// ---------------------------------------------------------------------------
// The online half: ingest, seal, decode, check.

// One epoch's single-report or batched ingest: the accepted reports, the
// time the loop took, and the latency of each timed call.
struct IngestPhase {
  std::int64_t reports = 0;
  double seconds = 0.0;
  std::vector<double> latency;
};

// An ingest phase summarised at the end of its epoch.
struct EpochIngest {
  double rate = 0.0;  // Reports per second.
  double p50 = 0.0;
  double p99 = 0.0;
  std::int64_t calls = 0;
};

// Appends the summary of `p` to `out` and empties `p` for the next epoch,
// keeping its buffer: the samples kept do not grow with the epoch count.
void EndEpoch(IngestPhase& p, std::vector<EpochIngest>& out) {
  if (!p.latency.empty() && p.seconds > 0.0) {
    out.push_back({static_cast<double>(p.reports) / p.seconds,
                   Percentile(p.latency, 50), Percentile(p.latency, 99),
                   static_cast<std::int64_t>(p.latency.size())});
  }
  p.reports = 0;
  p.seconds = 0.0;
  p.latency.clear();
}

std::size_t Batches(std::int64_t reports) {
  return static_cast<std::size_t>((reports + kBatchSize - 1) / kBatchSize);
}

struct OnlineSamples {
  std::vector<EpochIngest> single;  // Latency in microseconds.
  std::vector<EpochIngest> batch;   // Latency in milliseconds.
  std::vector<double> fresh_ms;     // Seal through an uncached WNNLS estimate.
  std::vector<double> unbiased_ms;
  double rel_error_sum = 0.0;
  int rel_error_count = 0;
};

void AcceptSingles(wfm::PlanSession& session, std::span<const int> responses,
                   IngestPhase& p, RunResult& r) {
  wfm::Report report;
  const std::int64_t start = NowNs();
  for (std::size_t i = 0; i < responses.size(); ++i) {
    report.index = responses[i];
    if (i % kInProcessTimingStride == 0) {
      const std::int64_t t0 = NowNs();
      Count(r, session.Accept(0, report), "PlanSession::Accept");
      p.latency.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    } else {
      Count(r, session.Accept(0, report), "PlanSession::Accept");
    }
  }
  p.seconds += static_cast<double>(NowNs() - start) * 1e-9;
  p.reports += static_cast<std::int64_t>(responses.size());
}

void AcceptBatches(wfm::PlanSession& session, std::span<const int> responses,
                   IngestPhase& p, RunResult& r) {
  std::vector<wfm::Report> batch(kBatchSize);
  const std::int64_t start = NowNs();
  for (std::size_t i = 0; i < responses.size(); i += kBatchSize) {
    const std::size_t k = std::min<std::size_t>(kBatchSize, responses.size() - i);
    for (std::size_t j = 0; j < k; ++j) batch[j].index = responses[i + j];
    const std::int64_t t0 = NowNs();
    Count(r, session.AcceptBatch(0, std::span<const wfm::Report>(batch.data(), k)),
          "PlanSession::AcceptBatch");
    p.latency.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
  }
  p.seconds += static_cast<double>(NowNs() - start) * 1e-9;
  p.reports += static_cast<std::int64_t>(responses.size());
}

// Output checks shared by every served epoch.
void CheckServed(const wfm::ReportDecoder& decoder, const wfm::Workload& w,
                 const wfm::EpochSnapshot& snap, std::int64_t acked,
                 const wfm::WorkloadEstimate& wnnls,
                 const wfm::WorkloadEstimate& unbiased, RunResult& r) {
  Check(r, snap.count == acked, "sealed count equals acknowledged reports");
  bool valid = wnnls.data_vector.size() == static_cast<std::size_t>(w.domain_size());
  for (const double v : wnnls.data_vector) valid = valid && std::isfinite(v) && v >= 0.0;
  for (const double v : wnnls.query_answers) valid = valid && std::isfinite(v);
  Check(r, valid, "WNNLS estimate is finite and non-negative");
  const wfm::WorkloadEstimate ref = wfm::EstimateWorkloadAnswers(
      decoder, w, snap.histogram, snap.count, EstimatorKind::kUnbiased);
  Check(r, SameBits(ref.query_answers, unbiased.query_answers),
        "unbiased answers equal W(B y) recomputed via estimation");
}

// Each epoch ingests one report set; its reports are generated, when the
// previous epoch used another set, before the epoch's ingest is timed.
void RunInProcessEpochs(const Spec& spec, std::uint64_t seed, Deployment& d,
                        double seconds, OnlineSamples& s, RunResult& r) {
  wfm::PlanSession* session = d.session.get();
  const wfm::ReportDecoder& decoder = session->session().decoder();
  IngestPhase single;
  IngestPhase batch;
  single.latency.reserve(spec.single_per_set / kInProcessTimingStride + 1);
  batch.latency.reserve(Batches(spec.reports_per_set));
  const std::int64_t start = NowNs();
  for (int e = 0;; ++e) {
    if (e >= spec.min_epochs &&
        static_cast<double>(NowNs() - start) * 1e-9 >= seconds) {
      break;
    }
    const int k = e % spec.report_sets;
    UseReportSet(d, seed, k);
    const std::span<const int> all(d.responses);
    AcceptSingles(*session, all.first(spec.single_per_set), single, r);
    AcceptBatches(*session, all.subspan(spec.single_per_set), batch, r);
    EndEpoch(single, s.single);
    EndEpoch(batch, s.batch);

    const std::int64_t t0 = NowNs();
    const wfm::EpochSnapshot snap = session->Seal();
    wfm::StatusOr<wfm::WorkloadEstimate> wnnls = session->Estimate(EstimatorKind::kWnnls);
    const std::int64_t t1 = NowNs();
    wfm::StatusOr<wfm::WorkloadEstimate> unbiased =
        session->Estimate(EstimatorKind::kUnbiased);
    const std::int64_t t2 = NowNs();
    s.fresh_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    s.unbiased_ms.push_back(static_cast<double>(t2 - t1) * 1e-6);
    // A second read of the same epoch, as a dashboard would make, is served
    // from the estimate cache.
    wfm::StatusOr<wfm::WorkloadEstimate> reread =
        session->Estimate(EstimatorKind::kWnnls);
    if (!Count(r, wnnls.status(), "PlanSession::Estimate(kWnnls)") ||
        !Count(r, unbiased.status(), "PlanSession::Estimate(kUnbiased)") ||
        !Count(r, reread.status(), "PlanSession::Estimate(cached)")) {
      continue;
    }
    CheckServed(decoder, *d.workload, snap,
                static_cast<std::int64_t>(d.responses.size()), wnnls.value(),
                unbiased.value(), r);
    if (e < spec.report_sets) {
      const Vector truth = d.workload->Apply(d.sets[k]);
      s.rel_error_sum += RelativeError(wnnls.value().query_answers, truth);
      ++s.rel_error_count;
    }
  }
}

// Parses one counter out of Prometheus exposition text; -1 when absent.
std::int64_t ScrapedCounter(const std::string& text, const std::string& name) {
  const std::string key = "\n" + name + " ";
  const std::size_t pos = text.find(key);
  if (pos == std::string::npos) return -1;
  return std::strtoll(text.c_str() + pos + key.size(), nullptr, 10);
}

void CountClientFaults(const WireClients& c, RunResult& r) {
  for (const auto* slot : {&c.single, &c.batch, &c.control}) {
    if (!slot->has_value()) continue;
    const wfm::WireClientStats& stats = (*slot)->stats();
    if (stats.retries + stats.timeouts > 0) {
      Fail(r, "wire client retried or timed out");
      r.failed += stats.retries + stats.timeouts - 1;
    }
  }
}

// Sends one report per kAccept frame.
void SendSingles(wfm::CollectionClient& client, std::span<const int> responses,
                 IngestPhase& p, RunResult& r) {
  wfm::Report report;
  const std::int64_t start = NowNs();
  for (const int response : responses) {
    report.index = response;
    const std::int64_t t0 = NowNs();
    const wfm::Status st = client.Accept(report);
    p.latency.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    if (Count(r, st, "CollectionClient::Accept")) ++p.reports;
  }
  p.seconds += static_cast<double>(NowNs() - start) * 1e-9;
}

// Sends the reports `rounds` times in kAcceptBatch frames.
void SendBatches(wfm::CollectionClient& client, std::span<const int> responses,
                 int rounds, IngestPhase& p, RunResult& r) {
  std::vector<wfm::Report> batch(kBatchSize);
  const std::int64_t start = NowNs();
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < responses.size(); i += kBatchSize) {
      const std::size_t k = std::min<std::size_t>(kBatchSize, responses.size() - i);
      for (std::size_t j = 0; j < k; ++j) batch[j].index = responses[i + j];
      const std::int64_t t0 = NowNs();
      const wfm::Status st =
          client.AcceptBatch(std::span<const wfm::Report>(batch.data(), k));
      p.latency.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
      if (Count(r, st, "CollectionClient::AcceptBatch")) {
        p.reports += static_cast<std::int64_t>(k);
      }
    }
  }
  p.seconds += static_cast<double>(NowNs() - start) * 1e-9;
}

void RunWireEpochs(const Spec& spec, Deployment& d, double seconds,
                   OnlineSamples& s, RunResult& r) {
  WireClients& clients = d.clients;
  // Every epoch sends the reports of set 0, made during set-up.
  const std::span<const int> all(d.responses);
  const std::span<const int> single_pool = all.first(spec.single_per_set);
  const std::span<const int> batch_pool = all.subspan(spec.single_per_set);
  const Vector& users = d.sets[0];
  Vector truth = HistogramOfFirst(users, spec.single_per_set);
  for (std::size_t u = 0; u < truth.size(); ++u) {
    truth[u] += spec.batch_rounds * (users[u] - truth[u]);
  }
  const Vector true_answers = d.workload->Apply(truth);

  // The in-process twin ingests exactly what the server acknowledged; its
  // estimate must match the networked one bit for bit.
  std::unique_ptr<wfm::PlanSession> twin = d.plan->StartSession(1);
  std::optional<wfm::WorkloadEstimate> twin_wnnls;
  std::int64_t twin_fed = 0;

  wfm::StatusOr<std::string> first = clients.control->Metrics();
  if (!Count(r, first.status(), "CollectionClient::Metrics")) return;
  std::int64_t last_scraped = ScrapedCounter(first.value(), "wfm_ingest_reports_total");
  if (last_scraped < 0) last_scraped = 0;  // Not registered before any ingest.

  IngestPhase single_p;
  IngestPhase batch_p;
  single_p.latency.reserve(single_pool.size());
  batch_p.latency.reserve(spec.batch_rounds * Batches(batch_pool.size()));
  const std::int64_t start = NowNs();
  for (int e = 0;; ++e) {
    if (e >= spec.min_epochs &&
        static_cast<double>(NowNs() - start) * 1e-9 >= seconds) {
      break;
    }
    RunResult single_r;
    RunResult batch_r;
    std::thread single_thread([&] {
      SendSingles(*clients.single, single_pool, single_p, single_r);
    });
    std::thread batch_thread([&] {
      SendBatches(*clients.batch, batch_pool, spec.batch_rounds, batch_p, batch_r);
    });
    single_thread.join();
    batch_thread.join();
    for (const RunResult* part : {&single_r, &batch_r}) {
      r.attempted += part->attempted;
      r.failed += part->failed;
      for (const std::string& f : part->failures) {
        if (r.failures.size() < kMaxFailureMessages) r.failures.push_back(f);
      }
    }
    const std::int64_t acked = single_p.reports + batch_p.reports;
    EndEpoch(single_p, s.single);
    EndEpoch(batch_p, s.batch);

    const std::int64_t t0 = NowNs();
    wfm::StatusOr<wfm::EpochSnapshot> snap = clients.control->Seal();
    wfm::StatusOr<wfm::WorkloadEstimate> wnnls =
        clients.control->Estimate(EstimatorKind::kWnnls);
    const std::int64_t t1 = NowNs();
    wfm::StatusOr<wfm::WorkloadEstimate> unbiased =
        clients.control->Estimate(EstimatorKind::kUnbiased);
    const std::int64_t t2 = NowNs();
    wfm::StatusOr<std::string> scrape = clients.control->Metrics();
    if (!Count(r, snap.status(), "CollectionClient::Seal") ||
        !Count(r, wnnls.status(), "CollectionClient::Estimate(kWnnls)") ||
        !Count(r, unbiased.status(), "CollectionClient::Estimate(kUnbiased)") ||
        !Count(r, scrape.status(), "CollectionClient::Metrics")) {
      continue;
    }
    s.fresh_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    s.unbiased_ms.push_back(static_cast<double>(t2 - t1) * 1e-6);

    const std::int64_t scraped =
        ScrapedCounter(scrape.value(), "wfm_ingest_reports_total");
    Check(r, scraped - last_scraped - twin_fed == acked,
          "scraped wfm_ingest_reports_total equals acknowledged reports");
    last_scraped = scraped;
    twin_fed = 0;

    if (!twin_wnnls.has_value()) {
      // Every epoch sends the same pools, so one twin epoch covers them all.
      IngestPhase ignored;
      AcceptBatches(*twin, single_pool, ignored, r);
      for (int round = 0; round < spec.batch_rounds; ++round) {
        AcceptBatches(*twin, batch_pool, ignored, r);
      }
      twin_fed = static_cast<std::int64_t>(single_pool.size()) +
                 spec.batch_rounds * static_cast<std::int64_t>(batch_pool.size());
      twin->Seal();
      wfm::StatusOr<wfm::WorkloadEstimate> est = twin->Estimate(EstimatorKind::kWnnls);
      if (!Count(r, est.status(), "twin Estimate")) continue;
      twin_wnnls = std::move(est.value());
      s.rel_error_sum += RelativeError(wnnls.value().query_answers, true_answers);
      ++s.rel_error_count;
    }
    Check(r,
          SameBits(wnnls.value().data_vector, twin_wnnls->data_vector) &&
              SameBits(wnnls.value().query_answers, twin_wnnls->query_answers),
          "networked estimate is bit-identical to the in-process twin");
    CheckServed(d.server->session().session().decoder(), *d.workload,
                snap.value(), acked, wnnls.value(), unbiased.value(), r);
  }
  CountClientFaults(clients, r);
  d.clients = WireClients();
  d.server->Stop();
}

// ---------------------------------------------------------------------------
// Untraced run: the end-to-end metrics.

void AddMetric(RunResult& r, const std::string& name, double value,
               const std::string& unit, std::int64_t samples) {
  r.metrics[name] = Metric{value, unit, samples};
}

void AddTiming(RunResult& r, const std::string& name, double p,
               const std::vector<double>& samples, const std::string& unit) {
  if (samples.empty()) {
    Fail(r, "no samples for " + name);
    return;
  }
  AddMetric(r, name, Percentile(samples, p), unit,
            static_cast<std::int64_t>(samples.size()));
}

// The median over epochs of a per-epoch statistic; the sample count is the
// number of timed calls behind it.
void AddEpochMedian(RunResult& r, const std::string& name,
                    const std::vector<EpochIngest>& epochs, const std::string& unit,
                    double EpochIngest::*stat) {
  std::vector<double> per_epoch;
  std::int64_t calls = 0;
  for (const EpochIngest& epoch : epochs) {
    per_epoch.push_back(epoch.*stat);
    calls += epoch.calls;
  }
  if (per_epoch.empty()) {
    Fail(r, "no samples for " + name);
    return;
  }
  AddMetric(r, name, Median(per_epoch), unit, calls);
}

// A note with the median and the tail percentile of one sample series.
void Describe(RunResult& r, const std::string& what,
              const std::vector<double>& samples, const std::string& unit) {
  if (samples.empty()) return;
  const Tail tail = TailPercentile(samples);
  char label[32];
  if (tail.percentile > 0.0) {
    std::snprintf(label, sizeof(label), "p%g", tail.percentile);
  } else {
    std::snprintf(label, sizeof(label), "max");
  }
  char line[256];
  std::snprintf(line, sizeof(line), "%s: median %.6g %s, %s %.6g %s, n=%zu",
                what.c_str(), Median(samples), unit.c_str(), label, tail.value,
                unit.c_str(), samples.size());
  r.notes.push_back(line);
}

// Ingest statistics are taken per epoch, then the median over epochs, so one
// disturbed epoch does not move them.
void AddOnlineMetrics(const OnlineSamples& s, RunResult& r) {
  AddEpochMedian(r, "ingest_single_rps", s.single, "1/s", &EpochIngest::rate);
  AddEpochMedian(r, "ingest_batch_rps", s.batch, "1/s", &EpochIngest::rate);
  AddEpochMedian(r, "accept_rtt_p50_us", s.single, "us", &EpochIngest::p50);
  AddEpochMedian(r, "accept_rtt_p99_us", s.single, "us", &EpochIngest::p99);
  AddEpochMedian(r, "batch_rtt_p99_ms", s.batch, "ms", &EpochIngest::p99);
  AddTiming(r, "fresh_estimate_p50_ms", 50, s.fresh_ms, "ms");
  AddTiming(r, "unbiased_estimate_p50_ms", 50, s.unbiased_ms, "ms");
  if (s.rel_error_count > 0) {
    AddMetric(r, "estimate_rel_error", s.rel_error_sum / s.rel_error_count,
              "ratio", s.rel_error_count);
  }
}

// plan-prefix64. Set-up makes what the replay check needs: the workload,
// its statistics and the default seed strategies. The window then builds the
// plan back to back, and the replay checks the last build.
void RunBuildWindow(const Spec& spec, double seconds, Deployment& d,
                    std::vector<double>& setup_s, std::vector<double>& build_s,
                    RunResult& r) {
  wfm::WorkloadStats stats;
  std::vector<Matrix> seeds;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    // The previous set-up is freed outside the timed region.
    d.workload.reset();
    stats = wfm::WorkloadStats();
    seeds.clear();
    const std::int64_t t0 = NowNs();
    d.workload = wfm::ParseWorkload(spec.workload);
    stats = wfm::WorkloadStats::From(*d.workload);
    seeds = DefaultSeeds(stats.n, kEpsilon);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }

  std::optional<double> objective;
  const std::int64_t start = NowNs();
  for (int b = 0; b < spec.min_builds ||
                  static_cast<double>(NowNs() - start) * 1e-9 < seconds;
       ++b) {
    d.plan.reset();  // One plan alive at a time, so peak RSS is one build's.
    const std::int64_t t0 = NowNs();
    wfm::StatusOr<wfm::Plan> plan = BuildPlan(spec, d.workload);
    build_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    if (!Count(r, plan.status(), "Plan::Build")) continue;
    const wfm::OptimizerResult* opt = OptimizerResultOf(plan.value());
    if (!Check(r, opt != nullptr, "build deployed the optimized mechanism")) continue;
    if (objective.has_value()) {
      Check(r, opt->objective == *objective, "repeated builds agree");
    }
    objective = opt->objective;
    d.plan = std::move(plan.value());
  }
  if (!objective.has_value()) return;
  // The build decomposes into its public steps: replaying Algorithm 2 with
  // the default seeds reproduces the objective Build() found.
  wfm::OptimizerConfig config = spec.optimizer;
  config.seed_strategies = std::move(seeds);
  const wfm::OptimizerResult replay =
      wfm::OptimizeStrategy(stats.gram, kEpsilon, config);
  Check(r, replay.objective == *objective,
        "replayed OptimizeStrategy objective equals the Build() objective");
}

// The other workloads. The plan is built build_reps times, each build timed
// for plan_build_s alone; then the online half is set up setup_reps times:
// the clients' reports of the first report set and the serving side.
bool SetUpOnline(const Spec& spec, std::uint64_t seed, Deployment& d,
                 std::vector<double>& setup_s, std::vector<double>& build_s,
                 RunResult& r) {
  d.workload = wfm::ParseWorkload(spec.workload);
  for (int b = 0; b < spec.build_reps; ++b) {
    d.plan.reset();  // One plan alive at a time, so peak RSS is one deployment's.
    const std::int64_t t0 = NowNs();
    wfm::StatusOr<wfm::Plan> plan = BuildPlan(spec, d.workload);
    build_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    if (Count(r, plan.status(), "Plan::Build")) d.plan = std::move(plan.value());
  }
  if (!d.plan.has_value() ||
      !Check(r, d.plan->report_kind() == wfm::ReportKind::kCategorical,
             "deployment emits categorical reports")) {
    return false;
  }
  d.sets = SampleHistograms(spec, seed, d.workload->domain_size());
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    StopServing(d);  // Outside the timed region.
    const std::int64_t t0 = NowNs();
    const bool ok = SetUpServing(spec, seed, d, r);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    if (!ok) return false;
  }
  return true;
}

RunResult RunEndToEnd(const Spec& spec, std::uint64_t seed, double seconds) {
  RunResult r;
  std::vector<double> setup_s;
  std::vector<double> build_s;
  Deployment d;
  OnlineSamples s;
  if (spec.build_in_window) {
    RunBuildWindow(spec, seconds, d, setup_s, build_s, r);
  } else if (SetUpOnline(spec, seed, d, setup_s, build_s, r)) {
    if (spec.wire) {
      RunWireEpochs(spec, d, seconds, s, r);
    } else {
      RunInProcessEpochs(spec, seed, d, seconds, s, r);
    }
  }

  Describe(r, "set-up", setup_s, "s");
  Describe(r, "plan build", build_s, "s");
  Describe(r, "seal to fresh WNNLS estimate", s.fresh_ms, "ms");
  Describe(r, "unbiased estimate", s.unbiased_ms, "ms");
  AddTiming(r, "setup_s", 50, setup_s, "s");
  AddTiming(r, "plan_build_s", 50, build_s, "s");
  if (d.plan.has_value()) {
    AddMetric(r, "plan_worst_variance", d.plan->Profile().WorstUnitVariance(),
              "variance", 1);
  }
  AddMetric(r, "peak_rss_mb", PeakRssMb(), "MB", 1);
  if (spec.report_sets > 0) AddOnlineMetrics(s, r);
  AddMetric(r, "failed_ops_ratio",
            r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 1.0,
            "ratio", r.attempted);
  return r;
}

// ---------------------------------------------------------------------------
// Traced run: one deployment cycle, decomposed into its layers' calls.

// Counters whose deltas over the traced cycle become per-layer metrics.
constexpr const char* kCycleCounters[] = {
    "wfm_pool_inline_total",        "wfm_pool_dispatches_total",
    "wfm_estimate_cache_hits_total", "wfm_estimate_cache_misses_total",
    "wfm_wire_retries_total",       "wfm_wire_timeouts_total",
    "wfm_wire_shed_total",          "wfm_wire_deduped_total",
    "wfm_wire_bytes_read_total"};

// Per-layer values not read off spans, by metric or counter name.
using CycleValues = std::map<std::string, double>;

// The domain size of the dense PGD runs on this workload's build path (the
// largest factor for a factored build), or 0 when no optimizer runs.
int OptimizerDomain(const Spec& spec, const wfm::WorkloadStats& stats) {
  if (spec.mechanism != "Optimized") return 0;
  if (!stats.factored() || !stats.gram.empty()) return stats.n;
  int n = 0;
  for (const wfm::WorkloadStats& f : stats.factors) n = std::max(n, f.n);
  return n;
}

const Matrix& OptimizerGram(const wfm::WorkloadStats& stats, int n) {
  if (stats.gram.rows() == n) return stats.gram;
  for (const wfm::WorkloadStats& f : stats.factors) {
    if (f.n == n) return f.gram;
  }
  WFM_CHECK(false) << "no Gram matrix of size " << n;
  return stats.gram;
}

// Median milliseconds of `fn` over repetitions lasting about 0.2 s.
template <typename Fn>
double ProbeMs(Tracer& tracer, const std::string& span, Fn&& fn) {
  std::vector<double> ms;
  const std::int64_t start = NowNs();
  while (ms.size() < 5 ||
         (ms.size() < 200 && NowNs() - start < 200'000'000)) {
    ScopedSpan s(&tracer, span);
    const std::int64_t t0 = NowNs();
    fn();
    ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
  }
  return Median(ms);
}

// Kernel timings at the shapes the build's objective uses: m = 4n rows.
void RunLayerProbes(const Spec& spec, std::uint64_t seed,
                    const wfm::WorkloadStats& stats, Tracer& tracer,
                    CycleValues& out) {
  const int n = OptimizerDomain(spec, stats);
  for (const char* key : {"linalg.gemm_ms", "linalg.cholesky_ms",
                          "core.objective_grad_ms", "core.projection_ms"}) {
    out[key] = 0.0;
  }
  if (n == 0) return;
  const Matrix& gram = OptimizerGram(stats, n);
  wfm::Rng rng(seed);
  Vector z;
  const wfm::ProjectionResult init =
      wfm::RandomInitialStrategy(4 * n, n, kEpsilon, rng, &z);
  wfm::ObjectiveWorkspace ows;
  out["core.objective_grad_ms"] = ProbeMs(tracer, "core.objective_grad", [&] {
    wfm::EvalObjectiveAndGradient(init.q, gram, ows);
  });
  Matrix product;
  out["linalg.gemm_ms"] = ProbeMs(tracer, "linalg.gemm", [&] {
    wfm::MultiplyInto(init.q, ows.s, product);
  });
  wfm::Cholesky chol;
  out["linalg.cholesky_ms"] = ProbeMs(tracer, "linalg.cholesky", [&] {
    chol.Factorize(ows.a);
  });
  // One gradient step's worth of movement off the polytope.
  Matrix stepped = init.q;
  for (int o = 0; o < stepped.rows(); ++o) {
    for (int u = 0; u < n; ++u) stepped(o, u) -= 1e-3 * ows.gradient(o, u);
  }
  wfm::ProjectionWorkspace pws;
  wfm::ProjectionResult projected;
  out["core.projection_ms"] = ProbeMs(tracer, "core.projection", [&] {
    wfm::ProjectOntoLdpPolytope(stepped, z, kEpsilon, pws, projected);
  });
}

// Requests 2 and 3 of a cycle, on workloads with an online half.
void RunServeRequests(const Spec& spec, std::uint64_t seed, const wfm::Plan& plan,
                      const std::shared_ptr<const wfm::Workload>& workload,
                      Tracer& tracer, CycleValues& out, RunResult& r) {
  const int n = workload->domain_size();
  // Request 2: one collection epoch of report set 0.
  tracer.NewRequest();
  const std::vector<Vector> sets = SampleHistograms(spec, seed, n);
  std::vector<int> responses;
  {
    ScopedSpan span(&tracer, "ldp.respond");
    Respond(plan.Client(), sets[0], seed, 0, responses);
  }
  out["reports"] = static_cast<double>(responses.size());
  const std::span<const int> all(responses);
  const std::span<const int> singles = all.first(spec.single_per_set);
  const std::span<const int> batched = all.subspan(spec.single_per_set);
  if (spec.wire) {
    wfm::CollectionServer server(plan, wfm::ServiceOptions{});
    WireClients clients;
    {
      ScopedSpan span(&tracer, "wire.start");
      if (!Count(r, server.Start(), "CollectionServer::Start") ||
          !ConnectAll(server.port(), clients, r)) {
        return;
      }
    }
    {
      ScopedSpan span(&tracer, "wire.encode");
      wfm::Report report;
      std::size_t bytes = 0;
      const std::int64_t t0 = NowNs();
      for (const int response : singles) {
        report.index = response;
        bytes += wfm::EncodeReport(report).size();
      }
      out["wire.encode_ns"] =
          static_cast<double>(NowNs() - t0) / static_cast<double>(singles.size());
      out["wire.encoded_bytes"] = static_cast<double>(bytes);
    }
    IngestPhase ignored;
    {
      ScopedSpan span(&tracer, "wire.accept");
      SendSingles(*clients.single, singles, ignored, r);
    }
    {
      ScopedSpan span(&tracer, "wire.accept_batch");
      SendBatches(*clients.batch, batched, 1, ignored, r);
    }
    {
      ScopedSpan span(&tracer, "wire.seal");
      Count(r, clients.control->Seal().status(), "CollectionClient::Seal");
    }
    {
      ScopedSpan span(&tracer, "wire.estimate");
      Count(r, clients.control->Estimate(EstimatorKind::kWnnls).status(),
            "CollectionClient::Estimate");
    }
    {
      ScopedSpan span(&tracer, "wire.metrics_scrape");
      Count(r, clients.control->Metrics().status(), "CollectionClient::Metrics");
    }
    {
      ScopedSpan span(&tracer, "wire.stop");
      CountClientFaults(clients, r);
      clients = WireClients();
      server.Stop();
    }
  }
  std::unique_ptr<wfm::PlanSession> session = plan.StartSession(1);
  IngestPhase ignored;
  {
    ScopedSpan span(&tracer, "collect.accept");
    AcceptSingles(*session, singles, ignored, r);
  }
  {
    ScopedSpan span(&tracer, "collect.accept_batch");
    AcceptBatches(*session, batched, ignored, r);
  }
  wfm::EpochSnapshot snap;
  {
    ScopedSpan span(&tracer, "collect.seal");
    snap = session->Seal();
  }
  wfm::StatusOr<wfm::WorkloadEstimate> served = wfm::Status::Internal("unset");
  {
    ScopedSpan span(&tracer, "collect.serve_wnnls");
    served = session->Estimate(EstimatorKind::kWnnls);
  }
  {
    ScopedSpan span(&tracer, "collect.serve_unbiased");
    Count(r, session->Estimate(EstimatorKind::kUnbiased).status(),
          "PlanSession::Estimate(kUnbiased)");
  }
  {
    ScopedSpan span(&tracer, "collect.serve_cached");
    Count(r, session->Estimate(EstimatorKind::kWnnls).status(),
          "PlanSession::Estimate(cached)");
  }
  if (!Count(r, served.status(), "PlanSession::Estimate(kWnnls)")) return;

  // Request 3: the served decode, replayed through estimation/ directly.
  tracer.NewRequest();
  const wfm::ReportDecoder& decoder = session->session().decoder();
  Vector unbiased;
  {
    ScopedSpan span(&tracer, "estimation.unbiased");
    unbiased = decoder.EstimateDataVector(snap.histogram, snap.count);
    ScopedSpan apply(&tracer, "workload.apply");
    workload->Apply(unbiased);
  }
  wfm::WnnlsOptions options;
  options.lipschitz = decoder.GramLipschitz();
  wfm::WnnlsResult wnnls;
  {
    ScopedSpan span(&tracer, "estimation.wnnls");
    if (decoder.factored()) {
      std::vector<const Matrix*> grams;
      for (const wfm::WorkloadStats& f : decoder.workload_stats().factors) {
        grams.push_back(&f.gram);
      }
      Vector scratch;
      Vector rhs;
      {
        ScopedSpan kron(&tracer, "linalg.kron_matvec");
        wfm::KroneckerMatVecInto(grams, unbiased, rhs, scratch);
      }
      auto op = [&](const Vector& v, Vector& result) {
        ScopedSpan kron(&tracer, "linalg.kron_matvec");
        wfm::KroneckerMatVecInto(grams, v, result, scratch);
      };
      wnnls = wfm::SolveWnnls(op, decoder.n(), rhs, options, &unbiased);
    } else {
      const Matrix& gram = decoder.workload_stats().gram;
      const Vector rhs = wfm::MultiplyVec(gram, unbiased);
      wnnls = wfm::SolveWnnlsFromGram(gram, rhs, options, &unbiased);
    }
  }
  Check(r, SameBits(wnnls.x, served.value().data_vector),
        "replayed WNNLS equals the served estimate");
  out["estimation.wnnls_iterations"] = wnnls.iterations;
  out["estimation.wnnls_converged_ratio"] = wnnls.converged ? 1.0 : 0.0;
  out["estimation.wnnls_kkt"] = wnnls.kkt_residual;

}

void RunCycle(const Spec& spec, std::uint64_t seed, Tracer& tracer,
              CycleValues& out, RunResult& r) {
  std::map<std::string, std::int64_t> before;
  for (const char* c : kCycleCounters) before[c] = CounterValue(c);
  const std::shared_ptr<const wfm::Workload> workload =
      wfm::ParseWorkload(spec.workload);
  const int n = workload->domain_size();

  // Request 1: the build, then its decomposition into public calls.
  tracer.NewRequest();
  const std::int64_t runs0 = CounterValue("wfm_optimizer_runs_total");
  const std::int64_t iters0 = CounterValue("wfm_optimizer_iterations_total");
  const std::int64_t calls0 = OptimizeCalls();
  std::optional<wfm::Plan> plan;
  {
    ScopedSpan span(&tracer, "api.plan_build");
    wfm::StatusOr<wfm::Plan> built = BuildPlan(spec, workload);
    if (Count(r, built.status(), "Plan::Build")) plan = std::move(built.value());
  }
  // wfm_optimizer_runs_total also counts the short step-search runs, one
  // per step candidate in every OptimizeStrategy call that searches.
  const std::int64_t search_runs =
      spec.optimizer.step_size > 0.0
          ? 0
          : (OptimizeCalls() - calls0) *
                static_cast<std::int64_t>(spec.optimizer.step_candidates.size());
  out["core.optimizer_runs"] = static_cast<double>(
      CounterValue("wfm_optimizer_runs_total") - runs0 - search_runs);
  out["core.step_search_runs"] = static_cast<double>(search_runs);
  out["core.optimizer_iterations"] =
      static_cast<double>(CounterValue("wfm_optimizer_iterations_total") - iters0);
  if (!plan.has_value()) return;

  tracer.NewRequest();
  wfm::WorkloadStats stats;
  {
    ScopedSpan span(&tracer, "workload.stats");
    stats = wfm::WorkloadStats::From(*workload);
  }
  if (spec.mechanism == "Optimized" && !stats.factored()) {
    std::vector<Matrix> seeds;
    {
      ScopedSpan span(&tracer, "mechanisms.seed_build");
      seeds = DefaultSeeds(n, kEpsilon);
    }
    {
      ScopedSpan span(&tracer, "core.pgd_main");
      wfm::OptimizeStrategy(stats.gram, kEpsilon, spec.optimizer);
    }
    wfm::OptimizerConfig seeded = spec.optimizer;
    seeded.seed_strategies = std::move(seeds);
    wfm::OptimizerResult result;
    {
      ScopedSpan span(&tracer, "core.pgd_seeded");
      result = wfm::OptimizeStrategy(stats.gram, kEpsilon, seeded);
    }
    const wfm::OptimizerResult* built = OptimizerResultOf(*plan);
    Check(r, built != nullptr && built->objective == result.objective,
          "replayed OptimizeStrategy objective equals the Build() objective");
    ScopedSpan span(&tracer, "core.analysis");
    const wfm::FactorizationAnalysis analysis(result.q, stats);
  } else if (stats.factored()) {
    wfm::FactoredOptimizerConfig config;
    config.factor_config = spec.optimizer;
    config.split_grid = wfm::MechanismOptions{}.factored_split_grid;
    wfm::FactoredOptimizerResult result;
    {
      ScopedSpan span(&tracer, "core.factored_optimize");
      result = wfm::OptimizeFactoredStrategy(stats, kEpsilon, config);
    }
    const auto* built =
        dynamic_cast<const wfm::FactoredStrategyMechanism*>(&plan->mechanism());
    bool same = built != nullptr &&
                built->strategy().factors.size() == result.strategy.factors.size();
    for (std::size_t i = 0; same && i < result.strategy.factors.size(); ++i) {
      same = SameBits(built->strategy().factors[i], result.strategy.factors[i]);
    }
    Check(r, same, "replayed factored optimization equals the Build() strategy");
    ScopedSpan span(&tracer, "core.analysis");
    const wfm::FactoredAnalysis analysis(result.strategy, stats);
  } else {
    Matrix q;
    {
      ScopedSpan span(&tracer, "mechanisms.build_strategy");
      q = wfm::HadamardResponseMechanism::BuildStrategy(n, kEpsilon);
    }
    ScopedSpan span(&tracer, "core.analysis");
    const wfm::FactorizationAnalysis analysis(std::move(q), stats);
  }

  if (spec.report_sets > 0) {
    RunServeRequests(spec, seed, *plan, workload, tracer, out, r);
  }
  for (const char* c : kCycleCounters) out[c] = static_cast<double>(CounterValue(c) - before[c]);
}

double SpanTotalMs(const Tracer& tracer, const std::string& name) {
  std::int64_t ns = 0;
  for (const Span& s : tracer.spans()) {
    if (s.name == name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-6;
}

std::vector<double> SpanDurationsMs(const Tracer& tracer, const std::string& name) {
  std::vector<double> ms;
  for (const Span& s : tracer.spans()) {
    if (s.name == name) ms.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  }
  return ms;
}

// Layers in the order of a report's path through the library.
constexpr const char* kLayers[] = {"api",  "workload", "core",
                                   "mechanisms", "ldp", "wire",
                                   "collect", "estimation", "linalg"};

RunResult RunTraced(const Spec& spec, std::uint64_t seed) {
  RunResult r;
  Tracer tracer(true);
  CycleValues v;
  // Kernel probes first: they also start the thread pool, so neither cycle
  // below pays for that.
  RunLayerProbes(spec, seed,
                 wfm::WorkloadStats::From(*wfm::ParseWorkload(spec.workload)),
                 tracer, v);

  // An untimed cycle first pays the cold costs (first-touch allocation,
  // metric registration, the first server start), so the untraced and the
  // traced cycle both run warm and their difference is the tracing overhead.
  Tracer off(false);
  CycleValues untraced_values;
  RunCycle(spec, seed, off, untraced_values, r);
  const std::int64_t u0 = NowNs();
  RunCycle(spec, seed, off, untraced_values, r);
  const std::int64_t u1 = NowNs();
  RunCycle(spec, seed, tracer, v, r);
  const std::int64_t t1 = NowNs();

  const SelfTimes self = ComputeSelfTimes(tracer.spans(), u1, t1);
  Check(r, self.TotalNs() == self.wall_ns,
        "layer self times plus unattributed add up to the traced wall time");
  char line[160];
  for (const char* layer : kLayers) {
    const auto it = self.layer_ns.find(layer);
    const std::int64_t ns = it != self.layer_ns.end() ? it->second : 0;
    AddMetric(r, std::string("self.") + layer + "_s", static_cast<double>(ns) * 1e-9,
              "s", 1);
    std::snprintf(line, sizeof(line), "self %-12s %10.4f s  %5.1f%%", layer,
                  static_cast<double>(ns) * 1e-9,
                  100.0 * static_cast<double>(ns) / static_cast<double>(self.wall_ns));
    r.notes.push_back(line);
  }
  for (const auto& [layer, ns] : self.layer_ns) {
    if (std::find_if(std::begin(kLayers), std::end(kLayers), [&](const char* l) {
          return layer == l;
        }) == std::end(kLayers)) {
      Fail(r, "span outside the known layers: " + layer);
    }
  }
  std::snprintf(line, sizeof(line), "self %-12s %10.4f s  %5.1f%%", "unattributed",
                static_cast<double>(self.unattributed_ns) * 1e-9,
                100.0 * static_cast<double>(self.unattributed_ns) /
                    static_cast<double>(self.wall_ns));
  r.notes.push_back(line);
  AddMetric(r, "self.unattributed_s", static_cast<double>(self.unattributed_ns) * 1e-9,
            "s", 1);
  AddMetric(r, "trace.wall_s", static_cast<double>(t1 - u1) * 1e-9, "s", 1);
  AddMetric(r, "trace.untraced_wall_s", static_cast<double>(u1 - u0) * 1e-9, "s", 1);
  AddMetric(r, "trace.overhead_s", static_cast<double>((t1 - u1) - (u1 - u0)) * 1e-9,
            "s", 1);

  const double reports = std::max(1.0, v["reports"]);
  const double singles = std::max<double>(1.0, static_cast<double>(spec.single_per_set));
  const double batched = std::max(1.0, reports - singles);
  const double pool_calls = v["wfm_pool_dispatches_total"];
  const double cache_reads =
      v["wfm_estimate_cache_hits_total"] + v["wfm_estimate_cache_misses_total"];
  const std::vector<double> kron = SpanDurationsMs(tracer, "linalg.kron_matvec");

  AddMetric(r, "linalg.gemm_ms", v["linalg.gemm_ms"], "ms", 1);
  AddMetric(r, "linalg.cholesky_ms", v["linalg.cholesky_ms"], "ms", 1);
  AddMetric(r, "linalg.kron_matvec_ms", kron.empty() ? 0.0 : Median(kron), "ms",
            static_cast<std::int64_t>(kron.size()));
  AddMetric(r, "linalg.pool_inline_ratio",
            pool_calls > 0 ? v["wfm_pool_inline_total"] / pool_calls : 0.0, "ratio",
            static_cast<std::int64_t>(pool_calls));
  AddMetric(r, "workload.stats_ms", SpanTotalMs(tracer, "workload.stats"), "ms", 1);
  AddMetric(r, "core.objective_grad_ms", v["core.objective_grad_ms"], "ms", 1);
  AddMetric(r, "core.projection_ms", v["core.projection_ms"], "ms", 1);
  AddMetric(r, "core.optimizer_runs", v["core.optimizer_runs"], "count", 1);
  AddMetric(r, "core.step_search_runs", v["core.step_search_runs"], "count", 1);
  AddMetric(r, "core.optimizer_iterations", v["core.optimizer_iterations"], "count", 1);
  const double pgd_main_s = SpanTotalMs(tracer, "core.pgd_main") * 1e-3;
  const double pgd_seeded_s = SpanTotalMs(tracer, "core.pgd_seeded") * 1e-3;
  AddMetric(r, "core.pgd_main_s", pgd_main_s, "s", 1);
  AddMetric(r, "core.pgd_seed_runs_s",
            pgd_seeded_s > 0.0 ? pgd_seeded_s - pgd_main_s : 0.0, "s", 1);
  AddMetric(r, "mechanisms.seed_build_ms", SpanTotalMs(tracer, "mechanisms.seed_build"),
            "ms", 1);
  AddMetric(r, "core.factored_optimize_s",
            SpanTotalMs(tracer, "core.factored_optimize") * 1e-3, "s", 1);
  AddMetric(r, "core.analysis_ms", SpanTotalMs(tracer, "core.analysis"), "ms", 1);
  AddMetric(r, "ldp.respond_ns", SpanTotalMs(tracer, "ldp.respond") * 1e6 / reports,
            "ns", static_cast<std::int64_t>(reports));
  // Bytes the server read per report, framing and idempotency tags included.
  AddMetric(r, "wire.encode_ns", v["wire.encode_ns"], "ns",
            spec.wire ? spec.single_per_set : 0);
  AddMetric(r, "wire.bytes_per_report",
            spec.wire ? v["wfm_wire_bytes_read_total"] / reports : 0.0, "bytes",
            spec.wire ? static_cast<std::int64_t>(reports) : 0);
  AddMetric(r, "wire.estimate_rtt_ms", SpanTotalMs(tracer, "wire.estimate"), "ms", 1);
  AddMetric(r, "wire.metrics_scrape_ms", SpanTotalMs(tracer, "wire.metrics_scrape"),
            "ms", 1);
  AddMetric(r, "wire.retries", v["wfm_wire_retries_total"], "count", 1);
  AddMetric(r, "wire.timeouts", v["wfm_wire_timeouts_total"], "count", 1);
  AddMetric(r, "wire.shed", v["wfm_wire_shed_total"], "count", 1);
  AddMetric(r, "wire.deduped", v["wfm_wire_deduped_total"], "count", 1);
  AddMetric(r, "collect.accept_ns", SpanTotalMs(tracer, "collect.accept") * 1e6 / singles,
            "ns", static_cast<std::int64_t>(singles));
  AddMetric(r, "collect.accept_batch_ns",
            SpanTotalMs(tracer, "collect.accept_batch") * 1e6 / batched, "ns",
            static_cast<std::int64_t>(batched));
  AddMetric(r, "collect.seal_ms", SpanTotalMs(tracer, "collect.seal"), "ms", 1);
  AddMetric(r, "collect.cache_hit_ratio",
            cache_reads > 0 ? v["wfm_estimate_cache_hits_total"] / cache_reads : 0.0,
            "ratio", static_cast<std::int64_t>(cache_reads));
  AddMetric(r, "estimation.unbiased_ms", SpanTotalMs(tracer, "estimation.unbiased"),
            "ms", 1);
  AddMetric(r, "estimation.wnnls_ms", SpanTotalMs(tracer, "estimation.wnnls"), "ms", 1);
  AddMetric(r, "estimation.wnnls_iterations", v["estimation.wnnls_iterations"], "count",
            1);
  AddMetric(r, "estimation.wnnls_converged_ratio", v["estimation.wnnls_converged_ratio"],
            "ratio", 1);
  AddMetric(r, "estimation.wnnls_kkt", v["estimation.wnnls_kkt"], "residual", 1);
  AddMetric(r, "failed_ops_ratio",
            r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 1.0,
            "ratio", r.attempted);
  r.spans_jsonl = tracer.ToJsonLines();
  return r;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"plan-prefix64", "wire-ingest", "decode-prefix512", "structured-kron"};
}

RunResult RunWorkload(const RunOptions& options) {
  const Spec spec = MakeSpec(options.workload, options.tiny);
  const CpuPairPin run_cpus(2);
  return options.trace ? RunTraced(spec, options.seed)
                       : RunEndToEnd(spec, options.seed, options.seconds);
}

}  // namespace perfbench
