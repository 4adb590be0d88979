#include "core/optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/objective.h"
#include "linalg/thread_pool.h"
#include "obs/metrics.h"

namespace wfm {
namespace {

// Optimizer telemetry, recorded per PGD run (never per iteration, so the
// allocation-free inner loop stays untouched): run/iteration/failure
// totals, full Optimize() spans, the probe-iteration span behind the
// Figure 3c scalability bench, and the last converged objective.
Counter& OptimizerRuns() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("wfm_optimizer_runs_total");
  return counter;
}

Counter& OptimizerIterations() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("wfm_optimizer_iterations_total");
  return counter;
}

Counter& OptimizerCholeskyFailures() {
  static Counter& counter = MetricsRegistry::Global().GetCounter(
      "wfm_optimizer_cholesky_failures_total");
  return counter;
}

Histogram& OptimizeDuration() {
  static Histogram& histogram = MetricsRegistry::Global().GetHistogram(
      "wfm_optimizer_optimize_duration_ns");
  return histogram;
}

Histogram& ProbeIterationDuration() {
  static Histogram& histogram = MetricsRegistry::Global().GetHistogram(
      "wfm_optimizer_probe_iteration_ns");
  return histogram;
}

Gauge& LastObjective() {
  static Gauge& gauge =
      MetricsRegistry::Global().GetGauge("wfm_optimizer_last_objective");
  return gauge;
}

/// ∇_z L via the chain rule through q_u = clip(r_u + λ_u, z, e^ε z) at the
/// recorded clipping pattern (DESIGN.md §6). For column u with free set F:
///   ∂q_ou/∂z_o   = s_o                  (o clipped; s_o = 1 lower, e^ε upper)
///   ∂λ_u /∂z_o   = -s_o / |F|           (o clipped)
///   ∂q_o'u/∂z_o  = ∂λ_u/∂z_o            (o' free)
/// so (∇_z)_o = Σ_u s_o [o clipped] (g_ou - mean_{o'∈F} g_o'u).
/// `scale_up` is e^ε; `gz` is caller-owned and overwritten.
void BackpropZGradientInto(const Matrix& q_grad, const ProjectionResult& proj,
                           double scale_up, Vector& gz) {
  const int m = q_grad.rows();
  const int n = q_grad.cols();
  gz.assign(m, 0.0);

  for (int u = 0; u < n; ++u) {
    double free_sum = 0.0;
    int free_count = 0;
    for (int o = 0; o < m; ++o) {
      if (proj.state(o, u) == ClipState::kFree) {
        free_sum += q_grad(o, u);
        ++free_count;
      }
    }
    const double free_mean = free_count > 0 ? free_sum / free_count : 0.0;
    for (int o = 0; o < m; ++o) {
      const ClipState st = proj.state(o, u);
      if (st == ClipState::kFree) continue;
      const double s = st == ClipState::kAtLower ? 1.0 : scale_up;
      gz[o] += s * (q_grad(o, u) - free_mean);
    }
  }
}

/// Keeps z inside the projection's feasibility region
/// Σz <= 1 <= e^ε Σz with a small margin (DESIGN.md §6).
void RepairZFeasibility(Vector& z, double eps, int m) {
  for (double& v : z) v = std::min(std::max(v, 0.0), 1.0);
  const double kLowMargin = 0.98;   // Σz must stay below this.
  const double kHighMargin = 1.02;  // e^ε Σz must stay above this.
  const double scale_up = std::exp(eps);
  double s = Sum(z);
  if (s > kLowMargin) {
    const double f = kLowMargin / s;
    for (double& v : z) v *= f;
    s = kLowMargin;
  }
  if (scale_up * s < kHighMargin) {
    if (s <= 0.0) {
      // Degenerate: reset to the canonical initialization.
      const double init = (1.0 + std::exp(-eps)) / (2.0 * m);
      z.assign(m, init);
      return;
    }
    const double f = kHighMargin / (scale_up * s);
    for (double& v : z) v = std::min(v * f, 1.0);
    if (scale_up * Sum(z) < 1.0) {
      const double init = (1.0 + std::exp(-eps)) / (2.0 * m);
      z.assign(m, init);
    }
  }
}

struct RunResult {
  Matrix q;
  Vector z;
  double objective;
  double initial_objective;
  std::vector<double> history;
  int cholesky_failures = 0;
};

/// One full PGD run. Starts from `initial` (strategy + z) if provided,
/// otherwise from a fresh random initialization with m rows.
struct InitialPoint {
  Matrix q;
  Vector z;
};

/// Every buffer the PGD loop touches, allocated once per OptimizeStrategy
/// call and reused across iterations, restarts, and the step-size search.
/// After the first iteration at a given (m, n) warms the buffers, the loop
/// body performs no heap allocation on the Cholesky path.
struct PgdWorkspace {
  ObjectiveWorkspace obj;
  ProjectionWorkspace proj_ws;
  ProjectionResult proj;
  Matrix r;   ///< Pre-projection gradient step Q - β∇.
  Vector z;
  Vector gz;  ///< Backpropagated ∇_z.
};

RunResult RunOnce(const Matrix& gram, double eps, const OptimizerConfig& config,
                  int m, double step, int iterations, Rng& rng,
                  bool record_history, PgdWorkspace& ws,
                  const InitialPoint* initial = nullptr) {
  const int n = gram.rows();
  RunResult run;
  Vector& z = ws.z;
  ProjectionResult& proj = ws.proj;
  if (initial != nullptr) {
    z = initial->z;
    m = initial->q.rows();
    // Re-projecting the seed records its clipping pattern for ∇_z.
    ProjectOntoLdpPolytope(initial->q, z, eps, ws.proj_ws, proj);
  } else {
    proj = RandomInitialStrategy(m, n, eps, rng, &z);
  }

  ObjectiveValue eval =
      EvalObjectiveAndGradient(proj.q, gram, config.population, ws.obj);
  run.initial_objective = eval.value;
  run.q = proj.q;
  run.z = z;
  run.objective = eval.value;
  if (record_history) run.history.reserve(iterations);

  const double scale_up = std::exp(eps);
  const double alpha_ratio = 1.0 / (n * scale_up);  // α = β/(n e^ε).
  double beta = step;

  for (int t = 0; t < iterations; ++t) {
    if (!eval.used_cholesky) ++run.cholesky_failures;

    // z step with backprop through the previous projection.
    BackpropZGradientInto(ws.obj.gradient, proj, scale_up, ws.gz);
    for (int o = 0; o < m; ++o) z[o] -= beta * alpha_ratio * ws.gz[o];
    RepairZFeasibility(z, eps, m);

    // Q step + projection.
    ws.r = proj.q;
    for (int o = 0; o < m; ++o) {
      double* rrow = ws.r.RowPtr(o);
      const double* grow = ws.obj.gradient.RowPtr(o);
      for (int u = 0; u < n; ++u) rrow[u] -= beta * grow[u];
    }
    ProjectOntoLdpPolytope(ws.r, z, eps, ws.proj_ws, proj);

    eval = EvalObjectiveAndGradient(proj.q, gram, config.population, ws.obj);
    if (!std::isfinite(eval.value)) {
      // Step too aggressive: halve and restart from the best iterate.
      beta *= 0.5;
      proj.q = run.q;
      std::fill(proj.pattern.begin(), proj.pattern.end(), ClipState::kFree);
      eval = EvalObjectiveAndGradient(proj.q, gram, config.population, ws.obj);
      continue;
    }
    if (eval.value < run.objective) {
      run.objective = eval.value;
      run.q = proj.q;
      run.z = z;
    }
    if (record_history) run.history.push_back(eval.value);
  }
  OptimizerRuns().Increment();
  OptimizerIterations().Add(iterations);
  OptimizerCholeskyFailures().Add(run.cholesky_failures);
  return run;
}

}  // namespace

ProjectionResult RandomInitialStrategy(int m, int n, double eps, Rng& rng,
                                       Vector* z_out) {
  WFM_CHECK_GT(m, 0);
  WFM_CHECK_GT(n, 0);
  Matrix r(m, n);
  for (int o = 0; o < m; ++o) {
    double* row = r.RowPtr(o);
    for (int u = 0; u < n; ++u) row[u] = rng.NextDouble();
  }
  // Paper: z = (1+e^{-ε})/(8n) with m = 4n; equivalently (1+e^{-ε})/(2m),
  // which keeps Σz = (1+e^{-ε})/2 ∈ [1/2, 1] for any m.
  Vector z(m, (1.0 + std::exp(-eps)) / (2.0 * m));
  ProjectionResult proj = ProjectOntoLdpPolytope(r, z, eps);
  if (z_out != nullptr) *z_out = std::move(z);
  return proj;
}

OptimizerResult OptimizeStrategy(const Matrix& gram, double eps,
                                 const OptimizerConfig& config) {
  ScopedTimer span(OptimizeDuration());
  WFM_CHECK_EQ(gram.rows(), gram.cols());
  WFM_CHECK_GT(eps, 0.0);
  const int n = gram.rows();
  const int m = config.random_init_rows > 0 ? config.random_init_rows : 4 * n;
  WFM_CHECK_GE(m, n) << "strategy must have at least n rows to span the workload";
  if (!config.population.empty()) {
    WFM_CHECK_EQ(static_cast<int>(config.population.size()), n)
        << "population weight vector must match the domain size";
    double mass = 0.0;
    for (const double w : config.population) {
      WFM_CHECK(std::isfinite(w) && w >= 0.0)
          << "population weights must be finite and non-negative";
      mass += w;
    }
    WFM_CHECK_GT(mass, 0.0) << "population weights must not all be zero";
  }

  Rng rng(config.seed);

  // One workspace serves the probe, the step search, and every restart; its
  // buffers are the reason the PGD loop below never allocates.
  PgdWorkspace ws;

  // Normalize step candidates by the RMS gradient magnitude at a fresh
  // initialization so the candidates are problem-scale free.
  double grad_rms = 1.0;
  {
    Rng probe = rng.Fork();
    ProjectionResult proj = RandomInitialStrategy(m, n, eps, probe, nullptr);
    EvalObjectiveAndGradient(proj.q, gram, config.population, ws.obj);
    grad_rms = std::sqrt(ws.obj.gradient.FrobeniusNormSq() /
                         (static_cast<double>(m) * n));
    if (!(grad_rms > 0.0) || !std::isfinite(grad_rms)) grad_rms = 1.0;
  }

  double step = config.step_size;
  if (step <= 0.0) {
    double best_obj = std::numeric_limits<double>::infinity();
    Rng search_rng = rng.Fork();
    for (double candidate : config.step_candidates) {
      Rng trial_rng = search_rng;  // Same seed for all candidates.
      const double beta = candidate / grad_rms;
      RunResult run = RunOnce(gram, eps, config, m, beta,
                              config.step_search_iterations, trial_rng,
                              /*record_history=*/false, ws);
      if (std::isfinite(run.objective) && run.objective < best_obj) {
        best_obj = run.objective;
        step = beta;
      }
    }
    if (step <= 0.0) {
      // Every candidate hit a degenerate initialization (possible at tiny m);
      // fall back to the most conservative candidate.
      step = config.step_candidates.front() / grad_rms;
    }
  }

  OptimizerResult out;
  out.step_size_used = step;
  out.objective = std::numeric_limits<double>::infinity();
  auto consider = [&](RunResult run) {
    if (run.objective < out.objective) {
      out.objective = run.objective;
      out.q = std::move(run.q);
      out.z = std::move(run.z);
      out.initial_objective = run.initial_objective;
      out.history = std::move(run.history);
      out.cholesky_failures = run.cholesky_failures;
    }
  };

  WFM_CHECK(config.num_restarts > 0 || !config.seed_strategies.empty())
      << "need at least one random restart or seed strategy";
  // Restart RNGs are forked serially in index order before any run starts,
  // so the stream each restart sees is a function of (seed, index) alone —
  // never of scheduling.
  std::vector<Rng> restart_rngs;
  restart_rngs.reserve(config.num_restarts);
  for (int restart = 0; restart < config.num_restarts; ++restart) {
    restart_rngs.push_back(rng.Fork());
  }
  if (config.num_restarts <= 1) {
    // Single restart stays on the shared workspace inline: this is the
    // allocation-count-stable path optimizer_alloc_test pins.
    for (int restart = 0; restart < config.num_restarts; ++restart) {
      consider(RunOnce(gram, eps, config, m, step, config.iterations,
                       restart_rngs[restart], /*record_history=*/true, ws));
    }
  } else {
    // Best-of-K restarts are embarrassingly parallel: each gets a private
    // workspace, and the winner is chosen after the barrier in index order,
    // so ties break identically at every thread count.
    std::vector<RunResult> runs(config.num_restarts);
    ThreadPool::Global().ParallelFor(
        config.num_restarts, [&](int begin, int end) {
          for (int restart = begin; restart < end; ++restart) {
            PgdWorkspace restart_ws;
            runs[restart] =
                RunOnce(gram, eps, config, m, step, config.iterations,
                        restart_rngs[restart], /*record_history=*/true,
                        restart_ws);
          }
        });
    for (int restart = 0; restart < config.num_restarts; ++restart) {
      consider(std::move(runs[restart]));
    }
  }

  // Warm-started runs from caller-provided seed strategies (Section 4's
  // "initialize with an existing mechanism" option). For a valid ε-LDP seed,
  // z = row minima automatically satisfies both projection feasibility
  // conditions: sum_o min_u Q_ou <= sum_o Q_ou = 1 and
  // e^ε sum_o z_o >= sum_o Q_ou = 1.
  for (std::size_t i = 0; i < config.seed_strategies.size(); ++i) {
    const Matrix& seed_q = config.seed_strategies[i];
    WFM_CHECK_EQ(seed_q.cols(), n) << "seed strategy domain mismatch";
    InitialPoint init;
    init.q = seed_q;
    init.z.resize(seed_q.rows());
    for (int o = 0; o < seed_q.rows(); ++o) {
      double lo = seed_q(o, 0);
      for (int u = 1; u < n; ++u) lo = std::min(lo, seed_q(o, u));
      init.z[o] = std::max(0.0, lo);
    }
    Rng run_rng = rng.Fork();
    consider(RunOnce(gram, eps, config, m, step, config.iterations, run_rng,
                     /*record_history=*/true, ws, &init));
  }
  LastObjective().Set(out.objective);
  return out;
}

double TimeOneIteration(const Matrix& gram, double eps, int m, Rng& rng) {
  const int n = gram.rows();
  Vector z;
  ProjectionResult proj = RandomInitialStrategy(m, n, eps, rng, &z);
  ScopedTimer span(ProbeIterationDuration());
  ObjectiveEvaluation eval = EvalObjectiveAndGradient(proj.q, gram);
  Matrix r = proj.q;
  r -= eval.gradient;  // Unit step; magnitude is irrelevant for timing.
  ProjectionResult next = ProjectOntoLdpPolytope(r, z, eps);
  // Touch the output so the work cannot be elided.
  volatile double sink = next.q(0, 0) + eval.value;
  (void)sink;
  return static_cast<double>(span.Stop()) * 1e-9;
}

}  // namespace wfm
