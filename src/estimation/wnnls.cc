#include "estimation/wnnls.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "linalg/kron.h"
#include "linalg/symmetric_eigen.h"

namespace wfm {
namespace {

/// max_i violation of the KKT conditions for min_{x>=0} f(x):
/// grad_i >= -tol when x_i == 0 and |grad_i| <= tol when x_i > 0.
double KktResidual(const Vector& x, const Vector& grad) {
  double worst = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] > 0.0) {
      worst = std::max(worst, std::abs(grad[i]));
    } else {
      worst = std::max(worst, std::max(0.0, -grad[i]));
    }
  }
  return worst;
}

}  // namespace

WnnlsResult SolveWnnls(const GramOperator& gram_op, std::int64_t n64,
                       const Vector& rhs, const WnnlsOptions& options,
                       const Vector* warm_start) {
  const std::size_t n = static_cast<std::size_t>(n64);
  WFM_CHECK_GE(n64, 0);
  WFM_CHECK_EQ(rhs.size(), n);
  WFM_CHECK_GT(options.lipschitz, 0.0)
      << "operator-form WNNLS needs an explicit Lipschitz constant "
         "(2 λ_max(G)); ReportDecoder::GramLipschitz() provides it";
  const double step = 1.0 / options.lipschitz;

  WnnlsResult result;
  Vector x(n, 0.0);
  if (warm_start != nullptr) {
    WFM_CHECK_EQ(warm_start->size(), n);
    for (std::size_t i = 0; i < n; ++i) x[i] = std::max(0.0, (*warm_start)[i]);
  }
  Vector momentum = x;  // FISTA extrapolation point.
  double t_prev = 1.0;

  // Tolerance scaled to the problem: gradient entries are O(||r||_inf).
  const double tol = options.tolerance * std::max(1.0, MaxAbsVec(rhs));

  // Iteration buffers, hoisted so the loop reuses them (the dense operator
  // uses the pooled matvec kernel for large grams).
  Vector grad(n), x_next(n), gx(n);
  for (int it = 0; it < options.max_iterations; ++it) {
    // Gradient step at the extrapolated point.
    gram_op(momentum, grad);
    for (std::size_t i = 0; i < n; ++i) grad[i] = 2.0 * (grad[i] - rhs[i]);
    for (std::size_t i = 0; i < n; ++i) {
      x_next[i] = std::max(0.0, momentum[i] - step * grad[i]);
    }

    // Adaptive restart (O'Donoghue & Candès): drop momentum when it points
    // against the descent direction.
    double restart_test = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      restart_test += (momentum[i] - x_next[i]) * (x_next[i] - x[i]);
    }
    double t_next;
    if (restart_test > 0.0) {
      t_next = 1.0;
      momentum = x_next;
    } else {
      t_next = 0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t_prev * t_prev));
      const double gamma = (t_prev - 1.0) / t_next;
      for (std::size_t i = 0; i < n; ++i) {
        momentum[i] = x_next[i] + gamma * (x_next[i] - x[i]);
      }
    }
    std::swap(x, x_next);
    t_prev = t_next;
    result.iterations = it + 1;

    // Check KKT at x every few iterations (gradient at x, not momentum).
    if ((it & 15) == 0 || it + 1 == options.max_iterations) {
      gram_op(x, gx);
      for (std::size_t i = 0; i < n; ++i) gx[i] = 2.0 * (gx[i] - rhs[i]);
      result.kkt_residual = KktResidual(x, gx);
      if (result.kkt_residual <= tol) {
        result.converged = true;
        break;
      }
    }
  }
  result.x = std::move(x);
  gram_op(result.x, gx);
  result.objective = Dot(result.x, gx) - 2.0 * Dot(rhs, result.x);
  return result;
}

WnnlsResult SolveWnnlsFromGram(const Matrix& gram, const Vector& rhs,
                               const WnnlsOptions& options,
                               const Vector* warm_start) {
  const int n = gram.rows();
  WFM_CHECK_EQ(gram.cols(), n);
  WFM_CHECK_EQ(static_cast<int>(rhs.size()), n);

  // Lipschitz constant of the gradient: 2 λ_max(G). Callers with a cached
  // value (ReportDecoder) pass it in and skip the power iteration.
  const double lip = options.lipschitz > 0.0
                         ? options.lipschitz
                         : 2.0 * PowerIterationLargestEigenvalue(gram);
  if (lip <= 0.0) {
    // G = 0: any non-negative x is optimal.
    WnnlsResult result;
    result.x.assign(n, 0.0);
    result.converged = true;
    return result;
  }
  WnnlsOptions opts = options;
  opts.lipschitz = lip;
  return SolveWnnls(
      [&gram](const Vector& v, Vector& out) { MultiplyVecInto(gram, v, out); },
      n, rhs, opts, warm_start);
}

WnnlsResult WnnlsEstimate(const ReportDecoder& decoder, const Vector& aggregate,
                          std::int64_t num_reports,
                          const WnnlsOptions& options) {
  const Vector unbiased = decoder.EstimateDataVector(aggregate, num_reports);
  WnnlsOptions opts = options;
  if (opts.lipschitz <= 0.0) opts.lipschitz = decoder.GramLipschitz();
  if (decoder.factored()) {
    // G = ⊗ G_i exists only as an operator; both the rhs and the iteration
    // run through the Kronecker vec-trick.
    std::vector<const Matrix*> grams;
    grams.reserve(decoder.workload_stats().factors.size());
    for (const WorkloadStats& f : decoder.workload_stats().factors) {
      grams.push_back(&f.gram);
    }
    Vector scratch;
    Vector rhs;
    KroneckerMatVecInto(grams, unbiased, rhs, scratch);
    auto op = [&grams, &scratch](const Vector& v, Vector& out) {
      KroneckerMatVecInto(grams, v, out, scratch);
    };
    return SolveWnnls(op, decoder.n(), rhs, opts, &unbiased);
  }
  const Matrix& gram = decoder.workload_stats().gram;
  const Vector rhs = MultiplyVec(gram, unbiased);
  return SolveWnnlsFromGram(gram, rhs, opts, &unbiased);
}

}  // namespace wfm
