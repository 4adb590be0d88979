// Kernel-equivalence suite: the packed/pooled product kernels against a
// plain triple-loop oracle written here, and the view products (AᵀBᵀ, a
// column panel of A·B) bit for bit against their explicit forms.
//
// The packed kernels accumulate k panels in ascending order but group the
// additions differently from a single running sum, so results agree to
// round-off (tolerance scales with the inner length), and are bit-identical
// across thread counts (each output tile is produced by exactly one thread).
// Shapes deliberately cover the ragged edges of the blocking: 1x1, single
// rows/columns, the kMr/kNr tails (17/33/65), empty dimensions, and sizes on
// both sides of the packed-path and thread-pool thresholds.

#include <cstring>
#include <vector>

#include "gtest/gtest.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "linalg/rng.h"
#include "linalg/thread_pool.h"

namespace wfm {
namespace {

Matrix RandomMatrix(int rows, int cols, Rng& rng) {
  Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    double* row = m.RowPtr(r);
    for (int c = 0; c < cols; ++c) row[c] = rng.Uniform(-1.0, 1.0);
  }
  return m;
}

Vector RandomVector(int n, Rng& rng) {
  Vector v(n);
  for (double& x : v) x = rng.Uniform(-1.0, 1.0);
  return v;
}

/// The oracle: C = A B, one ascending running sum per entry. AᵀB and ABᵀ
/// go through an explicit (exact) Transpose first.
Matrix NaiveMultiply(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.cols(); ++j) {
      double sum = 0.0;
      for (int p = 0; p < a.cols(); ++p) sum += a(i, p) * b(p, j);
      c(i, j) = sum;
    }
  }
  return c;
}

Vector NaiveMultiplyVec(const Matrix& a, const Vector& x) {
  Vector y(a.rows(), 0.0);
  for (int i = 0; i < a.rows(); ++i) {
    for (int p = 0; p < a.cols(); ++p) y[i] += a(i, p) * x[p];
  }
  return y;
}

/// Round-off budget for reordered sums of k terms in [-1, 1].
double Tolerance(int k) { return 1e-13 * std::max(1, k); }

struct Shape {
  int m, k, n;
};

// 1x1 and single-row/column cases, kMr=4 / kNr=8 tail sizes (17/33/65),
// empty dimensions, shapes under the packed-path threshold, over it, and
// (192³ ≈ 7.1e6 flops) over the thread-pool threshold. {65, 400, 33} spans
// multiple k panels (ragged last panel); {100, 500, 390} additionally spans
// two n panels, exercising the packed-A reuse across n panels.
const Shape kShapes[] = {
    {1, 1, 1},    {1, 7, 1},    {1, 64, 64},   {5, 1, 3},
    {17, 17, 17}, {33, 17, 65}, {65, 33, 17},  {64, 64, 64},
    {0, 5, 4},    {4, 0, 5},    {128, 96, 65}, {192, 192, 192},
    {65, 400, 33}, {100, 500, 390},
};

TEST(MatrixKernelsTest, MultiplyMatchesReference) {
  Rng rng(101);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.m, s.k, rng);
    const Matrix b = RandomMatrix(s.k, s.n, rng);
    const Matrix got = Multiply(a, b);
    const Matrix want = NaiveMultiply(a, b);
    EXPECT_EQ(got.rows(), s.m);
    EXPECT_EQ(got.cols(), s.n);
    EXPECT_TRUE(got.ApproxEquals(want, Tolerance(s.k)))
        << "shape " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(MatrixKernelsTest, MultiplyATBMatchesReference) {
  Rng rng(102);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.k, s.m, rng);  // shared dim is a.rows().
    const Matrix b = RandomMatrix(s.k, s.n, rng);
    const Matrix got = MultiplyATB(a, b);
    const Matrix want = NaiveMultiply(a.Transpose(), b);
    EXPECT_TRUE(got.ApproxEquals(want, Tolerance(s.k)))
        << "shape " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(MatrixKernelsTest, MultiplyABTMatchesReference) {
  Rng rng(103);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.m, s.k, rng);
    const Matrix b = RandomMatrix(s.n, s.k, rng);  // shared dim is b.cols().
    const Matrix got = MultiplyABT(a, b);
    const Matrix want = NaiveMultiply(a, b.Transpose());
    EXPECT_TRUE(got.ApproxEquals(want, Tolerance(s.k)))
        << "shape " << s.m << "x" << s.k << "x" << s.n;
  }
}

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// The view products read the same operands in the same order as their
/// explicit forms, so they agree bit for bit, not just to round-off.
TEST(MatrixKernelsTest, MultiplyATBTBitIdenticalToMaterializedTranspose) {
  Rng rng(111);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.k, s.m, rng);  // shared dim is a.rows().
    const Matrix b = RandomMatrix(s.n, s.k, rng);  // shared dim is b.cols().
    EXPECT_TRUE(BitwiseEqual(MultiplyATBT(a, b), MultiplyATB(a, b.Transpose())))
        << "shape " << s.m << "x" << s.k << "x" << s.n;
  }
}

/// Column panels of A·B, ragged or not, on either side of the packed-path
/// threshold and of the core's kGemmPanelCols blocking. Panels computed on
/// the default pool and on a one-thread pool both match the default pool's
/// full product.
TEST(MatrixKernelsTest, MultiplyColumnsBitIdenticalToSlicedMultiply) {
  struct PanelCase {
    Shape shape;
    std::vector<int> cuts;  // Panel edges, ascending from 0 to shape.n.
  };
  const int w = kGemmPanelCols;
  const PanelCase cases[] = {
      {{1, 1, 1}, {0, 1}},
      {{17, 33, 65}, {0, 8, 9, 40, 65}},
      {{65, 400, 33}, {0, 33}},
      {{30, 150, 2 * w + 50}, {0, w, 2 * w, 2 * w + 50}},
      {{100, 500, 2 * w + 7}, {0, 3, w - 1, w + 1, 2 * w, 2 * w + 7}},
      {{4, 5, 1000}, {0, w, 2 * w, 1000}},
      {{0, 5, 4}, {0, 4}},
  };
  Rng rng(112);
  ThreadPool serial(1);
  for (const PanelCase& pc : cases) {
    const Shape& s = pc.shape;
    const Matrix a = RandomMatrix(s.m, s.k, rng);
    const Matrix b = RandomMatrix(s.k, s.n, rng);
    const Matrix full = Multiply(a, b);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &serial}) {
      ThreadPool::SetGlobal(pool);
      Matrix panel;
      for (std::size_t p = 0; p + 1 < pc.cuts.size(); ++p) {
        const int j0 = pc.cuts[p];
        const int j1 = pc.cuts[p + 1];
        MultiplyColumnsInto(a, b, j0, j1, panel);
        Matrix want(s.m, j1 - j0);
        for (int i = 0; i < s.m; ++i) {
          for (int j = j0; j < j1; ++j) want(i, j - j0) = full(i, j);
        }
        EXPECT_TRUE(BitwiseEqual(panel, want))
            << "shape " << s.m << "x" << s.k << "x" << s.n << " columns ["
            << j0 << ", " << j1 << ")" << (pool ? " on 1 thread" : "");
      }
      ThreadPool::SetGlobal(nullptr);
    }
  }
}

TEST(MatrixKernelsTest, MatVecKernelsMatchReference) {
  Rng rng(104);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.m, s.k, rng);
    const Vector x = RandomVector(s.k, rng);
    const Vector y_got = MultiplyVec(a, x);
    const Vector y_want = NaiveMultiplyVec(a, x);
    ASSERT_EQ(y_got.size(), y_want.size());
    for (std::size_t i = 0; i < y_got.size(); ++i) {
      EXPECT_NEAR(y_got[i], y_want[i], Tolerance(s.k));
    }
    const Vector xt = RandomVector(s.m, rng);
    const Vector t_got = MultiplyTVec(a, xt);
    const Vector t_want = NaiveMultiplyVec(a.Transpose(), xt);
    ASSERT_EQ(t_got.size(), t_want.size());
    for (std::size_t i = 0; i < t_got.size(); ++i) {
      EXPECT_NEAR(t_got[i], t_want[i], Tolerance(s.m));
    }
  }
}

TEST(MatrixKernelsTest, IntoVariantsReuseCallerBuffer) {
  Rng rng(105);
  Matrix c;
  // Shrinking then growing through different shapes must always produce the
  // same values as the fresh-allocation path.
  for (const Shape& s :
       {Shape{64, 64, 64}, Shape{17, 33, 9}, Shape{128, 96, 65}}) {
    const Matrix a = RandomMatrix(s.m, s.k, rng);
    const Matrix b = RandomMatrix(s.k, s.n, rng);
    MultiplyInto(a, b, c);
    const Matrix want = Multiply(a, b);
    EXPECT_EQ(c.rows(), want.rows());
    EXPECT_EQ(c.cols(), want.cols());
    EXPECT_TRUE(c.ApproxEquals(want, 0.0)) << "Into differs from value form";
  }
  Vector y;
  const Matrix a = RandomMatrix(40, 30, rng);
  const Vector x = RandomVector(30, rng);
  MultiplyVecInto(a, x, y);
  const Vector want = MultiplyVec(a, x);
  ASSERT_EQ(y.size(), want.size());
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], want[i]);
}

TEST(MatrixKernelsTest, TransposeIntoMatchesTranspose) {
  Rng rng(106);
  const Matrix a = RandomMatrix(37, 53, rng);
  Matrix t;
  TransposeInto(a, t);
  EXPECT_TRUE(t.ApproxEquals(a.Transpose(), 0.0));
}

TEST(MatrixKernelsTest, CholeskySolveInPlaceMatchesColumnwiseSolve) {
  Rng rng(107);
  const int n = 96;
  const Matrix a = RandomMatrix(n, n, rng);
  Matrix spd = MultiplyATB(a, a);
  for (int i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  Cholesky chol;
  ASSERT_TRUE(chol.Factorize(spd));

  const Matrix b = RandomMatrix(n, 70, rng);
  Matrix x = b;
  chol.SolveInPlace(x);
  for (int c = 0; c < b.cols(); ++c) {
    const Vector col = chol.Solve(b.Col(c));
    for (int r = 0; r < n; ++r) {
      EXPECT_NEAR(x(r, c), col[r], 1e-9) << "column " << c;
    }
  }
}

/// The pooled kernels must be bit-identical for any thread count: every
/// output tile is computed by exactly one thread in a fixed k order.
TEST(MatrixKernelsTest, ProductsBitIdenticalAcrossThreadCounts) {
  Rng rng(108);
  // Over both the packed (32k flops) and the pool (4e6 flops) thresholds.
  const Matrix a = RandomMatrix(200, 170, rng);
  const Matrix b = RandomMatrix(170, 190, rng);
  const Matrix tall = RandomMatrix(200, 190, rng);

  ThreadPool serial(1);
  ThreadPool::SetGlobal(&serial);
  const Matrix c1 = Multiply(a, b);
  const Matrix atb1 = MultiplyATB(a, tall);

  ThreadPool wide(4);
  ThreadPool::SetGlobal(&wide);
  const Matrix c4 = Multiply(a, b);
  const Matrix atb4 = MultiplyATB(a, tall);
  ThreadPool::SetGlobal(nullptr);

  ASSERT_EQ(c1.size(), c4.size());
  EXPECT_EQ(0, std::memcmp(c1.data(), c4.data(), c1.size() * sizeof(double)));
  ASSERT_EQ(atb1.size(), atb4.size());
  EXPECT_EQ(0, std::memcmp(atb1.data(), atb4.data(),
                           atb1.size() * sizeof(double)));
}

}  // namespace
}  // namespace wfm
