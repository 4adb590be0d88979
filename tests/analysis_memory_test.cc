// Asserts the factorization analysis's memory contract with a counting
// global allocator that tracks live and peak heap bytes: a plan build holds
// at its peak only what the plan keeps. Counted in n x m matrices of
// doubles, the FactorizationAnalysis constructor holds one (B, solved in
// place; the strategy is read, never copied), and StrategyMechanism::Deploy
// holds B plus the reporter's alias tables (12 bytes per entry, 1.5
// matrices) — the decoder takes B over instead of copying it.
//
// The n x n terms are budgeted from what the design holds, plus one n x n
// of slack. The constructor holds its copy of the Gram and at most two
// n x n temporaries at once (A and its Cholesky factor, the factor and the
// objective's solve, B·Q and G·B·Q): 4 n² with the slack. After the
// analysis, Deploy holds only the Gram it hands the decoder: 2 n². At this
// fixture (m = 2n) a looser 8 n² allowance would be 4 n x m matrices, enough
// to let a full copy of Q or of B through unnoticed.
//
// Under ASan/TSan the allocator is intercepted by the sanitizer runtime, so
// the overrides are compiled out and the suite self-skips — the plain Debug
// and Release CI builds are the enforcing configurations.

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "gtest/gtest.h"
#include "core/factorization.h"
#include "mechanisms/hadamard_response.h"
#include "workload/prefix.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define WFM_COUNTING_ALLOCATOR 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define WFM_COUNTING_ALLOCATOR 0
#else
#define WFM_COUNTING_ALLOCATOR 1
#endif
#else
#define WFM_COUNTING_ALLOCATOR 1
#endif

#if WFM_COUNTING_ALLOCATOR

namespace {
std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};

// Each block carries its size in a header so the unsized deletes can
// subtract it; the header keeps malloc's 16-byte alignment.
constexpr std::size_t kHeader = 16;

void* TrackedAlloc(std::size_t size) {
  void* base = std::malloc(size + kHeader);
  if (base == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(base) = size;
  const std::size_t live =
      g_live.fetch_add(size, std::memory_order_relaxed) + size;
  std::size_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return static_cast<char*>(base) + kHeader;
}

void TrackedFree(void* p) noexcept {
  if (p == nullptr) return;
  void* base = static_cast<char*>(p) - kHeader;
  g_live.fetch_sub(*static_cast<std::size_t*>(base), std::memory_order_relaxed);
  std::free(base);
}
}  // namespace

void* operator new(std::size_t size) { return TrackedAlloc(size); }
void* operator new[](std::size_t size) { return TrackedAlloc(size); }
void operator delete(void* p) noexcept { TrackedFree(p); }
void operator delete[](void* p) noexcept { TrackedFree(p); }
void operator delete(void* p, std::size_t) noexcept { TrackedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { TrackedFree(p); }

#endif  // WFM_COUNTING_ALLOCATOR

namespace wfm {
namespace {

#if WFM_COUNTING_ALLOCATOR
/// Peak live heap bytes above the starting level while `body` runs,
/// counting whatever `body` leaves allocated.
template <typename Body>
std::size_t PeakBytes(Body&& body) {
  const std::size_t base = g_live.load(std::memory_order_relaxed);
  g_peak.store(base, std::memory_order_relaxed);
  body();
  return g_peak.load(std::memory_order_relaxed) - base;
}
#endif

class AnalysisMemoryTest : public ::testing::Test {
 protected:
  static constexpr int kN = 256;
  AnalysisMemoryTest()
      : mechanism_(kN, 1.0),
        stats_(WorkloadStats::From(PrefixWorkload(kN))),
        m_(mechanism_.strategy().rows()) {}

  /// Budget in bytes for `mn` n x m matrices plus `nn` n x n ones.
  std::size_t Budget(double mn, double nn) const {
    const double doubles = mn * m_ * kN + nn * kN * kN;
    return static_cast<std::size_t>(doubles * sizeof(double));
  }

  double InMatrices(std::size_t bytes) const {
    return static_cast<double>(bytes) / (sizeof(double) * m_ * kN);
  }

  const HadamardResponseMechanism mechanism_;
  const WorkloadStats stats_;
  const int m_;
};

TEST_F(AnalysisMemoryTest, ConstructorHoldsOneStrategySizedMatrix) {
#if !WFM_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under sanitizers";
#else
  ASSERT_EQ(m_, 2 * kN) << "fixture premise: Hadamard pads to m = 512";
  // Warm-up: the thread pool and the thread-local GEMM packing buffers.
  { const FactorizationAnalysis warm(mechanism_.strategy(), stats_); }
  const std::size_t peak = PeakBytes([&] {
    const FactorizationAnalysis fa(mechanism_.strategy(), stats_);
    EXPECT_GT(fa.Objective(), 0.0);
  });
  RecordProperty("peak_bytes", static_cast<int>(peak));
  EXPECT_LE(peak, Budget(1.0, 4.0))
      << "constructor peak " << peak << " bytes = " << InMatrices(peak)
      << " n x m matrices";
#endif
}

TEST_F(AnalysisMemoryTest, DeployHoldsReconstructionAndAliasTables) {
#if !WFM_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under sanitizers";
#else
  { const StatusOr<Deployment> warm = mechanism_.Deploy(stats_); }
  const std::size_t peak = PeakBytes([&] {
    const StatusOr<Deployment> deployment = mechanism_.Deploy(stats_);
    ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
  });
  RecordProperty("peak_bytes", static_cast<int>(peak));
  EXPECT_LE(peak, Budget(2.5, 2.0))
      << "Deploy peak " << peak << " bytes = " << InMatrices(peak)
      << " n x m matrices";
#endif
}

}  // namespace
}  // namespace wfm
