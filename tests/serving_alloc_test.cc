// Asserts the serving path's allocation contract with a counting global
// allocator (the same one optimizer_alloc_test uses, here also counting
// bytes):
//   * StrategyReporter / FactoredStrategyReporter::Respond allocate nothing
//     after construction — a report is one alias draw per factor;
//   * Plan::StartSession allocates O(m) bytes (the session's aggregator),
//     never a copy of the n x m decoder or the strategy: sessions share the
//     plan's immutable objects, so the decoder's WNNLS Lipschitz constant is
//     computed by one power iteration per plan, not one per session;
//   * a categorical AcceptBatch allocates bytes that do not depend on m, so
//     a short batch over a 2^20-output alphabet does not zero and scan an
//     O(m) scratch.
//
// Under ASan/TSan the allocator is intercepted by the sanitizer runtime, so
// the overrides are compiled out and the suite self-skips — the plain Debug
// and Release CI builds are the enforcing configurations.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "api/plan.h"
#include "collect/sharded_aggregator.h"
#include "ldp/reporter.h"
#include "linalg/rng.h"
#include "mechanisms/randomized_response.h"
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
std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_bytes{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // WFM_COUNTING_ALLOCATOR

namespace wfm {
namespace {

#if WFM_COUNTING_ALLOCATOR
/// Allocations and bytes requested while `body` runs.
template <typename Body>
std::pair<std::size_t, std::size_t> Allocated(Body&& body) {
  const std::size_t count = g_allocations.load(std::memory_order_relaxed);
  const std::size_t bytes = g_bytes.load(std::memory_order_relaxed);
  body();
  return {g_allocations.load(std::memory_order_relaxed) - count,
          g_bytes.load(std::memory_order_relaxed) - bytes};
}
#endif

TEST(ServingAllocTest, RespondAllocatesNothingAfterConstruction) {
#if !WFM_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under sanitizers";
#else
  const StrategyReporter flat(
      RandomizedResponseMechanism::BuildStrategy(16, 1.0));
  const FactoredStrategyReporter factored(
      {RandomizedResponseMechanism::BuildStrategy(4, 0.3),
       RandomizedResponseMechanism::BuildStrategy(8, 0.3),
       RandomizedResponseMechanism::BuildStrategy(5, 0.4)});
  ASSERT_EQ(factored.num_types(), 160);
  Rng rng(11);
  int sink = 0;
  const auto [flat_count, flat_bytes] = Allocated([&] {
    for (int t = 0; t < 1000; ++t) sink += flat.Respond(t % 16, rng).index;
  });
  const auto [factored_count, factored_bytes] = Allocated([&] {
    for (int t = 0; t < 1000; ++t) sink += factored.Respond(t % 160, rng).index;
  });
  EXPECT_GT(sink, 0);
  EXPECT_EQ(flat_count, 0u) << flat_bytes << " bytes";
  EXPECT_EQ(factored_count, 0u) << factored_bytes << " bytes";
#endif
}

TEST(ServingAllocTest, StartSessionAllocatesTheAggregatorNotTheDecoder) {
#if !WFM_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under sanitizers";
#else
  const int n = 128;
  const StatusOr<Plan> plan = Plan::For(std::make_shared<PrefixWorkload>(n))
                                  .Epsilon(1.0)
                                  .Mechanism("Hadamard")
                                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::size_t m =
      static_cast<std::size_t>(plan.value().Client().num_outputs());
  // Warm-up: first-use metric registrations and the like.
  plan.value().StartSession(1);
  std::unique_ptr<PlanSession> session;
  const auto [count, bytes] =
      Allocated([&] { session = plan.value().StartSession(1); });
  ASSERT_NE(session, nullptr);
  // One shard's m int64 counters, plus fixed per-session bookkeeping; a
  // copy of the n x m decode factor alone would be 8·n·m bytes.
  const std::size_t decoder_bytes = sizeof(double) * n * m;
  EXPECT_LE(bytes, sizeof(std::int64_t) * m + 4096)
      << count << " allocations; one decoder copy is " << decoder_bytes;
  EXPECT_LT(bytes, decoder_bytes / 16);
#endif
}

TEST(ServingAllocTest, GramLipschitzPowerIterationRunsOncePerPlan) {
#if !WFM_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under sanitizers";
#else
  const StatusOr<Plan> plan = Plan::For(std::make_shared<PrefixWorkload>(64))
                                  .Epsilon(1.0)
                                  .Mechanism("Hadamard")
                                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::unique_ptr<PlanSession> first = plan.value().StartSession(1);
  double computed = 0.0;
  const std::size_t power_iteration = Allocated([&] {
    computed = first->session().decoder().GramLipschitz();
  }).first;
  ASSERT_GT(power_iteration, 0u) << "test premise: the power iteration "
                                    "allocates its iterate vectors";

  std::unique_ptr<PlanSession> second = plan.value().StartSession(1);
  double cached = 0.0;
  const std::size_t second_session = Allocated([&] {
    cached = second->session().decoder().GramLipschitz();
  }).first;
  EXPECT_EQ(second_session, 0u) << "a new session re-ran the power iteration";
  EXPECT_EQ(cached, computed);
#endif
}

TEST(ServingAllocTest, CategoricalBatchBytesDoNotDependOnM) {
#if !WFM_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under sanitizers";
#else
  const int k = 256;
  auto batch_bytes = [&](int m) {
    ShardedAggregator aggregator(m, /*num_shards=*/1);
    std::vector<Report> reports(k);
    std::vector<int> responses(k);
    for (int i = 0; i < k; ++i) {
      responses[i] = (i * 7919) % m;
      reports[i].index = responses[i];
    }
    aggregator.AcceptBatch(0, reports);  // Warm-up (metric registration).
    aggregator.AcceptBatch(0, responses);
    const std::size_t accept = Allocated([&] {
      aggregator.AcceptBatch(0, reports);
    }).second;
    const std::size_t add = Allocated([&] {
      aggregator.AcceptBatch(0, responses);
    }).second;
    EXPECT_EQ(aggregator.num_responses(), 4 * k);
    return std::pair<std::size_t, std::size_t>(accept, add);
  };
  const auto medium = batch_bytes(1 << 12);
  const auto large = batch_bytes(1 << 20);
  EXPECT_EQ(medium.first, large.first) << "AcceptBatch(Reports)";
  EXPECT_EQ(medium.second, large.second) << "AcceptBatch(ints)";
  EXPECT_LT(large.first, sizeof(std::int64_t) * k);
  EXPECT_LT(large.second, sizeof(std::int64_t) * k);
#endif
}

}  // namespace
}  // namespace wfm
