// Tests for the collect/ subsystem: exact sharded aggregation, deterministic
// merges under multi-threaded ingestion, exact epoch cuts while ingestion
// keeps running, window sums, and estimate-cache invalidation.
//
// The core invariant pinned down here: for the same report stream,
// ShardedAggregator::Merge() is bit-identical to the stream's response
// histogram counted in the test — counts are integers, so no shard
// assignment, batch split, or thread interleaving can change the merged
// histogram. Threaded tests run with >= 4 ingest threads and are exercised
// under TSan in CI.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "collect/collection_session.h"
#include "collect/estimate_server.h"
#include "collect/sharded_aggregator.h"
#include "estimation/estimator.h"
#include "ldp/reporter.h"
#include "linalg/rng.h"
#include "mechanisms/randomized_response.h"
#include "obs/metrics.h"
#include "workload/histogram.h"
#include "workload/prefix.h"

namespace wfm {
namespace {

constexpr int kIngestThreads = 4;  // Acceptance: >= 4 threads under TSan.

// Deterministic pseudo-report stream over an alphabet of size m.
std::vector<int> MakeReports(int m, int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<int> reports(count);
  for (int& r : reports) r = rng.UniformInt(m);
  return reports;
}

// The exact response histogram y_o = #{reports == o}, counted serially.
Vector SerialHistogram(int m, const std::vector<int>& reports) {
  std::vector<std::int64_t> counts(m, 0);
  for (const int r : reports) ++counts[r];
  return Vector(counts.begin(), counts.end());
}

Report IndexReport(int index) {
  Report r;
  r.index = index;
  return r;
}

Report DenseReport(Vector v) {
  Report r;
  r.dense = std::move(v);
  return r;
}

Report BitsReport(std::vector<std::uint8_t> bits) {
  Report r;
  r.bits = std::move(bits);
  return r;
}

// A single report is a batch of one at every layer.
template <typename Sink>
void AcceptOne(Sink& sink, int shard, const Report& report) {
  sink.AcceptBatch(shard, std::span<const Report>(&report, 1));
}

std::unique_ptr<CollectionSession> MakeSession(int n, int num_shards) {
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(n, 1.0);
  auto workload = std::make_shared<const HistogramWorkload>(n);
  auto decoder = std::make_shared<const ReportDecoder>(
      ReportDecoder::FromAnalysis(
          FactorizationAnalysis(q, WorkloadStats::From(*workload))));
  return std::make_unique<CollectionSession>(
      std::move(decoder), std::move(workload), num_shards);
}

// Death tests first (gtest runs *DeathTest suites before the rest, while no
// helper threads are alive).
TEST(CollectDeathTest, RejectsOutOfRangeResponses) {
  ShardedAggregator agg(/*num_outputs=*/3, /*num_shards=*/2);
  EXPECT_DEATH(agg.AcceptBatch(0, std::vector<int>{3}),
               "response out of range");
  EXPECT_DEATH(agg.AcceptBatch(1, std::vector<int>{-1}),
               "response out of range");
  EXPECT_DEATH(AcceptOne(agg, 0, IndexReport(3)), "response out of range");
  EXPECT_DEATH(AcceptOne(agg, 1, IndexReport(-1)), "response out of range");
  const std::vector<int> batch{0, 1, 3};
  EXPECT_DEATH(agg.AcceptBatch(0, batch), "response out of range");
  const std::vector<int> negative{2, -1};
  EXPECT_DEATH(agg.AcceptBatch(1, negative), "response out of range");
}

TEST(CollectDeathTest, RejectsRaggedBitVectorBatches) {
  // A bit-vector batch holding one report of the wrong width aborts: this
  // layer ingests pre-validated streams (PlanSession rejects it first).
  const int m = 16;
  ShardedAggregator bad(m, /*num_shards=*/1, ReportKind::kBitVector);
  const std::vector<Report> ragged{
      BitsReport(std::vector<std::uint8_t>(m, 0)),
      BitsReport(std::vector<std::uint8_t>(m + 1, 0))};
  EXPECT_DEATH(bad.AcceptBatch(0, ragged), "WFM_CHECK");

  // Same for a dense batch, and for either kind's batch of one.
  ShardedAggregator dense(m, /*num_shards=*/1, ReportKind::kDense);
  const std::vector<Report> ragged_dense{DenseReport(Vector(m, 0.0)),
                                         DenseReport(Vector(m - 1, 0.0))};
  EXPECT_DEATH(dense.AcceptBatch(0, ragged_dense), "WFM_CHECK");
  EXPECT_DEATH(AcceptOne(dense, 0, DenseReport(Vector(m + 1, 0.0))),
               "WFM_CHECK");
  EXPECT_DEATH(AcceptOne(bad, 0, BitsReport(std::vector<std::uint8_t>(1, 0))),
               "WFM_CHECK");
}

TEST(CollectDeathTest, RejectsBadShardIds) {
  ShardedAggregator agg(/*num_outputs=*/3, /*num_shards=*/2);
  EXPECT_DEATH(agg.AcceptBatch(2, std::vector<int>{0}),
               "shard id out of range");
  EXPECT_DEATH(agg.AcceptBatch(-1, std::vector<int>{0}),
               "shard id out of range");
  EXPECT_DEATH(AcceptOne(agg, 2, IndexReport(0)), "shard id out of range");
  EXPECT_DEATH(agg.AcceptBatch(-1, std::vector<Report>{}),
               "shard id out of range");
}

TEST(CollectDeathTest, RejectsReportKindMismatches) {
  ShardedAggregator categorical(/*num_outputs=*/3, /*num_shards=*/1);
  EXPECT_DEATH(AcceptOne(categorical, 0, DenseReport({1.0, 0.0, -0.5})),
               "categorical");

  ShardedAggregator dense(/*num_outputs=*/3, /*num_shards=*/1,
                          ReportKind::kDense);
  EXPECT_DEATH(dense.AcceptBatch(0, std::vector<int>{1}), "dense");
  EXPECT_DEATH(AcceptOne(dense, 0, IndexReport(1)), "dense");
  EXPECT_DEATH(AcceptOne(dense, 0, DenseReport({1.0})), "WFM_CHECK");
}

TEST(EstimateServerTest, ServingRequiresASealedEpoch) {
  // "No data yet" is a recoverable service condition, not a crash.
  auto session = MakeSession(/*n=*/4, /*num_shards=*/2);
  EstimateServer server(session.get());
  const StatusOr<WorkloadEstimate> estimate =
      server.Serve(EstimatorKind::kUnbiased);
  ASSERT_FALSE(estimate.ok());
  EXPECT_EQ(estimate.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(estimate.status().message().find("no sealed epoch"),
            std::string::npos);
  EXPECT_EQ(server.ServeWindow(0, EstimatorKind::kUnbiased).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardedAggregatorTest, MergeMatchesSerialAggregation) {
  const int m = 32;
  const std::vector<int> reports = MakeReports(m, 100000, /*seed=*/41);

  ShardedAggregator sharded(m, /*num_shards=*/8);
  // Round-robin batches of uneven sizes across shards.
  std::size_t pos = 0;
  int shard = 0;
  std::size_t batch = 1;
  while (pos < reports.size()) {
    const std::size_t len = std::min(batch, reports.size() - pos);
    sharded.AcceptBatch(shard, std::span<const int>(&reports[pos], len));
    pos += len;
    shard = (shard + 1) % sharded.num_shards();
    batch = batch % 997 + 13;
  }

  EXPECT_EQ(sharded.Merge(), SerialHistogram(m, reports));  // Bit-identical.
  EXPECT_EQ(sharded.num_responses(), static_cast<std::int64_t>(reports.size()));
}

TEST(ShardedAggregatorTest, ConcurrentMergeIsExactAndDeterministic) {
  const int m = 16;
  const std::vector<int> reports = MakeReports(m, 200000, /*seed=*/42);
  const Vector expected = SerialHistogram(m, reports);

  for (int round = 0; round < 3; ++round) {  // Determinism across rounds.
    ShardedAggregator sharded(m, kIngestThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kIngestThreads; ++t) {
      threads.emplace_back([&, t] {
        // Thread t owns slice t and feeds it through its own shard in
        // batches, concurrently with the other threads.
        const std::size_t begin = reports.size() * t / kIngestThreads;
        const std::size_t end = reports.size() * (t + 1) / kIngestThreads;
        for (std::size_t pos = begin; pos < end; pos += 1024) {
          const std::size_t len = std::min<std::size_t>(1024, end - pos);
          sharded.AcceptBatch(t, std::span<const int>(&reports[pos], len));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(sharded.Merge(), expected) << "round " << round;
    EXPECT_EQ(sharded.num_responses(),
              static_cast<std::int64_t>(reports.size()));
  }
}

TEST(ShardedAggregatorTest, ManyThreadsMayShareOneShard) {
  // The one-shard-per-worker layout is a performance choice, not a safety
  // requirement: shards are internally atomic.
  const int m = 8;
  const std::vector<int> reports = MakeReports(m, 80000, /*seed=*/43);
  ShardedAggregator sharded(m, /*num_shards=*/1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kIngestThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t begin = reports.size() * t / kIngestThreads;
      const std::size_t end = reports.size() * (t + 1) / kIngestThreads;
      sharded.AcceptBatch(0,
                          std::span<const int>(&reports[begin], end - begin));
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(sharded.Merge(), SerialHistogram(m, reports));
}

TEST(ShardedAggregatorTest, DenseMergeSumsReportsCoordinatewise) {
  ShardedAggregator agg(/*num_outputs=*/3, /*num_shards=*/2,
                        ReportKind::kDense);
  AcceptOne(agg, 0, DenseReport({1.0, -2.0, 0.5}));
  AcceptOne(agg, 1, DenseReport({0.25, 1.0, -0.5}));
  AcceptOne(agg, 0, DenseReport({0.0, 1.0, 3.0}));
  EXPECT_EQ(agg.Merge(), (Vector{1.25, 0.0, 3.0}));
  EXPECT_EQ(agg.num_responses(), 3);
}

TEST(ShardedAggregatorTest, ConcurrentDenseMergeIsExactForIntegerReports) {
  // Integer-valued coordinates keep floating-point addition exact, so the
  // concurrent dense merge must equal the serial sum bit for bit.
  const int m = 8;
  const int reports_per_thread = 20000;
  std::vector<std::vector<Report>> streams(kIngestThreads);
  Vector expected(m, 0.0);
  for (int t = 0; t < kIngestThreads; ++t) {
    Rng rng(300 + t);
    for (int i = 0; i < reports_per_thread; ++i) {
      Vector values(m, 0.0);
      for (int o = 0; o < m; ++o) {
        values[o] = static_cast<double>(rng.UniformInt(7) - 3);
        expected[o] += values[o];
      }
      streams[t].push_back(DenseReport(std::move(values)));
    }
  }

  ShardedAggregator agg(m, kIngestThreads, ReportKind::kDense);
  std::vector<std::thread> threads;
  for (int t = 0; t < kIngestThreads; ++t) {
    threads.emplace_back([&, t] {
      // Mix shard ids so shards are genuinely contended.
      for (std::size_t i = 0; i < streams[t].size(); ++i) {
        AcceptOne(agg, static_cast<int>((t + i) % kIngestThreads),
                  streams[t][i]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(agg.Merge(), expected);
  EXPECT_EQ(agg.num_responses(),
            static_cast<std::int64_t>(kIngestThreads) * reports_per_thread);
}

TEST(CollectionSessionTest, SealUnderConcurrentIngestionConservesReports) {
  // Ingest threads stream fixed report sets while the main thread seals
  // epochs mid-flight. Every report must land in exactly one epoch: the
  // union of all sealed snapshots equals the serial aggregation of
  // everything sent — regardless of where the epoch cuts fell.
  const int n = 8;
  auto session = MakeSession(n, kIngestThreads);
  const int m = session->num_outputs();

  std::vector<std::vector<int>> streams;
  for (int t = 0; t < kIngestThreads; ++t) {
    streams.push_back(MakeReports(m, 60000, /*seed=*/100 + t));
  }

  std::atomic<int> threads_done{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kIngestThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::vector<int>& stream = streams[t];
      for (std::size_t pos = 0; pos < stream.size(); pos += 512) {
        const std::size_t len = std::min<std::size_t>(512, stream.size() - pos);
        session->AcceptBatch(t, std::span<const int>(&stream[pos], len));
      }
      threads_done.fetch_add(1);
    });
  }
  // Seal epochs while ingestion runs (at least one seal always happens, and
  // in practice many land mid-flight).
  int seals = 0;
  do {
    session->Seal();
    ++seals;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  } while (threads_done.load() < kIngestThreads);
  for (std::thread& t : threads) t.join();
  session->Seal();  // Flush whatever the last mid-flight seal missed.

  std::vector<int> all_reports;
  for (const auto& stream : streams) {
    all_reports.insert(all_reports.end(), stream.begin(), stream.end());
  }
  Vector sealed_total(m, 0.0);
  std::int64_t sealed_count = 0;
  for (int e = 0; e < session->epochs_sealed(); ++e) {
    const auto snapshot = session->Snapshot(e);
    EXPECT_EQ(snapshot->epoch_id, e);
    EXPECT_EQ(Sum(snapshot->histogram), static_cast<double>(snapshot->count));
    for (int o = 0; o < m; ++o) sealed_total[o] += snapshot->histogram[o];
    sealed_count += snapshot->count;
  }
  EXPECT_EQ(sealed_total, SerialHistogram(m, all_reports));
  EXPECT_EQ(sealed_count, static_cast<std::int64_t>(all_reports.size()));
  EXPECT_EQ(session->total_responses(), sealed_count);
  EXPECT_EQ(session->pending_responses(), 0);
  EXPECT_GE(seals, 1);
}

TEST(CollectionSessionTest, WindowTotalSumsTheLastKEpochs) {
  const int n = 4;
  auto session = MakeSession(n, /*num_shards=*/2);

  EXPECT_EQ(session->WindowTotal(3).epoch_id, -1);  // Nothing sealed yet.
  EXPECT_EQ(session->WindowTotal(3).count, 0);
  EXPECT_EQ(session->LatestSnapshot(), nullptr);

  // Epoch e ingests exactly e+1 reports of type e (m = n for RR).
  for (int e = 0; e < 3; ++e) {
    for (int j = 0; j <= e; ++j) AcceptOne(*session, j % 2, IndexReport(e));
    const EpochSnapshot sealed = session->Seal();
    EXPECT_EQ(sealed.epoch_id, e);
    EXPECT_EQ(sealed.count, e + 1);
    EXPECT_EQ(sealed.histogram[e], static_cast<double>(e + 1));
  }

  const EpochSnapshot last2 = session->WindowTotal(2);
  EXPECT_EQ(last2.epoch_id, 2);
  EXPECT_EQ(last2.count, 2 + 3);
  EXPECT_EQ(last2.histogram, (Vector{0, 2, 3, 0}));

  const EpochSnapshot all = session->WindowTotal(100);  // Clamped to history.
  EXPECT_EQ(all.count, 1 + 2 + 3);
  EXPECT_EQ(all.histogram, (Vector{1, 2, 3, 0}));

  EXPECT_EQ(session->LatestSnapshot()->epoch_id, 2);
  EXPECT_EQ(session->epochs_sealed(), 3);
  EXPECT_EQ(session->total_responses(), 6);
}

TEST(CollectionSessionTest, SessionsShareOneDecoderAcrossVersionsAndSessions) {
  const int n = 6;
  auto workload = std::make_shared<const HistogramWorkload>(n);
  const auto decoder = std::make_shared<const ReportDecoder>(
      ReportDecoder::FromAnalysis(FactorizationAnalysis(
          RandomizedResponseMechanism::BuildStrategy(n, 1.0),
          WorkloadStats::From(*workload))));
  CollectionSession first(decoder, workload, /*num_shards=*/1);
  CollectionSession second(decoder, workload, /*num_shards=*/2);
  EXPECT_EQ(&first.decoder(), decoder.get());
  EXPECT_EQ(&second.decoder(), decoder.get());
  EXPECT_EQ(first.DecoderForVersion(0), decoder);

  // A roll adds a version without disturbing the shared version 0.
  first.StageRoll(ReportDecoder::FromAnalysis(FactorizationAnalysis(
      RandomizedResponseMechanism::BuildStrategy(n, 0.5),
      WorkloadStats::From(*workload))));
  first.Seal();
  EXPECT_EQ(first.strategy_version(), 1);
  EXPECT_NE(first.DecoderForVersion(1), decoder);
  EXPECT_EQ(first.DecoderForVersion(0).get(), &first.decoder());
  EXPECT_EQ(second.strategy_version(), 0);
}

TEST(EstimateServerTest, ServesTheSameAnswersAsTheOfflinePipeline) {
  const int n = 8;
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(n, 1.0);
  auto workload = std::make_shared<const PrefixWorkload>(n);
  auto decoder = std::make_shared<const ReportDecoder>(
      ReportDecoder::FromAnalysis(
          FactorizationAnalysis(q, WorkloadStats::From(*workload))));
  CollectionSession session(decoder, workload, /*num_shards=*/2);

  const std::vector<int> reports = MakeReports(n, 20000, /*seed=*/77);
  session.AcceptBatch(0, std::span<const int>(reports.data(), reports.size()));
  session.Seal();

  EstimateServer server(&session);
  for (const EstimatorKind kind :
       {EstimatorKind::kUnbiased, EstimatorKind::kWnnls}) {
    const WorkloadEstimate served = server.Serve(kind).value();
    const WorkloadEstimate direct = EstimateWorkloadAnswers(
        *decoder, *workload, session.LatestSnapshot()->histogram,
        session.LatestSnapshot()->count, kind);
    EXPECT_EQ(served.data_vector, direct.data_vector);
    EXPECT_EQ(served.query_answers, direct.query_answers);
  }
}

TEST(EstimateServerTest, CachesPerEpochAndInvalidatesOnSeal) {
  auto session = MakeSession(/*n=*/6, /*num_shards=*/2);
  const int m = session->num_outputs();
  const std::vector<int> first = MakeReports(m, 5000, /*seed=*/51);
  session->AcceptBatch(0, std::span<const int>(first.data(), first.size()));
  session->Seal();

  EstimateServer server(session.get());
  const WorkloadEstimate a = server.Serve(EstimatorKind::kUnbiased).value();
  const WorkloadEstimate b = server.Serve(EstimatorKind::kUnbiased).value();
  EXPECT_EQ(server.num_serves(), 2);
  EXPECT_EQ(server.num_solves(), 1) << "second serve must hit the cache";
  EXPECT_EQ(a.query_answers, b.query_answers);

  // A different estimator kind or window is a different cache entry.
  server.Serve(EstimatorKind::kWnnls);
  EXPECT_EQ(server.num_solves(), 2);
  server.ServeWindow(2, EstimatorKind::kUnbiased);
  EXPECT_EQ(server.num_solves(), 3);

  // Sealing a new epoch invalidates everything cached for the old one.
  const std::vector<int> second = MakeReports(m, 5000, /*seed=*/52);
  session->AcceptBatch(1, std::span<const int>(second.data(), second.size()));
  session->Seal();
  const WorkloadEstimate c = server.Serve(EstimatorKind::kUnbiased).value();
  EXPECT_EQ(server.num_solves(), 4) << "stale cache served after a new seal";
  EXPECT_NE(a.data_vector, c.data_vector);

  // The fresh epoch's estimate reflects only the new epoch's reports.
  const WorkloadEstimate direct = EstimateWorkloadAnswers(
      session->decoder(), session->workload(),
      session->LatestSnapshot()->histogram, session->LatestSnapshot()->count,
      EstimatorKind::kUnbiased);
  EXPECT_EQ(c.query_answers, direct.query_answers);
}

TEST(EstimateServerTest, ConcurrentServesAreConsistent) {
  auto session = MakeSession(/*n=*/6, /*num_shards=*/2);
  const int m = session->num_outputs();
  const std::vector<int> reports = MakeReports(m, 10000, /*seed=*/53);
  session->AcceptBatch(0, std::span<const int>(reports.data(), reports.size()));
  session->Seal();

  EstimateServer server(session.get());
  const WorkloadEstimate expected =
      server.Serve(EstimatorKind::kUnbiased).value();
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kIngestThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        const WorkloadEstimate got =
            server.Serve(EstimatorKind::kUnbiased).value();
        if (got.query_answers != expected.query_answers) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server.num_solves(), 1);
  EXPECT_EQ(server.num_serves(), 1 + kIngestThreads * 50);
}

TEST(CollectDeathTest, RejectsBitVectorKindMismatchesAndCorruptBits) {
  ShardedAggregator bits(/*num_outputs=*/3, /*num_shards=*/1,
                         ReportKind::kBitVector);
  EXPECT_DEATH(bits.AcceptBatch(0, std::vector<int>{1}), "bit-vector");
  EXPECT_DEATH(AcceptOne(bits, 0, IndexReport(1)), "bit-vector");
  EXPECT_DEATH(AcceptOne(bits, 0, DenseReport({1.0, 0.0, 0.5})),
               "bit-vector");

  ShardedAggregator categorical(/*num_outputs=*/3, /*num_shards=*/1);
  EXPECT_DEATH(AcceptOne(categorical, 0, BitsReport({1, 0, 1})),
               "categorical");

  EXPECT_DEATH(AcceptOne(bits, 0, BitsReport({1, 0})), "WFM_CHECK");
  // Entries beyond {0, 1} indicate a corrupt stream, validated before they
  // can skew the per-coordinate counts.
  EXPECT_DEATH(AcceptOne(bits, 0, BitsReport({1, 2, 0})), "out of range");
  const std::vector<Report> corrupt{BitsReport({1, 0, 1}),
                                    BitsReport({0, 3, 0})};
  EXPECT_DEATH(bits.AcceptBatch(0, corrupt), "out of range");
}

TEST(ShardedAggregatorTest, BitVectorMergeCountsSetBitsPerCoordinate) {
  ShardedAggregator agg(/*num_outputs=*/4, /*num_shards=*/2,
                        ReportKind::kBitVector);
  AcceptOne(agg, 0, BitsReport({1, 0, 1, 0}));
  AcceptOne(agg, 1, BitsReport({1, 1, 0, 0}));
  AcceptOne(agg, 0, BitsReport({0, 0, 0, 1}));
  EXPECT_EQ(agg.Merge(), (Vector{2, 1, 1, 1}));
  // One report = one response, no matter how many bits it sets: the total is
  // the N that the affine debias divides against.
  EXPECT_EQ(agg.num_responses(), 3);
}

TEST(CollectionSessionTest, BitVectorEpochCountAccountingUnderConcurrentSeals) {
  // The count accounting the affine decode depends on: every bit-vector
  // report must contribute its histogram mass and its count increment to the
  // *same* epoch. Each synthetic report sets exactly kBitsPerReport bits, so
  // per sealed epoch Sum(histogram) == kBitsPerReport * count holds exactly
  // iff the epoch cut never splits a report — even with kIngestThreads
  // writers racing Seal() calls mid-flight (run under TSan in CI).
  const int n = 8;
  constexpr int kBitsPerReport = 3;
  const int reports_per_thread = 30000;

  auto workload = std::make_shared<const HistogramWorkload>(n);
  CollectionSession session(
      std::make_shared<const ReportDecoder>(AffineDebias{0.75, 0.25},
                                            WorkloadStats::From(*workload)),
      workload, kIngestThreads, ReportKind::kBitVector);
  ASSERT_EQ(session.report_kind(), ReportKind::kBitVector);

  // Pre-generate the streams so ingest threads share no RNG.
  std::vector<std::vector<std::vector<std::uint8_t>>> streams(kIngestThreads);
  Vector expected_total(n, 0.0);
  for (int t = 0; t < kIngestThreads; ++t) {
    Rng rng(700 + t);
    streams[t].reserve(reports_per_thread);
    for (int i = 0; i < reports_per_thread; ++i) {
      std::vector<std::uint8_t> bits(n, 0);
      int set = 0;
      while (set < kBitsPerReport) {  // Exactly kBitsPerReport distinct bits.
        const int o = rng.UniformInt(n);
        if (bits[o]) continue;
        bits[o] = 1;
        ++set;
        expected_total[o] += 1.0;
      }
      streams[t].push_back(std::move(bits));
    }
  }

  std::atomic<int> threads_done{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kIngestThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const auto& bits : streams[t]) {
        AcceptOne(session, t, BitsReport(bits));
      }
      threads_done.fetch_add(1);
    });
  }
  do {
    session.Seal();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  } while (threads_done.load() < kIngestThreads);
  for (std::thread& t : threads) t.join();
  session.Seal();  // Flush the tail.

  Vector sealed_total(n, 0.0);
  std::int64_t sealed_count = 0;
  for (int e = 0; e < session.epochs_sealed(); ++e) {
    const auto snapshot = session.Snapshot(e);
    // The per-epoch invariant: count and histogram cut at the same boundary.
    EXPECT_EQ(Sum(snapshot->histogram),
              static_cast<double>(kBitsPerReport * snapshot->count))
        << "epoch " << e << " split a report across the seal";
    for (int o = 0; o < n; ++o) sealed_total[o] += snapshot->histogram[o];
    sealed_count += snapshot->count;
  }
  EXPECT_EQ(sealed_total, expected_total);
  EXPECT_EQ(sealed_count,
            static_cast<std::int64_t>(kIngestThreads) * reports_per_thread);
  EXPECT_EQ(session.total_responses(), sealed_count);
  EXPECT_EQ(session.pending_responses(), 0);
}

TEST(EstimateServerTest, AffineDecodeUsesPerEpochReportCounts) {
  // Two epochs with different report counts: the served unbiased estimate
  // must debias each window against that window's own N — the count plumbing
  // from EpochSnapshot through EstimateServer into the affine decoder.
  const int n = 4;
  const double p = 0.75, q = 0.25;
  auto workload = std::make_shared<const HistogramWorkload>(n);
  CollectionSession session(
      std::make_shared<const ReportDecoder>(AffineDebias{p, q},
                                            WorkloadStats::From(*workload)),
      workload, /*num_shards=*/1, ReportKind::kBitVector);
  EstimateServer server(&session);

  auto debias = [&](const Vector& y, std::int64_t count) {
    Vector x(n);
    for (int u = 0; u < n; ++u) {
      x[u] = (y[u] - static_cast<double>(count) * q) / (p - q);
    }
    return x;
  };

  // Epoch 0: 3 reports.
  AcceptOne(session, 0, BitsReport({1, 0, 1, 0}));
  AcceptOne(session, 0, BitsReport({0, 1, 0, 0}));
  AcceptOne(session, 0, BitsReport({1, 1, 1, 1}));
  const EpochSnapshot first = session.Seal();
  ASSERT_EQ(first.count, 3);
  EXPECT_EQ(server.Serve(EstimatorKind::kUnbiased).value().data_vector,
            debias(first.histogram, first.count));

  // Epoch 1: 1 report. Serving window 1 must use N = 1, window 2 N = 4.
  AcceptOne(session, 0, BitsReport({0, 0, 1, 1}));
  const EpochSnapshot second = session.Seal();
  ASSERT_EQ(second.count, 1);
  EXPECT_EQ(server.Serve(EstimatorKind::kUnbiased).value().data_vector,
            debias(second.histogram, second.count));
  const EpochSnapshot window = session.WindowTotal(2);
  ASSERT_EQ(window.count, 4);
  EXPECT_EQ(
      server.ServeWindow(2, EstimatorKind::kUnbiased).value().data_vector,
      debias(window.histogram, window.count));
}

TEST(ResponseParityTest, ShardedSessionMatchesSerialReferenceEndToEnd) {
  // Full-stack exactness: randomize real users, feed the report stream
  // through a concurrent session, and require the sealed histogram to be
  // the stream's exact serial count (hence identical estimates).
  const int n = 5;
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(n, 1.0);
  auto workload = std::make_shared<const HistogramWorkload>(n);
  auto decoder = std::make_shared<const ReportDecoder>(
      ReportDecoder::FromAnalysis(
          FactorizationAnalysis(q, WorkloadStats::From(*workload))));
  const StrategyReporter reporter(q);

  Rng rng(2026);
  const Vector truth{400, 100, 250, 50, 200};
  std::vector<int> reports;
  for (int u = 0; u < n; ++u) {
    for (int j = 0; j < static_cast<int>(truth[u]); ++j) {
      reports.push_back(reporter.RespondIndex(u, rng));
    }
  }

  CollectionSession session(decoder, workload, kIngestThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kIngestThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t begin = reports.size() * t / kIngestThreads;
      const std::size_t end = reports.size() * (t + 1) / kIngestThreads;
      session.AcceptBatch(t,
                          std::span<const int>(&reports[begin], end - begin));
    });
  }
  for (std::thread& t : threads) t.join();
  const EpochSnapshot sealed = session.Seal();

  EXPECT_EQ(sealed.histogram, SerialHistogram(q.rows(), reports));
  EXPECT_EQ(sealed.count, static_cast<std::int64_t>(reports.size()));
}

// ---- unified kind-dispatched ingest ---------------------------------------

TEST(UnifiedIngestTest, AcceptBatchLandsExactCountsForEveryKindAndSize) {
  // Every kind, at batch sizes on both sides of each kind's direct/scratch
  // choice (bit-vector and dense: one report vs more; categorical: k < 16 or
  // m > 4k vs the rest), must land exactly the integer counts kept here.
  // Dense entries are small integers, so their sums are exact too.
  Counter& reports_metric =
      MetricsRegistry::Global().GetCounter("wfm_ingest_reports_total");
  Counter& batches_metric =
      MetricsRegistry::Global().GetCounter("wfm_ingest_batches_total");
  Rng rng(81);
  for (const ReportKind kind :
       {ReportKind::kCategorical, ReportKind::kDense, ReportKind::kBitVector}) {
    for (const int m : {6, 4096}) {
      for (const int k : {1, 2, 15, 16, 17, 500}) {
        SCOPED_TRACE(std::string(KindName(kind)) + " m=" + std::to_string(m) +
                     " k=" + std::to_string(k));
        std::vector<Report> reports(k);
        std::vector<int> indices(k);
        std::vector<std::int64_t> expected(m, 0);
        for (int i = 0; i < k; ++i) {
          Report& r = reports[i];
          if (kind == ReportKind::kCategorical) {
            r.index = indices[i] = rng.UniformInt(m);
            ++expected[r.index];
          } else if (kind == ReportKind::kDense) {
            r.dense.resize(m);
            for (int o = 0; o < m; ++o) {
              const int v = rng.UniformInt(10);
              r.dense[o] = v;
              expected[o] += v;
            }
          } else {
            r.bits.resize(m);
            for (int o = 0; o < m; ++o) {
              r.bits[o] = static_cast<std::uint8_t>(rng.UniformInt(2));
              expected[o] += r.bits[o];
            }
          }
        }
        const Vector want(expected.begin(), expected.end());
        const std::int64_t reports_before = reports_metric.value();
        const std::int64_t batches_before = batches_metric.value();
        ShardedAggregator agg(m, /*num_shards=*/2, kind);
        agg.AcceptBatch(1, reports);
        EXPECT_EQ(agg.Merge(), want);
        EXPECT_EQ(agg.num_responses(), k);
        EXPECT_EQ(reports_metric.value() - reports_before, k);
        EXPECT_EQ(batches_metric.value() - batches_before, 1);
        if (kind == ReportKind::kCategorical) {
          ShardedAggregator stream(m, /*num_shards=*/2);
          stream.AcceptBatch(0, indices);
          EXPECT_EQ(stream.Merge(), want);
          EXPECT_EQ(stream.num_responses(), k);
        }
      }
    }
  }
}

TEST(UnifiedIngestTest, ConcurrentAcceptBatchConservesEveryReport) {
  // kIngestThreads writers push batched bit-vector reports through the
  // session's unified surface while Seal() races them (TSan-checked in CI);
  // no report may be lost or split.
  const int n = 8;
  const int per_thread = 400;
  auto workload = std::make_shared<const HistogramWorkload>(n);
  CollectionSession session(
      std::make_shared<const ReportDecoder>(AffineDebias{0.75, 0.25},
                                            WorkloadStats::From(*workload)),
      workload, kIngestThreads, ReportKind::kBitVector);

  std::vector<std::vector<Report>> streams(kIngestThreads);
  Vector expected(n, 0.0);
  for (int t = 0; t < kIngestThreads; ++t) {
    Rng rng(900 + t);
    streams[t].resize(per_thread);
    for (Report& report : streams[t]) {
      report.bits.resize(n);
      for (int o = 0; o < n; ++o) {
        report.bits[o] = static_cast<std::uint8_t>(rng.UniformInt(2));
        expected[o] += report.bits[o];
      }
    }
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kIngestThreads; ++t) {
    threads.emplace_back([&, t] { session.AcceptBatch(t, streams[t]); });
  }
  session.Seal();  // Race one cut against the in-flight batches.
  for (std::thread& t : threads) t.join();
  session.Seal();

  const EpochSnapshot total = session.WindowTotal(session.epochs_sealed());
  EXPECT_EQ(total.histogram, expected);
  EXPECT_EQ(total.count,
            static_cast<std::int64_t>(kIngestThreads) * per_thread);
}

// ---- snapshot restore (crash recovery / multi-node) -----------------------

TEST(SnapshotRestoreTest, TrySnapshotIsNotFoundUntilSealed) {
  auto session = MakeSession(/*n=*/4, /*num_shards=*/1);
  const auto missing = session->TrySnapshot(0);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  AcceptOne(*session, 0, IndexReport(1));
  session->Seal();
  const auto found = session->TrySnapshot(0);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value()->count, 1);
  EXPECT_EQ(session->TrySnapshot(-1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(session->TrySnapshot(1).status().code(), StatusCode::kNotFound);
}

TEST(SnapshotRestoreTest, RestoredEpochsCountLikeLocallySealedOnes) {
  auto source = MakeSession(/*n=*/4, /*num_shards=*/1);
  source->AcceptBatch(0, std::vector<int>{0, 1, 1, 2});
  const EpochSnapshot sealed = source->Seal();

  auto target = MakeSession(/*n=*/4, /*num_shards=*/1);
  AcceptOne(*target, 0, IndexReport(3));
  target->Seal();
  const StatusOr<int> restored = target->RestoreSealedEpoch(sealed);
  ASSERT_TRUE(restored.ok());
  // The adopted epoch gets the next *local* id — remote ids are bookkeeping.
  EXPECT_EQ(restored.value(), 1);
  EXPECT_EQ(target->epochs_sealed(), 2);
  EXPECT_EQ(target->total_responses(), 5);
  const EpochSnapshot window = target->WindowTotal(2);
  EXPECT_EQ(window.count, 5);
  EXPECT_EQ(window.histogram, (Vector{1, 2, 1, 1}));
}

TEST(SnapshotRestoreTest, RejectsMalformedSnapshots) {
  auto session = MakeSession(/*n=*/4, /*num_shards=*/1);
  EpochSnapshot wrong_dim;
  wrong_dim.histogram = {1.0};
  EXPECT_EQ(session->RestoreSealedEpoch(wrong_dim).status().code(),
            StatusCode::kInvalidArgument);

  EpochSnapshot negative;
  negative.histogram.assign(session->num_outputs(), 0.0);
  negative.count = -1;
  EXPECT_EQ(session->RestoreSealedEpoch(negative).status().code(),
            StatusCode::kInvalidArgument);

  EpochSnapshot poisoned;
  poisoned.histogram.assign(session->num_outputs(), 0.0);
  poisoned.histogram[1] = std::numeric_limits<double>::infinity();
  EXPECT_EQ(session->RestoreSealedEpoch(poisoned).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session->epochs_sealed(), 0);  // Nothing was adopted.
}

TEST(SnapshotRestoreTest, RejectsHistogramsThatAreNotCountVectors) {
  auto restore = [](CollectionSession& session, Vector histogram,
                    std::int64_t count) {
    EpochSnapshot snapshot;
    snapshot.histogram = std::move(histogram);
    snapshot.count = count;
    return session.RestoreSealedEpoch(snapshot).status().code();
  };
  constexpr StatusCode kInvalid = StatusCode::kInvalidArgument;

  // A categorical epoch holds one response per report: entries are
  // non-negative integers summing to the count. {5, -3, 0, 0} passes the
  // dimension, finite and count checks, yet no session could have sealed it.
  auto categorical = MakeSession(/*n=*/4, /*num_shards=*/1);
  EXPECT_EQ(restore(*categorical, {5, -3, 0, 0}, 2), kInvalid);
  EXPECT_EQ(restore(*categorical, {0.5, 0.5, 0, 0}, 1), kInvalid);
  EXPECT_EQ(restore(*categorical, {1, 1, 0, 0}, 1), kInvalid);
  EXPECT_EQ(categorical->epochs_sealed(), 0);

  // A bit-vector coordinate is set at most once per report, so its count is
  // an integer in [0, count]; the entries need not sum to the count.
  const int n = 4;
  auto workload = std::make_shared<const HistogramWorkload>(n);
  CollectionSession bits(
      std::make_shared<const ReportDecoder>(AffineDebias{0.75, 0.25},
                                            WorkloadStats::From(*workload)),
      workload, /*num_shards=*/1, ReportKind::kBitVector);
  EXPECT_EQ(restore(bits, {2, 0, 1, 0}, 1), kInvalid);
  EXPECT_EQ(restore(bits, {1, -1, 0, 0}, 1), kInvalid);
  EXPECT_EQ(restore(bits, {0.5, 0, 0, 0}, 1), kInvalid);
  EXPECT_EQ(bits.epochs_sealed(), 0);
  EXPECT_EQ(restore(bits, {1, 0, 1, 1}, 1), StatusCode::kOk);

  // Dense aggregates are real-valued sums: only the generic checks apply.
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(n, 1.0);
  CollectionSession dense(
      std::make_shared<const ReportDecoder>(ReportDecoder::FromAnalysis(
          FactorizationAnalysis(q, WorkloadStats::From(*workload)))),
      workload, /*num_shards=*/1, ReportKind::kDense);
  EXPECT_EQ(restore(dense, {0.5, -1.25, 2, 0}, 1), StatusCode::kOk);
}

}  // namespace
}  // namespace wfm
