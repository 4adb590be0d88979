#include "collect/sharded_aggregator.h"

#include "common/check.h"
#include "obs/metrics.h"

namespace wfm {
namespace {

/// Relaxed atomic add for doubles via compare-exchange (portable across
/// compilers that lack lock-free fetch_add on floating point).
void AtomicAdd(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + value,
                                       std::memory_order_relaxed)) {
  }
}

// Telemetry mirrors of the per-shard totals, routed to the obs stripe
// matching the caller's shard id so the extra relaxed add contends exactly
// as much as the shard counter it sits next to. Every AcceptBatch call
// records once (a single report is a batch of one), the same cadence as
// `Shard::total`, so a scrape equals num_responses() at quiescence.
Counter& IngestReports() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("wfm_ingest_reports_total");
  return counter;
}

Counter& IngestBatches() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("wfm_ingest_batches_total");
  return counter;
}

// Below this batch length a scratch histogram costs more than it saves.
constexpr std::size_t kScatterThreshold = 16;

/// Lands one categorical batch on a shard's counters; `index_of` validates
/// an element and returns its response index. Scratch counts cost O(m) to
/// allocate, zero and scan and save one atomic per repeated response;
/// direct adds cost one relaxed atomic per report. So the batch folds into
/// scratch only when it is long and m is small next to it (m <= 4k): on a
/// 2^20-output alphabet a 256-report batch would otherwise zero and scan
/// 8 MB to place 256 counts. Either way the counters end at the same exact
/// integers.
template <typename Batch, typename IndexOf>
void AddCategoricalBatch(std::vector<std::atomic<std::int64_t>>& counts,
                         const Batch& batch, IndexOf index_of) {
  const std::size_t k = batch.size();
  const std::size_t m = counts.size();
  if (k < kScatterThreshold || m > 4 * k) {
    for (const auto& element : batch) {
      counts[index_of(element)].fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  std::vector<std::int64_t> local(m, 0);
  for (const auto& element : batch) ++local[index_of(element)];
  for (std::size_t o = 0; o < m; ++o) {
    if (local[o] != 0) counts[o].fetch_add(local[o], std::memory_order_relaxed);
  }
}

/// Adds a landed batch of `k` reports to its shard's total and to the
/// telemetry. A bit-vector report is one user however many bits it sets; the
/// total feeds the affine debias N.
void CountBatch(std::atomic<std::int64_t>& total, int shard, std::size_t k) {
  total.fetch_add(static_cast<std::int64_t>(k), std::memory_order_relaxed);
  IngestReports().AddAt(shard, static_cast<std::int64_t>(k));
  IngestBatches().AddAt(shard, 1);
}

}  // namespace

const char* KindName(ReportKind kind) {
  switch (kind) {
    case ReportKind::kCategorical:
      return "categorical";
    case ReportKind::kDense:
      return "dense";
    case ReportKind::kBitVector:
      return "bit-vector";
  }
  return "unknown";
}

ShardedAggregator::ShardedAggregator(int num_outputs, int num_shards,
                                     ReportKind kind)
    : num_outputs_(num_outputs), kind_(kind) {
  WFM_CHECK_GT(num_outputs, 0);
  WFM_CHECK_GT(num_shards, 0);
  shards_.reserve(num_shards);
  for (int s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(num_outputs, kind));
  }
}

ShardedAggregator::Shard& ShardedAggregator::GetShard(int shard) {
  WFM_CHECK(shard >= 0 && shard < num_shards())
      << "shard id out of range:" << shard << "of" << num_shards();
  return *shards_[shard];
}

const ShardedAggregator::Shard& ShardedAggregator::GetShard(int shard) const {
  WFM_CHECK(shard >= 0 && shard < num_shards())
      << "shard id out of range:" << shard << "of" << num_shards();
  return *shards_[shard];
}

void ShardedAggregator::AcceptBatch(int shard,
                                    std::span<const Report> reports) {
  Shard& s = GetShard(shard);
  switch (kind_) {
    case ReportKind::kCategorical: {
      AddCategoricalBatch(s.counts, reports, [this](const Report& report) {
        WFM_CHECK(!report.is_bits() && !report.is_dense())
            << "non-categorical report in a categorical batch";
        WFM_CHECK(report.index >= 0 && report.index < num_outputs_)
            << "response out of range:" << report.index
            << "for m =" << num_outputs_;
        return report.index;
      });
      break;
    }
    case ReportKind::kBitVector: {
      const auto check_shape = [this](const Report& report) {
        WFM_CHECK(report.is_bits())
            << "non-bit-vector report in a bit-vector batch";
        WFM_CHECK_EQ(static_cast<int>(report.bits.size()), num_outputs_);
      };
      // Bit-vector and dense reports touch m counters each, so a lone report
      // adds straight to the shard and a longer batch folds into scratch
      // first, one atomic per touched counter per batch.
      if (reports.size() < 2) {
        for (const Report& report : reports) {
          check_shape(report);
          for (int o = 0; o < num_outputs_; ++o) {
            const std::uint8_t bit = report.bits[o];
            WFM_CHECK_LE(bit, 1)
                << "bit report entry out of range:" << static_cast<int>(bit)
                << "at coordinate" << o;
            if (bit != 0) s.counts[o].fetch_add(1, std::memory_order_relaxed);
          }
        }
        break;
      }
      std::vector<std::int64_t> local(num_outputs_, 0);
      for (const Report& report : reports) {
        check_shape(report);
        for (int o = 0; o < num_outputs_; ++o) {
          const std::uint8_t bit = report.bits[o];
          WFM_CHECK_LE(bit, 1)
              << "bit report entry out of range:" << static_cast<int>(bit)
              << "at coordinate" << o;
          local[o] += bit;
        }
      }
      for (int o = 0; o < num_outputs_; ++o) {
        if (local[o] != 0) {
          s.counts[o].fetch_add(local[o], std::memory_order_relaxed);
        }
      }
      break;
    }
    case ReportKind::kDense: {
      const auto check_shape = [this](const Report& report) {
        WFM_CHECK(report.is_dense()) << "non-dense report in a dense batch";
        WFM_CHECK_EQ(static_cast<int>(report.dense.size()), num_outputs_);
      };
      // The same choice fixes the floating-point order: a lone report adds
      // every coordinate to the shard as it stands.
      if (reports.size() < 2) {
        for (const Report& report : reports) {
          check_shape(report);
          for (int o = 0; o < num_outputs_; ++o) {
            AtomicAdd(s.dense[o], report.dense[o]);
          }
        }
        break;
      }
      Vector local(num_outputs_, 0.0);
      for (const Report& report : reports) {
        check_shape(report);
        for (int o = 0; o < num_outputs_; ++o) local[o] += report.dense[o];
      }
      for (int o = 0; o < num_outputs_; ++o) {
        if (local[o] != 0.0) AtomicAdd(s.dense[o], local[o]);
      }
      break;
    }
  }
  CountBatch(s.total, shard, reports.size());
}

void ShardedAggregator::AcceptBatch(int shard,
                                    std::span<const int> responses) {
  WFM_CHECK(kind_ == ReportKind::kCategorical)
      << "categorical AcceptBatch on a" << KindName(kind_) << "aggregator";
  Shard& s = GetShard(shard);
  AddCategoricalBatch(s.counts, responses, [this](int response) {
    WFM_CHECK(response >= 0 && response < num_outputs_)
        << "response out of range:" << response << "for m =" << num_outputs_;
    return response;
  });
  CountBatch(s.total, shard, responses.size());
}

Vector ShardedAggregator::Merge() const {
  Vector y(num_outputs_, 0.0);
  for (const auto& shard : shards_) {
    if (kind_ != ReportKind::kDense) {
      for (int o = 0; o < num_outputs_; ++o) {
        const std::int64_t c = shard->counts[o].load(std::memory_order_relaxed);
        y[o] += static_cast<double>(c);
      }
    } else {
      for (int o = 0; o < num_outputs_; ++o) {
        y[o] += shard->dense[o].load(std::memory_order_relaxed);
      }
    }
  }
  return y;
}

std::int64_t ShardedAggregator::num_responses() const {
  std::int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->total.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace wfm
