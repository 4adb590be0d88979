#include "collect/estimate_server.h"

#include <cstdint>

#include "common/check.h"
#include "obs/metrics.h"

namespace wfm {
namespace {

// Cache effectiveness across every EstimateServer in the process: hits are
// served from the (window, kind) cache, misses pay a full decode + solve
// whose latency the histogram records.
Counter& CacheHits() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("wfm_estimate_cache_hits_total");
  return counter;
}

Counter& CacheMisses() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("wfm_estimate_cache_misses_total");
  return counter;
}

Histogram& SolveDuration() {
  static Histogram& histogram =
      MetricsRegistry::Global().GetHistogram("wfm_estimate_solve_duration_ns");
  return histogram;
}

}  // namespace

EstimateServer::EstimateServer(const CollectionSession* session)
    : session_(session) {
  WFM_CHECK(session != nullptr);
}

StatusOr<WorkloadEstimate> EstimateServer::Serve(EstimatorKind kind) {
  return ServeWindow(/*window=*/1, kind);
}

StatusOr<WorkloadEstimate> EstimateServer::ServeWindow(int window,
                                                       EstimatorKind kind) {
  if (window <= 0) {
    return Status::InvalidArgument("window must be positive, got " +
                                   std::to_string(window));
  }
  const std::vector<std::shared_ptr<const EpochSnapshot>> snapshots =
      session_->WindowSnapshots(window);
  if (snapshots.empty()) {
    return Status::FailedPrecondition("no sealed epoch to serve from");
  }

  std::lock_guard<std::mutex> lock(mutex_);
  ++serves_;
  if (snapshots.back()->epoch_id != cached_epoch_) {
    cache_.clear();
    cached_epoch_ = snapshots.back()->epoch_id;
  }
  const std::pair<int, int> key(window, static_cast<int>(kind));
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    CacheHits().Increment();
    return it->second;
  }
  ++solves_;
  CacheMisses().Increment();
  ScopedTimer span(SolveDuration());

  // Version-aware decode: consecutive epochs sealed under the same strategy
  // version sum (aggregation is linear within a version) and decode with
  // that version's decoder; groups then add in estimate space — data vectors
  // and workload answers are both additive across disjoint report
  // populations. A window that never saw a roll is one group, which makes
  // this computation exactly the pre-rollover single-decode path.
  WorkloadEstimate estimate;
  std::size_t begin = 0;
  while (begin < snapshots.size()) {
    const int version = snapshots[begin]->strategy_version;
    std::size_t end = begin + 1;
    while (end < snapshots.size() &&
           snapshots[end]->strategy_version == version) {
      ++end;
    }
    // A one-epoch group decodes straight from its immutable snapshot; only
    // a multi-epoch group needs an m-vector of its own to sum into.
    const Vector* histogram = &snapshots[begin]->histogram;
    std::int64_t count = snapshots[begin]->count;
    Vector sum;
    if (end - begin > 1) {
      sum = *histogram;
      for (std::size_t e = begin + 1; e < end; ++e) {
        for (std::size_t o = 0; o < sum.size(); ++o) {
          sum[o] += snapshots[e]->histogram[o];
        }
        count += snapshots[e]->count;
      }
      histogram = &sum;
    }
    const std::shared_ptr<const ReportDecoder> decoder =
        session_->DecoderForVersion(version);
    if (decoder == nullptr) {
      return Status::FailedPrecondition(
          "window spans strategy version " + std::to_string(version) +
          " with no decoder in this session's history");
    }
    // The group total carries the exact report count of the summed epochs,
    // which affine decoders (RAPPOR/OUE) need to debias the aggregate.
    WorkloadEstimate part = EstimateWorkloadAnswers(
        *decoder, session_->workload(), *histogram, count, kind);
    if (estimate.data_vector.empty()) {
      estimate = std::move(part);
    } else {
      for (std::size_t i = 0; i < estimate.data_vector.size(); ++i) {
        estimate.data_vector[i] += part.data_vector[i];
      }
      for (std::size_t i = 0; i < estimate.query_answers.size(); ++i) {
        estimate.query_answers[i] += part.query_answers[i];
      }
    }
    begin = end;
  }
  cache_.emplace(key, estimate);
  return estimate;
}

std::int64_t EstimateServer::num_serves() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return serves_;
}

std::int64_t EstimateServer::num_solves() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return solves_;
}

}  // namespace wfm
