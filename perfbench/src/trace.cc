#include "trace.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"

namespace perfbench {
namespace {

using Interval = std::pair<std::int64_t, std::int64_t>;

// Length of the union of intervals, each clipped to [lo, hi].
std::int64_t CoveredNs(std::vector<Interval> intervals, std::int64_t lo,
                       std::int64_t hi) {
  for (Interval& iv : intervals) {
    iv.first = std::clamp(iv.first, lo, hi);
    iv.second = std::clamp(iv.second, lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t reach = lo;
  for (const Interval& iv : intervals) {
    const std::int64_t start = std::max(iv.first, reach);
    if (iv.second > start) {
      covered += iv.second - start;
      reach = iv.second;
    }
  }
  return covered;
}

}  // namespace

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::Begin(const std::string& name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request_id = request_id_;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int index) {
  if (!enabled_) return;
  WFM_CHECK(!open_.empty() && open_.back() == index)
      << "spans must close innermost first";
  spans_[index].end_ns = NowNs();
  open_.pop_back();
}

std::string Tracer::ToJsonLines() const {
  std::string out;
  for (const Span& s : spans_) {
    out += "{\"name\":\"" + s.name + "\",\"start_ns\":" +
           std::to_string(s.start_ns) + ",\"end_ns\":" +
           std::to_string(s.end_ns) + ",\"parent\":" +
           std::to_string(s.parent) + ",\"request_id\":" +
           std::to_string(s.request_id) + "}\n";
  }
  return out;
}

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

SelfTimes ComputeSelfTimes(const std::vector<Span>& spans,
                           std::int64_t wall_start_ns,
                           std::int64_t wall_end_ns) {
  WFM_CHECK_LE(wall_start_ns, wall_end_ns);
  std::vector<std::vector<Interval>> children(spans.size());
  std::vector<Interval> roots;
  for (const Span& s : spans) {
    if (s.parent < 0) {
      roots.emplace_back(s.start_ns, s.end_ns);
    } else {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  SelfTimes out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = std::clamp(spans[i].start_ns, wall_start_ns, wall_end_ns);
    const std::int64_t hi = std::clamp(spans[i].end_ns, lo, wall_end_ns);
    const std::int64_t self = (hi - lo) - CoveredNs(children[i], lo, hi);
    out.layer_ns[LayerOf(spans[i].name)] += self;
  }
  out.wall_ns = wall_end_ns - wall_start_ns;
  out.unattributed_ns =
      out.wall_ns - CoveredNs(roots, wall_start_ns, wall_end_ns);
  return out;
}

std::int64_t SelfTimes::TotalNs() const {
  std::int64_t total = unattributed_ns;
  for (const auto& [layer, ns] : layer_ns) total += ns;
  return total;
}

}  // namespace perfbench
