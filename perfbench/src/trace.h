// In-memory spans around calls into the library's layers.
//
// A span records a name ("<layer>.<call>"), its start and end on the
// steady clock, the span that was open when it began (its parent), and the
// request it belongs to. Spans live in memory until the benchmark ends and
// are then written out as JSON lines. Spans are recorded from one thread
// only: the thread that drives the pipeline.
//
// A span's self time is its duration minus the part of it its children
// cover. Summing self time by layer, plus the part of the wall interval no
// root span covers ("unattributed"), gives back the wall time exactly.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
std::int64_t NowNs();

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< Index of the enclosing span, -1 for a root.
  std::int64_t request_id = 0;
};

class Tracer {
 public:
  /// A disabled tracer records nothing; ScopedSpan on it costs one branch.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Starts a new request; spans opened until the next call carry its id.
  void NewRequest() { ++request_id_; }

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when disabled.
  int Begin(const std::string& name);
  /// Closes the span `index` returned by Begin (innermost first).
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per span and line.
  std::string ToJsonLines() const;

 private:
  bool enabled_;
  std::int64_t request_id_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null or disabled tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        index_(tracer_ != nullptr ? tracer_->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Layer name of a span: its name up to the first '.'.
std::string LayerOf(const std::string& span_name);

struct SelfTimes {
  std::map<std::string, std::int64_t> layer_ns;  ///< Self time by layer.
  std::int64_t unattributed_ns = 0;  ///< Wall time outside every root span.
  std::int64_t wall_ns = 0;

  /// Σ layer self time + unattributed; equals wall_ns when every span nests
  /// inside its parent.
  std::int64_t TotalNs() const;
};

/// Self time per layer over the wall interval [wall_start_ns, wall_end_ns].
/// Spans are clipped to the interval.
SelfTimes ComputeSelfTimes(const std::vector<Span>& spans,
                           std::int64_t wall_start_ns,
                           std::int64_t wall_end_ns);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
