#ifndef PDXBENCH_SPANS_H_
#define PDXBENCH_SPANS_H_

// Span recorder for the traced run. Spans are recorded from the benchmark's
// own files around calls into each layer's public functions; they are kept
// in memory and written out once, when the run ends. Off (the untraced run)
// a ScopedSpan costs one branch.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace pdxbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root.
  uint64_t request = 0;  ///< Request the span belongs to (0 = none).
  std::string name;     ///< "<layer>.<call>", e.g. "serve.submit".
  double start_ms = 0.0;  ///< From the recorder's epoch.
  double end_ms = 0.0;
};

/// Per-name aggregate of self time: span duration minus the part of its
/// interval covered by its children (children clipped to the parent,
/// overlapping children counted once).
struct SelfTime {
  size_t spans = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class SpanRecorder {
 public:
  SpanRecorder();

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (0 when disabled). `parent` = 0 makes
  /// it a child of the calling thread's innermost open span, if any.
  uint64_t Begin(const std::string& name, uint64_t request = 0,
                 uint64_t parent = 0);
  void End(uint64_t id);
  /// Records an already-measured interval (e.g. a latency the program
  /// reported); returns its id.
  uint64_t Add(const std::string& name, Clock::time_point start,
               Clock::time_point end, uint64_t request, uint64_t parent);

  std::vector<Span> Snapshot() const;

  /// Writes every span as one JSON object per line. Returns false on an
  /// I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_ = false;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

/// The process-wide recorder the benchmark's own files record into;
/// disabled unless the run is traced.
SpanRecorder& TraceSpans();

/// Self time per span name over `spans` (see SelfTime).
std::map<std::string, SelfTime> ComputeSelfTimes(const std::vector<Span>& spans);

/// RAII span on a recorder; a no-op when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, uint64_t request = 0)
      : recorder_(recorder),
        id_(recorder.enabled() ? recorder.Begin(name, request) : 0) {}
  ~ScopedSpan() {
    if (id_ != 0) recorder_.End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  SpanRecorder& recorder_;
  uint64_t id_;
};

}  // namespace pdxbench

#endif  // PDXBENCH_SPANS_H_
