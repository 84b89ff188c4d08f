#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace pdxbench {

namespace {

// Open spans of the calling thread, innermost last: the implicit parent of
// a new span. Only Begin/End touch it, so spans recorded with Add (whose
// interval already ended) never become anybody's implicit parent.
thread_local std::vector<uint64_t> open_spans;

}  // namespace

SpanRecorder& TraceSpans() {
  static SpanRecorder recorder;
  return recorder;
}

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

uint64_t SpanRecorder::Begin(const std::string& name, uint64_t request,
                             uint64_t parent) {
  if (!enabled_) return 0;
  if (parent == 0 && !open_spans.empty()) parent = open_spans.back();
  const double now = MsBetween(epoch_, Clock::now());
  uint64_t id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = next_id_++;
    spans_.push_back(Span{id, parent, request, name, now, now});
  }
  open_spans.push_back(id);
  return id;
}

void SpanRecorder::End(uint64_t id) {
  if (id == 0) return;
  const double now = MsBetween(epoch_, Clock::now());
  auto it = std::find(open_spans.rbegin(), open_spans.rend(), id);
  if (it != open_spans.rend()) open_spans.erase(std::next(it).base());
  std::lock_guard<std::mutex> lock(mutex_);
  // Spans end in roughly the order they began; search from the back.
  for (auto span = spans_.rbegin(); span != spans_.rend(); ++span) {
    if (span->id == id) {
      span->end_ms = now;
      return;
    }
  }
}

uint64_t SpanRecorder::Add(const std::string& name, Clock::time_point start,
                           Clock::time_point end, uint64_t request,
                           uint64_t parent) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t id = next_id_++;
  spans_.push_back(Span{id, parent, request, name, MsBetween(epoch_, start),
                        MsBetween(epoch_, end)});
  return id;
}

std::vector<Span> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"name\":\"%s\",\"start_ms\":%.6f,\"end_ms\":%.6f}\n",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request),
                 span.name.c_str(), span.start_ms, span.end_ms);
  }
  return std::fclose(out) == 0;
}

std::map<std::string, SelfTime> ComputeSelfTimes(
    const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<double, double>>> kids;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      kids[span.parent].emplace_back(span.start_ms, span.end_ms);
    }
  }
  std::map<std::string, SelfTime> out;
  for (const Span& span : spans) {
    const double duration = std::max(0.0, span.end_ms - span.start_ms);
    double covered = 0.0;
    auto found = kids.find(span.id);
    if (found != kids.end()) {
      // Union of the children's intervals, clipped to this span.
      std::vector<std::pair<double, double>>& intervals = found->second;
      std::sort(intervals.begin(), intervals.end());
      double cursor = span.start_ms;
      for (const auto& [begin, end] : intervals) {
        const double lo = std::max(begin, cursor);
        const double hi = std::min(end, span.end_ms);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
    }
    SelfTime& agg = out[span.name];
    agg.spans += 1;
    agg.total_ms += duration;
    agg.self_ms += std::max(0.0, duration - covered);
  }
  return out;
}

}  // namespace pdxbench
