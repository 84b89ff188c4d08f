#ifndef PDXBENCH_STATS_H_
#define PDXBENCH_STATS_H_

// Full-sample latency statistics and the open-loop schedule. Everything the
// benchmark reports as a percentile goes through NearestRank over every
// sample of the measured window — never through a sliding-window recorder.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pdxbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds from `from` to `to` (negative when `to` is earlier).
inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Nearest-rank percentile of `sorted` (ascending): the value at rank
/// ceil(p / 100 * n), 1-based, clamped to [1, n]. 0 on an empty input.
double NearestRank(const std::vector<double>& sorted, double p);

/// Samples strictly beyond the nearest-rank position of percentile `p`.
size_t SamplesBeyond(size_t n, double p);

/// Median of `values` (the mean of the middle pair on an even count).
double Median(std::vector<double> values);

/// Summary of one full-sample distribution.
struct Distribution {
  size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  /// True when at least ten samples lie beyond the p99 rank, i.e. the p99
  /// is a resolved percentile rather than a near-maximum.
  bool p99_resolved = false;
};

Distribution Summarize(std::vector<double> samples);

/// Open-loop schedule: request i is due at a fixed time whatever happened
/// to earlier requests. Latency is timed from the due time, so a stalled
/// generator or server charges its stall to every request that should have
/// gone out meanwhile.
class OpenLoopSchedule {
 public:
  /// Poisson arrivals at `rate_per_s` for `seconds`, conditioned on their
  /// count (exactly round(rate x seconds) requests, at the times of sorted
  /// uniform draws): exponential gaps drawn from `seed` (the same seed,
  /// the same times).
  static OpenLoopSchedule Poisson(Clock::time_point start, double rate_per_s,
                                  double seconds, uint64_t seed);

  /// Due time of request i; Clock::time_point::max() past the end.
  Clock::time_point Due(size_t i) const;
  /// How late request i went out when it was sent at `sent`, ms (0 when
  /// on time or early).
  double LatenessMs(size_t i, Clock::time_point sent) const {
    const double late = MsBetween(Due(i), sent);
    return late > 0.0 ? late : 0.0;
  }
  /// Requests due in [start, start + seconds).
  size_t CountWithin(double seconds) const;

 private:
  explicit OpenLoopSchedule(Clock::time_point start) : start_(start) {}

  Clock::time_point start_;
  std::vector<double> offsets_s_;  ///< Due times, seconds after start_.
};

}  // namespace pdxbench

#endif  // PDXBENCH_STATS_H_
