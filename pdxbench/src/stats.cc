#include "stats.h"

#include <algorithm>
#include <cmath>

namespace pdxbench {

namespace {

size_t Rank(size_t n, double p) {
  const double exact = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(exact, 1.0)), 1, n);
}

}  // namespace

double NearestRank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[Rank(sorted.size(), p) - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - Rank(n, p);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Distribution Summarize(std::vector<double> samples) {
  Distribution out;
  std::sort(samples.begin(), samples.end());
  out.count = samples.size();
  if (samples.empty()) return out;
  out.p50 = NearestRank(samples, 50.0);
  out.p99 = NearestRank(samples, 99.0);
  out.p99_resolved = SamplesBeyond(samples.size(), 99.0) >= 10;
  return out;
}

OpenLoopSchedule OpenLoopSchedule::Poisson(Clock::time_point start,
                                           double rate_per_s, double seconds,
                                           uint64_t seed) {
  // Exactly round(rate x seconds) arrivals placed as a Poisson process
  // conditioned on that count: cumulative exponential gaps, scaled so the
  // (count + 1)-th arrival would land at `seconds`. Conditioning removes
  // the count's own seed-to-seed noise from the offered load.
  const size_t count =
      static_cast<size_t>(std::llround(rate_per_s * seconds));
  OpenLoopSchedule schedule(start);
  std::vector<double> cumulative;
  double at = 0.0;
  for (uint64_t i = 0; i <= count; ++i) {
    // splitmix64 of (seed, i) -> uniform in (0, 1] -> exponential gap.
    uint64_t z = seed + 0x9e3779b97f4a7c15ull * (i + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    const double u = (static_cast<double>(z >> 11) + 1.0) * 0x1.0p-53;
    at += -std::log(u);
    cumulative.push_back(at);
  }
  for (size_t i = 0; i < count; ++i) {
    schedule.offsets_s_.push_back(cumulative[i] / at * seconds);
  }
  return schedule;
}

Clock::time_point OpenLoopSchedule::Due(size_t i) const {
  if (i >= offsets_s_.size()) return Clock::time_point::max();
  return start_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(offsets_s_[i]));
}

size_t OpenLoopSchedule::CountWithin(double seconds) const {
  return static_cast<size_t>(
      std::lower_bound(offsets_s_.begin(), offsets_s_.end(), seconds) -
      offsets_s_.begin());
}

}  // namespace pdxbench
