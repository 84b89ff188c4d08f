#ifndef PDXBENCH_ENV_H_
#define PDXBENCH_ENV_H_

// Run options, the result a workload hands back, and the environment stamp
// every result carries.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace pdxbench {

/// Ends the run (exit code 3, no result line) when a call the benchmark
/// depends on fails: a run that cannot set up measures nothing.
[[noreturn]] void Die(const std::string& what, const pdx::Status& status);
inline void Check(const pdx::Status& status, const std::string& what) {
  if (!status.ok()) Die(what, status);
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha = "unknown";
  /// Directory (inside the checkout) for save files, spans and result
  /// files; created if missing.
  std::string out_dir = ".bench_run";
};

/// One reported metric.
struct MetricValue {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run produces. `metrics` holds the end-to-end metrics
/// untraced and the per-layer metrics traced; `stamp` holds everything
/// else worth keeping (environment, shapes, sample counts, metrics that
/// only some workloads have), as JSON-encoded values.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<MetricValue> metrics;
  std::vector<std::pair<std::string, std::string>> stamp;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(MetricValue{name, value, unit});
  }
  void Stamp(const std::string& key, double value);
  void Stamp(const std::string& key, const std::string& value);
  /// Fails the run's correctness gate with a reason kept in the stamp.
  void Fail(const std::string& reason);
};

/// Shortest round-trip decimal form of `value` ("null" if not finite).
std::string JsonNumber(double value);
/// `text` as a quoted, escaped JSON string.
std::string JsonString(const std::string& text);

/// Peak resident set of this process so far, MiB.
double PeakRssMiB();
/// Last-level (L3) cache size in bytes as the C library reports it (0 when
/// unknown).
size_t L3Bytes();
/// Hardware threads available to this process.
size_t HardwareThreads();
/// File system type of `path` ("ext4", "xfs", "tmpfs", "overlay", ... or the
/// magic number in hex).
std::string FileSystemOf(const std::string& path);

/// Stamps seed, git sha, dispatched ISA, nproc, L3 and the save directory's
/// file system into `result`.
void StampEnvironment(const RunOptions& options, RunResult& result);

}  // namespace pdxbench

#endif  // PDXBENCH_ENV_H_
