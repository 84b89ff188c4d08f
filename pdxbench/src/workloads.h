#ifndef PDXBENCH_WORKLOADS_H_
#define PDXBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "env.h"

namespace pdxbench {

/// The workload names the benchmark accepts.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload: generates its inputs from the seed, sets it up,
/// measures for options.seconds, checks every result against the
/// brute-force oracle, and fills the end-to-end metrics (untraced) or the
/// per-layer metrics (traced).
RunResult RunWorkload(const RunOptions& options);

}  // namespace pdxbench

#endif  // PDXBENCH_WORKLOADS_H_
