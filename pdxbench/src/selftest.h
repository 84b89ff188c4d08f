#ifndef PDXBENCH_SELFTEST_H_
#define PDXBENCH_SELFTEST_H_

#include <ostream>

namespace pdxbench {

/// Checks the benchmark's own helpers: nearest-rank percentiles, open-loop
/// lateness, span self-time arithmetic, and the recall/exactness oracle on
/// a tiny set. Prints one line per failure to `log`; returns the number of
/// failed checks. Every benchmark run calls it before measuring.
int RunSelfTests(std::ostream& log);

}  // namespace pdxbench

#endif  // PDXBENCH_SELFTEST_H_
