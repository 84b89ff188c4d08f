#ifndef PDXBENCH_DATAGEN_H_
#define PDXBENCH_DATAGEN_H_

// The benchmark's own input generator, so that the inputs depend only on
// the seed and this file — never on generator code inside the program under
// test. Gaussian-mixture rows with per-dimension offsets and scales (IVF
// clustering and query-aware dimension ordering both have signal);
// "skewed" pushes the mixture through exp(x / 2), giving the non-negative,
// long-tailed marginals of SIFT/GIST-like features.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pdxbench {

enum class Shape { kNormal, kSkewed };

/// A mixture is a fixed distribution (`model_seed` places its clusters,
/// offsets and scales) sampled under `seed`: a workload keeps its
/// distribution across seeds, and each seed draws a fresh sample of it, as
/// a different sample of one real dataset would be.
struct Mixture {
  size_t dim = 0;
  size_t clusters = 32;
  Shape shape = Shape::kNormal;
  uint64_t model_seed = 1;
  uint64_t seed = 1;
};

/// Rows `first .. first + count` of the mixture's infinite row stream,
/// row-major. Row i depends only on (mixture, i): any split of the stream
/// into calls, and any thread count, yields the same values.
std::vector<float> GenerateRows(const Mixture& mixture, uint64_t first,
                                size_t count, size_t threads = 1);

/// 64-bit mix of a seed and a stream tag (splitmix64 finalizer).
uint64_t Mix(uint64_t seed, uint64_t tag);

}  // namespace pdxbench

#endif  // PDXBENCH_DATAGEN_H_
