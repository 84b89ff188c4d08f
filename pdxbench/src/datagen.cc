#include "datagen.h"

#include <algorithm>
#include <cmath>
#include <thread>

namespace pdxbench {

uint64_t Mix(uint64_t seed, uint64_t tag) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

// xorshift64* — small, fast, and good enough for synthetic vectors.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed | 1) {}
  uint64_t Next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545f4914f6cdd1dull;
  }
  double Uniform() {  // [0, 1)
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }
  // Unit-variance bell curve from the sum of four 16-bit uniforms
  // (Irwin-Hall, tails cut at +-3.46): one generator step per value.
  float Normal() {
    const uint64_t bits = Next();
    const uint32_t sum = static_cast<uint32_t>(bits & 0xffff) +
                         static_cast<uint32_t>((bits >> 16) & 0xffff) +
                         static_cast<uint32_t>((bits >> 32) & 0xffff) +
                         static_cast<uint32_t>(bits >> 48);
    return (static_cast<float>(sum) * (1.0f / 65536.0f) - 2.0f) * 1.7320508f;
  }
};

// Heterogeneous dimensions (per-dimension offset and noise scale) make
// query-aware dimension ordering meaningful; cluster centres spread 1.5
// noise scales around the offset; cluster popularity falls off as
// 1/sqrt(rank), so IVF buckets vary in size as in real collections.
struct Centers {
  std::vector<float> offset;          // per dimension
  std::vector<float> scale;           // per dimension
  std::vector<float> means;           // clusters x dim
  std::vector<double> cumulative;     // cluster sampling weights
};

Centers MakeCenters(const Mixture& m) {
  Centers c;
  Rng rng(Mix(m.model_seed, 0xC0FFEE));
  c.offset.resize(m.dim);
  c.scale.resize(m.dim);
  for (size_t d = 0; d < m.dim; ++d) {
    c.offset[d] = static_cast<float>(2.0 * rng.Uniform() - 1.0);
    c.scale[d] = static_cast<float>(0.4 + 1.2 * rng.Uniform());
  }
  c.means.resize(m.clusters * m.dim);
  for (size_t k = 0; k < m.clusters; ++k) {
    for (size_t d = 0; d < m.dim; ++d) {
      c.means[k * m.dim + d] = c.offset[d] + 1.5f * c.scale[d] * rng.Normal();
    }
  }
  double total = 0.0;
  for (size_t k = 0; k < m.clusters; ++k) {
    total += 1.0 / std::sqrt(static_cast<double>(k + 1));
    c.cumulative.push_back(total);
  }
  for (double& w : c.cumulative) w /= total;
  return c;
}

}  // namespace

std::vector<float> GenerateRows(const Mixture& m, uint64_t first,
                                size_t count, size_t threads) {
  const Centers centers = MakeCenters(m);
  std::vector<float> out(count * m.dim);
  threads = std::max<size_t>(1, std::min(threads, count));
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t r = count * t / threads; r < count * (t + 1) / threads;
           ++r) {
        Rng rng(Mix(m.seed, first + r));
        const double u = rng.Uniform();
        const size_t cluster = static_cast<size_t>(
            std::lower_bound(centers.cumulative.begin(),
                             centers.cumulative.end() - 1, u) -
            centers.cumulative.begin());
        const float* mean = centers.means.data() + cluster * m.dim;
        float* row = out.data() + r * m.dim;
        for (size_t d = 0; d < m.dim; ++d) {
          const float x = mean[d] + centers.scale[d] * rng.Normal();
          row[d] = m.shape == Shape::kSkewed ? std::exp(0.5f * x) : x;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return out;
}

}  // namespace pdxbench
