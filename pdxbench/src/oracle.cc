#include "oracle.h"

#include <algorithm>
#include <queue>
#include <thread>
#include <unordered_set>

namespace pdxbench {

double SquaredL2(const float* a, const float* b, size_t dim) {
  // Eight independent accumulators let the compiler keep several FMA chains
  // in flight without reassociating any single one.
  double acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  size_t d = 0;
  for (; d + 8 <= dim; d += 8) {
    for (size_t j = 0; j < 8; ++j) {
      const double diff = static_cast<double>(a[d + j]) - b[d + j];
      acc[j] += diff * diff;
    }
  }
  for (; d < dim; ++d) {
    const double diff = static_cast<double>(a[d]) - b[d];
    acc[0] += diff * diff;
  }
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

namespace {

bool Closer(const TrueNeighbor& a, const TrueNeighbor& b) {
  return a.distance < b.distance || (a.distance == b.distance && a.id < b.id);
}

struct Worse {
  bool operator()(const TrueNeighbor& a, const TrueNeighbor& b) const {
    return Closer(a, b);  // max-heap on (distance, id): top is the worst
  }
};

using Heap = std::priority_queue<TrueNeighbor, std::vector<TrueNeighbor>, Worse>;

void Offer(Heap& heap, size_t k, TrueNeighbor candidate) {
  if (heap.size() < k) {
    heap.push(candidate);
  } else if (Closer(candidate, heap.top())) {
    heap.pop();
    heap.push(candidate);
  }
}

}  // namespace

std::vector<std::vector<TrueNeighbor>> BruteForceTopK(
    const float* rows, size_t count, const float* queries,
    size_t num_queries, size_t dim, size_t k,
    const std::vector<uint32_t>* ids, size_t threads) {
  threads = std::max<size_t>(1, std::min(threads, count));
  // Each thread scans one contiguous row range against every query, so the
  // collection streams from memory once per thread; a chunk of rows stays
  // cache-resident while all queries visit it.
  constexpr size_t kChunk = 32;
  std::vector<std::vector<Heap>> partial(threads,
                                         std::vector<Heap>(num_queries));
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const size_t begin = count * t / threads;
      const size_t end = count * (t + 1) / threads;
      for (size_t chunk = begin; chunk < end; chunk += kChunk) {
        const size_t chunk_end = std::min(end, chunk + kChunk);
        for (size_t q = 0; q < num_queries; ++q) {
          const float* query = queries + q * dim;
          for (size_t r = chunk; r < chunk_end; ++r) {
            const uint32_t id =
                ids != nullptr ? (*ids)[r] : static_cast<uint32_t>(r);
            Offer(partial[t][q], k,
                  TrueNeighbor{id, SquaredL2(query, rows + r * dim, dim)});
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  std::vector<std::vector<TrueNeighbor>> out(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    Heap merged;
    for (size_t t = 0; t < threads; ++t) {
      while (!partial[t][q].empty()) {
        Offer(merged, k, partial[t][q].top());
        partial[t][q].pop();
      }
    }
    while (!merged.empty()) {
      out[q].push_back(merged.top());
      merged.pop();
    }
    std::reverse(out[q].begin(), out[q].end());
  }
  return out;
}

double RecallAt(const std::vector<pdx::Neighbor>& result,
                const std::vector<TrueNeighbor>& truth, size_t k) {
  const size_t want = std::min(k, truth.size());
  if (want == 0) return 1.0;
  std::unordered_set<uint32_t> truth_ids;
  for (size_t i = 0; i < want; ++i) truth_ids.insert(truth[i].id);
  size_t hits = 0;
  for (size_t i = 0; i < std::min(k, result.size()); ++i) {
    hits += truth_ids.count(result[i].id);
  }
  return static_cast<double>(hits) / static_cast<double>(want);
}

bool MatchesExact(const std::vector<pdx::Neighbor>& result,
                  const std::vector<TrueNeighbor>& truth, size_t k,
                  const float* query, const float* rows, size_t dim,
                  const std::vector<int64_t>* row_of_id,
                  double tie_tolerance) {
  const size_t want = std::min(k, truth.size());
  if (result.size() != want) return false;
  if (want == 0) return true;
  std::unordered_set<uint32_t> truth_ids;
  for (size_t i = 0; i < want; ++i) truth_ids.insert(truth[i].id);
  const double kth = truth[want - 1].distance;
  std::unordered_set<uint32_t> seen;
  double previous = 0.0;
  for (const pdx::Neighbor& hit : result) {
    if (!seen.insert(hit.id).second) return false;  // duplicate id
    int64_t row = static_cast<int64_t>(hit.id);
    if (row_of_id != nullptr) {
      if (hit.id >= row_of_id->size()) return false;
      row = (*row_of_id)[hit.id];
    }
    if (row < 0) return false;  // not a live id
    const double distance =
        SquaredL2(query, rows + static_cast<size_t>(row) * dim, dim);
    // Outside the true set only as a float tie with the k-th neighbour.
    if (truth_ids.count(hit.id) == 0 && distance > kth * (1.0 + tie_tolerance)) {
      return false;
    }
    // Ranked nearest first, up to float ties.
    if (distance * (1.0 + tie_tolerance) < previous) return false;
    previous = distance;
  }
  return true;
}

}  // namespace pdxbench
