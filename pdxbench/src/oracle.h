#ifndef PDXBENCH_ORACLE_H_
#define PDXBENCH_ORACLE_H_

// Brute-force ground truth, independent of the library under test: a plain
// double-precision L2 scan over row-major floats.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "index/topk.h"

namespace pdxbench {

struct TrueNeighbor {
  uint32_t id = 0;
  double distance = 0.0;  ///< Squared L2, double precision.
};

/// Exact k nearest rows of every query (ascending distance, ties by id).
/// `rows` holds `count` x `dim` floats, `queries` `num_queries` x `dim`.
/// `ids` (optional) names each row; row index otherwise. Runs on `threads`
/// threads.
std::vector<std::vector<TrueNeighbor>> BruteForceTopK(
    const float* rows, size_t count, const float* queries,
    size_t num_queries, size_t dim, size_t k,
    const std::vector<uint32_t>* ids = nullptr, size_t threads = 1);

/// Fraction of the true top-k ids present in `result` (first k entries).
double RecallAt(const std::vector<pdx::Neighbor>& result,
                const std::vector<TrueNeighbor>& truth, size_t k);

/// Exactness check for an exact collection: `result` must hold k distinct
/// ids, be the true top-k set, and be ranked nearest first. Float ties are
/// forgiven (the engine sums in float, the oracle in double): an id outside
/// the true set passes when its true distance is within a relative
/// `tie_tolerance` of the k-th true distance, and two neighbours may swap
/// places when their true distances are that close. `rows`/`dim` give the oracle the distance of any returned id;
/// `row_of_id` maps an id to its row (nullptr = the id is the row).
bool MatchesExact(const std::vector<pdx::Neighbor>& result,
                  const std::vector<TrueNeighbor>& truth, size_t k,
                  const float* query, const float* rows, size_t dim,
                  const std::vector<int64_t>* row_of_id = nullptr,
                  double tie_tolerance = 1e-5);

/// Squared L2 in double precision.
double SquaredL2(const float* a, const float* b, size_t dim);

}  // namespace pdxbench

#endif  // PDXBENCH_ORACLE_H_
