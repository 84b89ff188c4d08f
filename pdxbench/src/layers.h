#ifndef PDXBENCH_LAYERS_H_
#define PDXBENCH_LAYERS_H_

// Per-layer probes of the traced run. Each probe calls one layer's public
// functions directly — on blocks or twins shaped like the workload's
// collections — records a span around every call, and returns the layer's
// numbers.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/any_searcher.h"
#include "core/sharded_searcher.h"
#include "oracle.h"
#include "serve/search_service.h"
#include "storage/vector_set.h"

namespace pdxbench {

/// A collection as the workloads and probes see it: its rows, its query
/// set with ground truth, and how it is served.
struct BenchCollection {
  std::string name;
  pdx::SearcherConfig config;
  pdx::ShardingOptions sharding;
  bool exact = false;  ///< Results must match the oracle exactly.
  /// Built outside the service and adopted: immutable, and without the
  /// horizontal row copy a live (mutable) collection keeps.
  bool adopt = false;
  pdx::VectorSet data;
  std::vector<float> queries;  ///< num_queries x dim, row-major.
  size_t num_queries = 0;
  std::vector<std::vector<TrueNeighbor>> truth;

  size_t dim() const { return data.dim(); }
  const float* query(size_t q) const { return queries.data() + q * dim(); }
  /// Vectors per PDX block the served store uses.
  size_t block_lanes() const;
};

/// GB/s of one kernel column, per ISA tier (0 for a tier this host cannot
/// run).
struct KernelRates {
  double pdx_accumulate[3] = {0, 0, 0};
  double pdx_linear_scan[3] = {0, 0, 0};
  double quant_accumulate[3] = {0, 0, 0};
  double nary_batch[3] = {0, 0, 0};
};

/// Times every kernel column of every tier on one (lanes x dim) block
/// shaped like each collection; rates are averaged over the collections.
KernelRates ProbeKernels(const std::vector<const BenchCollection*>& shapes);

struct EngineNumbers {
  size_t queries = 0;
  // Per-query means.
  double preprocess_ms = 0, find_buckets_ms = 0, bounds_ms = 0,
         distance_ms = 0;
  double values_scanned = 0, blocks_visited = 0, vectors_pruned = 0;
  double pruning_power = 0;
  double batch_efficiency = 0;
  double shard_speedup = 0;
};

/// Engine phases and counters through SearchWith on an unsharded twin of
/// `c` with collect_phase_times; batch fan-out efficiency through
/// SearchBatchWith on the same twin over `pool`; shard speed-up of a
/// `pool`-many-shard twin (one-query SearchBatchWith, the serving layer's
/// dispatch call) against the unsharded SearchWith.
EngineNumbers ProbeEngine(const BenchCollection& c, pdx::ThreadPool& pool,
                          size_t max_queries);

struct QuantNumbers {
  double query_ms = 0;
  double rerank_candidates = 0;
  double code_bytes = 0;
  double recall_at_10 = 0;
};

/// The u8 tier on an unsharded twin of `c` (exact rerank, factor 4).
QuantNumbers ProbeQuant(const BenchCollection& c, size_t max_queries);

struct StorageNumbers {
  double add_ms = 0;
  double delete_ms = 0;
  double compaction_ms = 0;
};

/// MutableSearcher Add / DeleteBatch / Compact on a twin over the first
/// `max_rows` rows of `c`; appended rows come from `extra_rows`.
StorageNumbers ProbeStorage(const BenchCollection& c, size_t max_rows,
                            const std::vector<float>& extra_rows);

struct NetNumbers {
  double handler_ms = 0;
  double parse_ms = 0;
  double serialize_ms = 0;
  double bytes_per_search = 0;
};

/// The wire layer without a socket: SearchHandler::AsHttpHandler() called
/// in-process against `service`, plus ParseJson / WriteJson on the same
/// request and response bodies.
NetNumbers ProbeNet(pdx::SearchService& service, const BenchCollection& c,
                    size_t max_queries);

/// The JSON search body the benchmark sends for `query`.
std::string SearchBody(const float* query, size_t dim, size_t k, bool trace);

}  // namespace pdxbench

#endif  // PDXBENCH_LAYERS_H_
