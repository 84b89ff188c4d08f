#include "workloads.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cctype>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#include "datagen.h"
#include "layers.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/json.h"
#include "net/search_handler.h"
#include "obs/metrics.h"
#include "serve/search_service.h"
#include "spans.h"
#include "stats.h"

namespace pdxbench {

namespace {

constexpr size_t kK = 10;
constexpr double kWarmupSeconds = 1.0;
/// Set-ups per untraced run (a traced run sets up once); setup_s is their
/// median. ann-ivf measures a third of its window after each set-up; the
/// other workloads measure once, after the last.
constexpr int kSetups = 3;
/// Traced runs alternate untraced and traced segments this many times
/// each, so the tracing overhead is a ratio of medians, not of one pair.
constexpr size_t kTraceSegmentPairs = 3;
/// Row streams of the generator: collection rows start at 0; queries and
/// appended rows come from streams far past any collection.
constexpr uint64_t kQueryStream = 1ull << 40;
constexpr uint64_t kAppendStream = 1ull << 41;
/// Sample seed of every collection's rows: the same for every --seed.
constexpr uint64_t kDatasetSeed = 0x5DA7A5E7;

size_t PoolThreads() { return std::min<size_t>(4, HardwareThreads()); }

// ---------------------------------------------------------------------------
// Inputs

struct CollectionSpec {
  std::string name;
  size_t dim = 0;
  size_t rows = 0;
  size_t queries = 0;
  Shape shape = Shape::kNormal;
  uint64_t tag = 0;  ///< Names the collection's distribution; seeds mix it.
};

Mixture MixtureOf(const CollectionSpec& spec, uint64_t seed) {
  Mixture m;
  m.dim = spec.dim;
  m.shape = spec.shape;
  m.model_seed = spec.tag;  // the workload's distribution: fixed
  m.seed = Mix(seed, spec.tag);  // its sample: per seed
  return m;
}

/// Generates rows, queries and ground truth for `spec`. The rows are the
/// workload's fixed dataset (drawn under kDatasetSeed, like a public
/// benchmark collection); `seed` draws the query set, as it does the query
/// order and the write stream.
void MakeInputs(const CollectionSpec& spec, uint64_t seed,
                BenchCollection& c) {
  const Mixture m = MixtureOf(spec, kDatasetSeed);
  c.name = spec.name;
  c.data = pdx::VectorSet(spec.dim, spec.rows);
  constexpr size_t kChunk = 8192;  // bounds the generator's extra memory
  for (size_t first = 0; first < spec.rows; first += kChunk) {
    const size_t n = std::min(kChunk, spec.rows - first);
    c.data.AppendBatch(GenerateRows(m, first, n, PoolThreads()).data(), n);
  }
  c.queries = GenerateRows(MixtureOf(spec, seed), kQueryStream, spec.queries,
                           PoolThreads());
  c.num_queries = spec.queries;
  c.truth = BruteForceTopK(c.data.data(), spec.rows, c.queries.data(),
                           spec.queries, spec.dim, kK, nullptr,
                           PoolThreads());
}

void StampShape(RunResult& r, const BenchCollection& c) {
  r.Stamp("collection." + c.name + ".rows", static_cast<double>(c.data.count()));
  r.Stamp("collection." + c.name + ".dim", static_cast<double>(c.dim()));
  r.Stamp("collection." + c.name + ".raw_mb",
          static_cast<double>(c.data.count() * c.dim() * 4) / 1e6);
  r.Stamp("collection." + c.name + ".config",
          std::string(pdx::SearcherLayoutName(c.config.layout)) + "/" +
              pdx::PrunerKindName(c.config.pruner) + "/" +
              pdx::QuantizationKindName(c.config.quantization) + "/shards=" +
              std::to_string(c.sharding.num_shards) +
              "/nprobe=" + std::to_string(c.config.nprobe));
}

// ---------------------------------------------------------------------------
// Services

struct Host {
  std::unique_ptr<pdx::MetricsRegistry> registry;
  std::unique_ptr<pdx::SearchService> service;
};

/// A service on a PoolThreads() pool. `dispatchers` is the number of
/// batches in flight at once; the workloads keep the service's default of
/// 2 except ann-ivf, whose cheap queries leave the pool half idle unless
/// every pool thread has a batch of its own.
std::unique_ptr<Host> NewHost(size_t dispatchers = 2,
                              pdx::MutationConfig mutation = {}) {
  auto host = std::make_unique<Host>();
  host->registry = std::make_unique<pdx::MetricsRegistry>();
  pdx::ServiceConfig config;
  config.threads = PoolThreads();
  config.max_pending = 1 << 16;
  config.max_batch = 8;
  config.dispatchers = dispatchers;
  config.metrics = host->registry.get();
  config.mutation = mutation;
  host->service = std::make_unique<pdx::SearchService>(config);
  return host;
}

int Setups(const RunOptions& options) { return options.trace ? 1 : kSetups; }

/// Hosts `c` on `service` the way its spec says; returns the ms it took.
double HostCollection(pdx::SearchService& service, const BenchCollection& c) {
  const Clock::time_point start = Clock::now();
  ScopedSpan span(TraceSpans(), "index.build");
  if (c.adopt) {
    auto made = c.sharding.num_shards > 1
                    ? pdx::MakeShardedSearcher(c.data, c.config, c.sharding)
                    : pdx::MakeSearcher(c.data, c.config);
    if (!made.ok()) Die("build " + c.name, made.status());
    std::unique_ptr<pdx::Searcher> searcher = std::move(made).value();
    Check(service.AddCollection(c.name, searcher), "adopt " + c.name);
  } else {
    Check(c.sharding.num_shards > 1
              ? service.AddCollection(c.name, c.data, c.config, c.sharding)
              : service.AddCollection(c.name, c.data, c.config),
          "AddCollection " + c.name);
  }
  return MsBetween(start, Clock::now());
}

struct CollectionTotals {
  uint64_t completed = 0;
  uint64_t dispatches = 0;
};

CollectionTotals Totals(const pdx::SearchService& service) {
  CollectionTotals t;
  for (const auto& [name, stats] : service.Stats().collections) {
    t.completed += stats.completed;
    t.dispatches += stats.dispatches;
  }
  return t;
}

double MeanDispatcherBusy(const pdx::SearchService& service) {
  const pdx::ServiceStats stats = service.Stats();
  double sum = 0.0;
  for (const pdx::DispatcherStats& d : stats.dispatchers) sum += d.busy_fraction;
  return stats.dispatchers.empty() ? 0.0 : sum / stats.dispatchers.size();
}

// ---------------------------------------------------------------------------
// Measured window, optionally split into alternating untraced / traced
// segments.

struct Window {
  Clock::time_point start;
  double seconds = 0.0;
  size_t segments = 1;  ///< 1 = one plain segment; else 2 x pairs.

  Clock::time_point end() const {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
  }
  bool Contains(Clock::time_point t) const { return t >= start && t < end(); }
  /// Segment of `t` (valid when Contains(t)).
  size_t Segment(Clock::time_point t) const {
    const double at = std::chrono::duration<double>(t - start).count();
    return std::min(segments - 1,
                    static_cast<size_t>(at / seconds *
                                        static_cast<double>(segments)));
  }
  /// Odd segments are traced when the window is segmented.
  bool Traced(Clock::time_point t) const {
    return segments > 1 && Contains(t) && Segment(t) % 2 == 1;
  }
  double SegmentSeconds() const {
    return seconds / static_cast<double>(segments);
  }
};

/// Completions per second over the part of the window they occupied: from
/// the window's start to the last completion inside it.
double Throughput(uint64_t completed, const Window& window,
                  Clock::time_point last_done) {
  const double span_ms = MsBetween(window.start, last_done);
  return span_ms > 0.0 ? 1000.0 * static_cast<double>(completed) / span_ms
                       : 0.0;
}

/// Per-segment completions -> (median traced rate) / (median untraced rate).
double TraceOverhead(const std::vector<uint64_t>& per_segment,
                     double segment_seconds) {
  std::vector<double> plain, traced;
  for (size_t s = 0; s < per_segment.size(); ++s) {
    (s % 2 == 1 ? traced : plain)
        .push_back(static_cast<double>(per_segment[s]) / segment_seconds);
  }
  const double base = Median(plain);
  return base > 0.0 ? Median(traced) / base : 0.0;
}

struct StageSamples {
  std::vector<double> queue, stage, search, deliver;

  void Add(const pdx::QueryTrace& trace) {
    queue.push_back(trace.queue_ms);
    stage.push_back(trace.stage_ms);
    search.push_back(trace.search_ms);
    deliver.push_back(trace.deliver_ms);
  }
  void Append(const StageSamples& other) {
    for (auto [dst, src] : {std::pair{&queue, &other.queue},
                            std::pair{&stage, &other.stage},
                            std::pair{&search, &other.search},
                            std::pair{&deliver, &other.deliver}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
  }
};

/// Records the service's stage breakdown of one traced query as child spans
/// of `parent`, laid end to end from `start`.
void AddStageSpans(Clock::time_point start, uint64_t parent, uint64_t request,
                   double queue_ms, double stage_ms, double search_ms,
                   double deliver_ms) {
  const std::pair<const char*, double> stages[4] = {
      {"serve.queue", queue_ms},
      {"serve.stage", stage_ms},
      {"serve.search", search_ms},
      {"serve.deliver", deliver_ms}};
  Clock::time_point cursor = start;
  for (const auto& [name, ms] : stages) {
    const Clock::time_point next =
        cursor + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(ms));
    TraceSpans().Add(name, cursor, next, request, parent);
    cursor = next;
  }
}

// ---------------------------------------------------------------------------
// Closed loop over an in-process SearchService.

struct LoopResult {
  std::vector<double> latency_ms;  ///< Every request submitted in the window.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;     ///< Exact collections only.
  uint64_t completed = 0;      ///< Completions inside the window.
  Clock::time_point last_done{};  ///< Latest completion inside the window.
  /// Per collection of the loop: summed recall and its sample count.
  std::vector<double> recall_sum;
  std::vector<uint64_t> recall_count;
  std::vector<uint64_t> per_segment;  ///< Completions per window segment.
  StageSamples stages;                ///< Traced queries only.

  LoopResult(size_t collections, size_t segments)
      : recall_sum(collections, 0.0),
        recall_count(collections, 0),
        per_segment(segments, 0) {}

  void Append(const LoopResult& other) {
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                      other.latency_ms.end());
    attempted += other.attempted;
    failed += other.failed;
    mismatches += other.mismatches;
    completed += other.completed;
    last_done = std::max(last_done, other.last_done);
    for (size_t c = 0; c < recall_sum.size(); ++c) {
      recall_sum[c] += other.recall_sum[c];
      recall_count[c] += other.recall_count[c];
    }
    for (size_t s = 0; s < per_segment.size(); ++s) {
      per_segment[s] += other.per_segment[s];
    }
    stages.Append(other.stages);
  }
};

/// One answered query as the service's callback hands it to its client.
struct Completion {
  pdx::QueryResult result;
  Clock::time_point submitted, done;
  size_t collection = 0;  ///< Index into the loop's collections.
  size_t q = 0;
};

/// `clients` threads each keep `outstanding` queries in flight, cycling
/// over `collections`; a warm-up precedes the window and is not recorded.
/// The completion callback runs on the service's dispatcher thread, so it
/// only stamps the time and queues the result; the client thread checks
/// results against the oracle between its submissions.
LoopResult RunClosedLoop(pdx::SearchService& service,
                         const std::vector<const BenchCollection*>& collections,
                         size_t clients, size_t outstanding, Window window,
                         uint64_t seed) {
  LoopResult total(collections.size(), window.segments);
  std::mutex total_mutex;

  std::vector<std::thread> threads;
  for (size_t client = 0; client < clients; ++client) {
    threads.emplace_back([&, client] {
      LoopResult mine(collections.size(), window.segments);
      const auto record = [&](const Completion& done) {
        const pdx::QueryResult& r = done.result;
        if (window.Contains(done.done)) {
          ++mine.completed;
          ++mine.per_segment[window.Segment(done.done)];
          mine.last_done = std::max(mine.last_done, done.done);
        }
        if (!window.Contains(done.submitted)) return;
        ++mine.attempted;
        mine.latency_ms.push_back(MsBetween(done.submitted, done.done));
        if (r.trace != nullptr) {
          const uint64_t span = TraceSpans().Add(
              "serve.request", done.submitted, done.done, r.id, 0);
          AddStageSpans(done.submitted, span, r.id, r.trace->queue_ms,
                        r.trace->stage_ms, r.trace->search_ms,
                        r.trace->deliver_ms);
          mine.stages.Add(*r.trace);
        }
        if (!r.status.ok()) {
          ++mine.failed;
          return;
        }
        const BenchCollection& c = *collections[done.collection];
        double recall = RecallAt(r.neighbors, c.truth[done.q], kK);
        if (c.exact) {
          if (MatchesExact(r.neighbors, c.truth[done.q], kK, c.query(done.q),
                           c.data.data(), c.dim())) {
            recall = 1.0;  // a tie the check forgave is still the true top-k
          } else {
            ++mine.failed;
            ++mine.mismatches;
          }
        }
        mine.recall_sum[done.collection] += recall;
        ++mine.recall_count[done.collection];
      };

      std::mutex mutex;
      std::condition_variable cv;
      size_t inflight = 0;
      std::vector<Completion> ready, checking;
      ready.reserve(outstanding);
      checking.reserve(outstanding);
      const Clock::time_point end = window.end();
      const size_t offset = Mix(seed, 1000 + client) % 1024;
      for (size_t seq = 0;; ++seq) {
        {
          std::unique_lock<std::mutex> lock(mutex);
          cv.wait(lock, [&] { return inflight < outstanding; });
          checking.swap(ready);
        }
        for (const Completion& done : checking) record(done);
        checking.clear();
        const Clock::time_point submitted = Clock::now();
        if (submitted >= end) break;
        const size_t index = (seq + client) % collections.size();
        const BenchCollection& c = *collections[index];
        const size_t q = (offset + seq * clients + client) % c.num_queries;
        pdx::QueryOptions options;
        options.trace = window.Traced(submitted);
        {
          std::lock_guard<std::mutex> lock(mutex);
          ++inflight;
        }
        service.Submit(c.name, c.query(q), options,
                       [&, index, q, submitted](pdx::QueryResult r) {
                         const Clock::time_point done = Clock::now();
                         std::lock_guard<std::mutex> lock(mutex);
                         ready.push_back(Completion{std::move(r), submitted,
                                                    done, index, q});
                         --inflight;
                         cv.notify_one();
                       });
      }
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return inflight == 0; });
        checking.swap(ready);
      }
      for (const Completion& done : checking) record(done);
      std::lock_guard<std::mutex> merge(total_mutex);
      total.Append(mine);
    });
  }
  for (std::thread& t : threads) t.join();
  return total;
}

Window MakeWindow(double seconds, bool traced) {
  Window w;
  w.start = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(kWarmupSeconds));
  w.seconds = seconds;
  w.segments = traced ? 2 * kTraceSegmentPairs : 1;
  return w;
}

// ---------------------------------------------------------------------------
// Metrics

/// Everything a traced run reports; zero where a row does not apply to the
/// workload (see BENCHMARK.json).
struct LayerReport {
  KernelRates kernels;
  double build_ms[2] = {0, 0};
  EngineNumbers engine;
  QuantNumbers quant;
  Distribution serve[4];  // queue, stage, search, deliver
  double batch_size = 0, dispatcher_busy = 0;
  Distribution roundtrip, server, wire;
  NetNumbers net;
  double save_ms = 0, load_ms = 0, file_bytes_ratio = 0;
  StorageNumbers storage;
  double compactions = 0, delta_rows_max = 0, tombstones_max = 0;
  double trace_overhead = 0, gen_lag_ms = 0;
  Distribution ingest;
};

void ReportLayers(const LayerReport& L, RunResult& r) {
  static const char* kTierNames[3] = {"scalar", "avx2", "avx512"};
  const std::pair<const char*, const double*> kernels[4] = {
      {"pdx_accumulate", L.kernels.pdx_accumulate},
      {"pdx_linear_scan", L.kernels.pdx_linear_scan},
      {"quant_accumulate", L.kernels.quant_accumulate},
      {"nary_batch", L.kernels.nary_batch}};
  for (const auto& [name, rates] : kernels) {
    for (size_t t = 0; t < 3; ++t) {
      r.Metric(std::string("kernels.") + name + "." + kTierNames[t] + ".gbps",
               rates[t], "GB/s");
    }
  }
  r.Metric("index.build_ms.c0", L.build_ms[0], "ms");
  r.Metric("index.build_ms.c1", L.build_ms[1], "ms");
  r.Metric("core.engine.preprocess_ms", L.engine.preprocess_ms, "ms");
  r.Metric("core.engine.find_buckets_ms", L.engine.find_buckets_ms, "ms");
  r.Metric("core.engine.bounds_ms", L.engine.bounds_ms, "ms");
  r.Metric("core.engine.distance_ms", L.engine.distance_ms, "ms");
  r.Metric("core.engine.pruning_power", L.engine.pruning_power, "fraction");
  r.Metric("core.engine.values_scanned", L.engine.values_scanned, "count");
  r.Metric("core.engine.blocks_visited", L.engine.blocks_visited, "count");
  r.Metric("core.engine.vectors_pruned", L.engine.vectors_pruned, "count");
  r.Metric("core.facade.batch_efficiency", L.engine.batch_efficiency,
           "fraction");
  r.Metric("core.facade.shard_speedup", L.engine.shard_speedup, "x");
  r.Metric("quant.query_ms", L.quant.query_ms, "ms");
  r.Metric("quant.rerank_candidates", L.quant.rerank_candidates, "count");
  r.Metric("quant.code_bytes", L.quant.code_bytes, "B");
  r.Metric("quant.recall_at_10", L.quant.recall_at_10, "fraction");
  static const char* kStages[4] = {"queue", "stage", "search", "deliver"};
  for (size_t s = 0; s < 4; ++s) {
    r.Metric(std::string("serve.") + kStages[s] + "_ms.p50", L.serve[s].p50,
             "ms");
    r.Metric(std::string("serve.") + kStages[s] + "_ms.p99", L.serve[s].p99,
             "ms");
  }
  r.Metric("serve.batch_size", L.batch_size, "count");
  r.Metric("serve.dispatcher_busy", L.dispatcher_busy, "fraction");
  r.Metric("net.roundtrip_ms.p50", L.roundtrip.p50, "ms");
  r.Metric("net.roundtrip_ms.p99", L.roundtrip.p99, "ms");
  r.Metric("net.server_ms.p50", L.server.p50, "ms");
  r.Metric("net.server_ms.p99", L.server.p99, "ms");
  r.Metric("net.wire_ms.p50", L.wire.p50, "ms");
  r.Metric("net.wire_ms.p99", L.wire.p99, "ms");
  r.Metric("net.handler_ms", L.net.handler_ms, "ms");
  r.Metric("net.parse_ms", L.net.parse_ms, "ms");
  r.Metric("net.serialize_ms", L.net.serialize_ms, "ms");
  r.Metric("net.bytes_per_search", L.net.bytes_per_search, "B");
  r.Metric("storage.save_ms", L.save_ms, "ms");
  r.Metric("storage.load_ms", L.load_ms, "ms");
  r.Metric("storage.file_bytes_ratio", L.file_bytes_ratio, "x");
  r.Metric("storage.add_ms", L.storage.add_ms, "ms");
  r.Metric("storage.delete_ms", L.storage.delete_ms, "ms");
  r.Metric("storage.compactions", L.compactions, "count");
  r.Metric("storage.compaction_ms", L.storage.compaction_ms, "ms");
  r.Metric("storage.delta_rows_max", L.delta_rows_max, "count");
  r.Metric("storage.tombstones_max", L.tombstones_max, "count");
  r.Metric("bench.trace_overhead", L.trace_overhead, "x");
  r.Metric("bench.gen_lag_ms", L.gen_lag_ms, "ms");
  r.Metric("ingest_p50_ms", L.ingest.p50, "ms");
  r.Metric("ingest_p99_ms", L.ingest.p99, "ms");
  for (size_t s = 0; s < 4; ++s) {
    r.Stamp(std::string("serve.") + kStages[s] + "_ms.samples",
            static_cast<double>(L.serve[s].count));
  }
  r.Stamp("net.roundtrip_ms.samples", static_cast<double>(L.roundtrip.count));
  r.Stamp("ingest.samples", static_cast<double>(L.ingest.count));
}

/// The end-to-end metrics after qps, p50_ms and p99_ms.
void ReportSetupAndRecall(RunResult& r, double recall, double setup_s) {
  r.Metric("recall_at_10", recall, "fraction");
  r.Metric("setup_s", setup_s, "s");
  r.Metric("rss_peak_mb", PeakRssMiB(), "MiB");
}

/// Engine numbers of several collections: per-query means weighted by
/// query count, ratios averaged.
EngineNumbers MergeEngine(const std::vector<EngineNumbers>& parts) {
  EngineNumbers out;
  double n = 0.0;
  for (const EngineNumbers& e : parts) {
    const double w = static_cast<double>(e.queries);
    out.preprocess_ms += w * e.preprocess_ms;
    out.find_buckets_ms += w * e.find_buckets_ms;
    out.bounds_ms += w * e.bounds_ms;
    out.distance_ms += w * e.distance_ms;
    out.values_scanned += w * e.values_scanned;
    out.blocks_visited += w * e.blocks_visited;
    out.vectors_pruned += w * e.vectors_pruned;
    out.pruning_power += w * e.pruning_power;
    out.batch_efficiency += e.batch_efficiency / parts.size();
    out.shard_speedup += e.shard_speedup / parts.size();
    n += w;
  }
  if (n > 0.0) {
    for (double* field :
         {&out.preprocess_ms, &out.find_buckets_ms, &out.bounds_ms,
          &out.distance_ms, &out.values_scanned, &out.blocks_visited,
          &out.vectors_pruned, &out.pruning_power}) {
      *field /= n;
    }
  }
  return out;
}

/// Closed-loop result -> LayerReport serve rows.
void FillServeRows(const LoopResult& loop, LayerReport& L) {
  L.serve[0] = Summarize(loop.stages.queue);
  L.serve[1] = Summarize(loop.stages.stage);
  L.serve[2] = Summarize(loop.stages.search);
  L.serve[3] = Summarize(loop.stages.deliver);
}

/// Mean micro-batch size between two Stats() snapshots.
double BatchSize(const CollectionTotals& before,
                 const CollectionTotals& after) {
  const uint64_t dispatches = after.dispatches - before.dispatches;
  return dispatches == 0 ? 0.0
                         : static_cast<double>(after.completed -
                                               before.completed) /
                               static_cast<double>(dispatches);
}

void GateExact(RunResult& r, uint64_t mismatches) {
  r.Stamp("exact_mismatches", static_cast<double>(mismatches));
  if (mismatches > 0) {
    r.Fail(std::to_string(mismatches) +
           " exact results differ from the brute-force oracle");
  }
}

/// The gate and the metrics both closed-loop workloads report, over all of
/// the run's measured windows together: qps is every completion inside a
/// window over the time from each window's start to its last completion
/// (as Throughput, summed), and the percentiles cover every measured
/// request. recall_at_10 is the mean over the approximate
/// collections (the exact ones are gated, and stamped per collection).
/// Traced (one window), `L` must already hold the probe and set-up rows,
/// and `service`/`before` describe that window.
void ReportClosedLoop(const RunOptions& options,
                      const std::vector<const BenchCollection*>& collections,
                      const std::vector<LoopResult>& loops,
                      const std::vector<Window>& windows,
                      pdx::SearchService& service,
                      const CollectionTotals& before, double setup_s,
                      LayerReport& L, RunResult& r) {
  const CollectionTotals after = Totals(service);
  LoopResult all(collections.size(), windows.front().segments);
  double busy_ms = 0.0;
  for (size_t i = 0; i < loops.size(); ++i) {
    all.Append(loops[i]);
    busy_ms += MsBetween(windows[i].start, loops[i].last_done);
    r.Stamp("qps.window" + std::to_string(i),
            Throughput(loops[i].completed, windows[i], loops[i].last_done));
  }
  r.attempted += all.attempted;
  r.failed += all.failed;
  GateExact(r, all.mismatches);
  r.Stamp("failed_frac", r.attempted == 0
                             ? 0.0
                             : static_cast<double>(r.failed) /
                                   static_cast<double>(r.attempted));
  double approx_sum = 0.0, approx_count = 0.0;
  for (size_t c = 0; c < collections.size(); ++c) {
    const double n = static_cast<double>(all.recall_count[c]);
    r.Stamp("recall_at_10." + collections[c]->name,
            n == 0.0 ? 0.0 : all.recall_sum[c] / n);
    if (!collections[c]->exact) {
      approx_sum += all.recall_sum[c];
      approx_count += n;
    }
  }
  const double recall = approx_count == 0.0 ? 0.0 : approx_sum / approx_count;
  if (!options.trace) {
    const Distribution latency = Summarize(all.latency_ms);
    r.Metric("qps", 1000.0 * static_cast<double>(all.completed) / busy_ms,
             "1/s");
    r.Metric("p50_ms", latency.p50, "ms");
    r.Metric("p99_ms", latency.p99, "ms");
    ReportSetupAndRecall(r, recall, setup_s);
    r.Stamp("latency.samples", static_cast<double>(latency.count));
    r.Stamp("latency.p99_resolved", latency.p99_resolved ? 1.0 : 0.0);
    return;
  }
  FillServeRows(loops.front(), L);
  L.batch_size = BatchSize(before, after);
  L.dispatcher_busy = MeanDispatcherBusy(service);
  L.trace_overhead =
      TraceOverhead(loops.front().per_segment, windows.front().SegmentSeconds());
  ReportLayers(L, r);
  r.Stamp("recall_at_10", recall);
}

void WriteSpans(const RunOptions& options, RunResult& r) {
  const std::string path = options.out_dir + "/spans-" + options.workload +
                           ".jsonl";
  const std::vector<Span> spans = TraceSpans().Snapshot();
  r.Stamp("spans.file", path);
  r.Stamp("spans.count", static_cast<double>(spans.size()));
  if (!TraceSpans().WriteJsonLines(path)) r.Stamp("spans.write_error", path);
  for (const auto& [name, self] : ComputeSelfTimes(spans)) {
    r.Stamp("self_ms." + name, self.self_ms);
    r.Stamp("total_ms." + name, self.total_ms);
  }
}

// ---------------------------------------------------------------------------
// ann-ivf

RunResult RunAnnIvf(const RunOptions& options) {
  RunResult r;
  BenchCollection owned[2];
  const CollectionSpec specs[2] = {
      {"ann50", 50, 100000, 1024, Shape::kNormal, 50},
      {"ann768", 768, 12000, 1024, Shape::kNormal, 768}};
  for (size_t i = 0; i < 2; ++i) {
    const CollectionSpec& spec = specs[i];
    BenchCollection* c = &owned[i];
    MakeInputs(spec, options.seed, *c);
    c->config.layout = pdx::SearcherLayout::kIvf;
    c->config.k = kK;
    c->config.ivf.max_iterations = 6;
    c->config.ivf.seed = spec.tag + 7;
    if (spec.dim == 50) {
      c->config.pruner = pdx::PrunerKind::kBond;
      c->config.ivf.num_buckets = 256;
      c->config.nprobe = 8;
    } else {
      c->config.pruner = pdx::PrunerKind::kAdsampling;
      c->config.ads_seed = spec.tag + 11;
      c->config.ivf.num_buckets = 96;
      c->config.nprobe = 6;
    }
    StampShape(r, *c);
  }
  const std::vector<const BenchCollection*> collections = {&owned[0],
                                                           &owned[1]};
  LayerReport L;
  if (options.trace) {
    TraceSpans().set_enabled(true);
    pdx::ThreadPool pool(PoolThreads());  // the twins' batch pool
    L.kernels = ProbeKernels(collections);
    L.engine = MergeEngine({ProbeEngine(*collections[0], pool, 64),
                            ProbeEngine(*collections[1], pool, 64)});
    L.quant = ProbeQuant(*collections[1], 64);
    L.storage = ProbeStorage(
        *collections[0], 20000,
        GenerateRows(MixtureOf(specs[0], options.seed), kAppendStream,
                     64 * 16));
  }

  // Set-up: build, save, then restore into a fresh service (mmap) as a
  // restarted process would, and serve the restored copy.
  std::unique_ptr<Host> serving;
  std::vector<double> setup_s, save_ms, load_ms, build_ms[2];
  std::vector<std::string> files;
  double file_bytes = 0.0;
  const auto drop_files = [&] {
    serving.reset();  // unmaps the files before they go
    for (const std::string& path : files) std::remove(path.c_str());
    files.clear();
  };
  // Each set-up serves a third of the measured window, so every restored
  // copy is measured; the run reports over the three windows together.
  const int reps = Setups(options);
  std::vector<LoopResult> loops;
  std::vector<Window> windows;
  CollectionTotals before;
  for (int rep = 0; rep < reps; ++rep) {
    drop_files();
    const Clock::time_point start = Clock::now();
    std::vector<std::string> paths;
    {
      std::unique_ptr<Host> builder = NewHost();
      for (size_t i = 0; i < 2; ++i) {
        build_ms[i].push_back(
            HostCollection(*builder->service, *collections[i]));
      }
      const Clock::time_point save_start = Clock::now();
      for (const BenchCollection* c : collections) {
        paths.push_back(options.out_dir + "/" + c->name + "-" +
                        std::to_string(rep) + ".pdxc");
        ScopedSpan span(TraceSpans(), "storage.save");
        Check(builder->service->SaveCollection(c->name, paths.back()),
              "SaveCollection");
      }
      save_ms.push_back(MsBetween(save_start, Clock::now()));
    }
    serving = NewHost(PoolThreads());
    const Clock::time_point load_start = Clock::now();
    for (size_t i = 0; i < 2; ++i) {
      ScopedSpan span(TraceSpans(), "storage.load");
      Check(serving->service->LoadCollection(collections[i]->name, paths[i]),
            "LoadCollection");
    }
    load_ms.push_back(MsBetween(load_start, Clock::now()));
    setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
    file_bytes = 0.0;
    for (const std::string& path : paths) {
      if (FILE* f = std::fopen(path.c_str(), "rb")) {
        std::fseek(f, 0, SEEK_END);
        file_bytes += static_cast<double>(std::ftell(f));
        std::fclose(f);
      }
    }
    files.insert(files.end(), paths.begin(), paths.end());

    before = Totals(*serving->service);
    windows.push_back(MakeWindow(options.seconds / reps, options.trace));
    loops.push_back(RunClosedLoop(*serving->service, collections, 2, 32,
                                  windows.back(), Mix(options.seed, rep)));
  }
  auto info = serving->service->GetCollectionInfo(collections[0]->name);
  r.Stamp("source", info.ok() ? info.value().source : "unknown");

  if (options.trace) {
    for (size_t i = 0; i < 2; ++i) L.build_ms[i] = Median(build_ms[i]);
    L.save_ms = Median(save_ms);
    L.load_ms = Median(load_ms);
    double raw = 0.0;
    for (const BenchCollection* c : collections) {
      raw += static_cast<double>(c->data.count() * c->dim() * 4);
    }
    L.file_bytes_ratio = file_bytes / raw;
    L.net = ProbeNet(*serving->service, *collections[1], 64);
  }
  ReportClosedLoop(options, collections, loops, windows, *serving->service,
                   before, Median(setup_s), L, r);
  drop_files();
  return r;
}

// ---------------------------------------------------------------------------
// exact-flat-large

RunResult RunExactFlatLarge(const RunOptions& options) {
  RunResult r;
  const CollectionSpec spec = {"flat1536", 1536, 64000, 512, Shape::kSkewed,
                               1536};
  BenchCollection f32;
  MakeInputs(spec, options.seed, f32);
  f32.config.layout = pdx::SearcherLayout::kFlat;
  f32.config.pruner = pdx::PrunerKind::kBond;
  f32.config.k = kK;
  f32.sharding.num_shards = PoolThreads();
  f32.exact = true;
  f32.adopt = true;  // read-only: no live row copy of ~0.5 GB
  // The u8 tier serves the same rows, queries and ground truth.
  pdx::SearcherConfig u8_config = f32.config;
  u8_config.quantization = pdx::QuantizationKind::kU8;
  u8_config.pruner = pdx::PrunerKind::kLinear;
  u8_config.rerank_factor = 4;
  const std::string u8_name = "flat1536_u8";
  StampShape(r, f32);
  r.Stamp("collection." + u8_name + ".config",
          "flat/linear/u8/rerank=4/shards=" +
              std::to_string(f32.sharding.num_shards));

  LayerReport L;
  if (options.trace) {
    TraceSpans().set_enabled(true);
    pdx::ThreadPool pool(PoolThreads());  // the twins' batch pool
    L.kernels = ProbeKernels({&f32});
    L.engine = ProbeEngine(f32, pool, 32);
    L.quant = ProbeQuant(f32, 32);
    L.storage = ProbeStorage(
        f32, 8000,
        GenerateRows(MixtureOf(spec, options.seed), kAppendStream, 64 * 16));
  }

  // Clients alternate between the two tiers. The u8 tier's header shares
  // the f32 collection's queries and ground truth; it is not exact, so the
  // loop never reads its rows.
  BenchCollection u8_header;
  u8_header.name = u8_name;
  u8_header.config = u8_config;
  u8_header.queries = f32.queries;
  u8_header.num_queries = f32.num_queries;
  u8_header.truth = f32.truth;
  u8_header.data = pdx::VectorSet(f32.dim());  // dim only: query(q) strides
  const std::vector<const BenchCollection*> tiers = {&f32, &u8_header};

  // One measured window after the set-ups: a full window holds about
  // 1900 requests, so its p99 is resolved; a third of it would not be.
  std::unique_ptr<Host> serving;
  std::vector<double> setup_s, build_ms[2];
  const int reps = Setups(options);
  for (int rep = 0; rep < reps; ++rep) {
    serving.reset();
    const Clock::time_point start = Clock::now();
    serving = NewHost();
    build_ms[0].push_back(HostCollection(*serving->service, f32));
    const Clock::time_point u8_start = Clock::now();
    {
      ScopedSpan span(TraceSpans(), "index.build");
      Check(serving->service->AddCollection(u8_name, f32.data, u8_config,
                                            f32.sharding),
            "AddCollection " + u8_name);
    }
    build_ms[1].push_back(MsBetween(u8_start, Clock::now()));
    setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
  }
  const CollectionTotals before = Totals(*serving->service);
  const std::vector<Window> windows = {
      MakeWindow(options.seconds, options.trace)};
  const std::vector<LoopResult> loops = {RunClosedLoop(
      *serving->service, tiers, 2, 2, windows.front(), options.seed)};
  if (options.trace) {
    L.build_ms[0] = Median(build_ms[0]);
    L.build_ms[1] = Median(build_ms[1]);
    L.net = ProbeNet(*serving->service, f32, 16);
  }
  ReportClosedLoop(options, tiers, loops, windows, *serving->service, before,
                   Median(setup_s), L, r);
  return r;
}

// ---------------------------------------------------------------------------
// live-http

/// Fixed rates of the live-http open loop (requests per second), set below
/// the seed's capacity so that the backlog does not grow.
constexpr double kLiveSearchRate = 120.0;  // over kSearchConnections
/// Pipelined search connections. One connection carries every search, so
/// each response that waits on the client's delayed ACK holds up the next
/// one too: the wire tail shows in every run instead of in a seed-dependent
/// share of requests.
constexpr size_t kSearchConnections = 1;
constexpr double kLiveWriteRate = 20.0;    // one connection
/// Delta rows (or tombstones) that trigger a background compaction: sized
/// so that the write rate above completes several compactions per run.
constexpr size_t kLiveCompactThreshold = 1024;
constexpr size_t kRowsPerAdd = 16;
constexpr size_t kIdsPerUpsert = 8;
constexpr size_t kFinalCheckQueries = 64;

/// A pipelining HTTP/1.1 client on one loopback socket: one thread sends
/// on the schedule while another reads the responses in order (send and
/// recv on one socket may run concurrently). Content-Length framing only,
/// as the server speaks it.
class PipelinedConnection {
 public:
  ~PipelinedConnection() { Close(); }

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval timeout{10, 0};  // a silent server fails the read, not the run
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  bool Send(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// The next response's status code and body; false once the socket is
  /// closed or times out.
  bool Read(int* status, std::string* body) {
    size_t header_end;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return false;
    }
    std::string head = buffer_.substr(0, header_end);
    if (head.size() < 12) return false;
    *status = std::atoi(head.c_str() + 9);  // "HTTP/1.1 200 OK"
    std::transform(head.begin(), head.end(), head.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    size_t length = 0;
    const size_t at = head.find("content-length:");
    if (at != std::string::npos) {
      length = std::strtoull(head.c_str() + at + 15, nullptr, 10);
    }
    const size_t total = header_end + 4 + length;
    while (buffer_.size() < total) {
      if (!Fill()) return false;
    }
    body->assign(buffer_, header_end + 4, length);
    buffer_.erase(0, total);
    return true;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  bool Fill() {
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buffer_.append(chunk, static_cast<size_t>(n));
        return true;
      }
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
  }

  int fd_ = -1;
  std::string buffer_;
};

std::string PostRequest(const std::string& target, const std::string& body) {
  return "POST " + target +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
         "Content-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

void AppendRow(std::string& out, const float* row, size_t dim) {
  char number[32];
  out += '[';
  for (size_t d = 0; d < dim; ++d) {
    // %.9g round-trips a float exactly, so the server stores the very
    // values the benchmark's model holds.
    std::snprintf(number, sizeof(number), d == 0 ? "%.9g" : ",%.9g",
                  static_cast<double>(row[d]));
    out += number;
  }
  out += ']';
}

/// Everything the open loop measured.
struct OpenLoopResult {
  std::vector<double> latency_ms;   ///< Searches due in the window.
  std::vector<double> lateness_ms;  ///< Every send due in the window.
  std::vector<double> ingest_ms;    ///< Writes due in the window.
  std::vector<double> roundtrip_ms, server_ms, wire_ms;  ///< Traced only.
  StageSamples stages;                                   ///< Traced only.
  std::vector<uint64_t> per_segment;
  uint64_t attempted = 0, failed = 0, completed = 0;
  Clock::time_point last_done{};  ///< Latest completion inside the window.
  uint64_t write_attempted = 0, write_failed = 0;
};

struct SentRecord {
  Clock::time_point due, sent;
  bool traced = false;
};

/// One pipelined search connection: a sender thread on the schedule and
/// this thread reading responses. Latency runs from each request's due
/// time.
void RunSearchConnection(uint16_t port, size_t stream,
                         const std::vector<std::string>& plain,
                         const std::vector<std::string>& traced,
                         const OpenLoopSchedule& schedule,
                         Clock::time_point stop, const Window& window,
                         size_t offset, OpenLoopResult& out,
                         std::mutex& out_mutex) {
  OpenLoopResult mine;
  mine.per_segment.assign(window.segments, 0);
  PipelinedConnection conn;
  if (!conn.Connect(port)) {
    std::fprintf(stderr, "pdxbench: connect to port %u failed\n", port);
    std::exit(3);
  }
  size_t capacity = 0;
  while (schedule.Due(capacity) < stop) ++capacity;
  std::vector<SentRecord> records(capacity);
  std::atomic<size_t> sent{0};
  std::atomic<bool> done{false};
  std::thread sender([&] {
    for (size_t i = 0; i < capacity; ++i) {
      const Clock::time_point due = schedule.Due(i);
      if (due >= stop) break;
      std::this_thread::sleep_until(due);
      const bool trace = window.Traced(due);
      const size_t q = (offset + i) % plain.size();
      records[i] = SentRecord{due, Clock::now(), trace};
      sent.store(i + 1, std::memory_order_release);
      if (!conn.Send(trace ? traced[q] : plain[q])) break;
    }
    done.store(true, std::memory_order_release);
  });

  size_t j = 0;
  std::string body;
  for (;; ++j) {
    // Nothing outstanding: idle until the sender sends or finishes.
    while (j >= sent.load(std::memory_order_acquire) &&
           !done.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    if (j >= sent.load(std::memory_order_acquire)) break;
    int status = 0;
    const bool read = conn.Read(&status, &body);
    const Clock::time_point now = Clock::now();
    const SentRecord rec = records[j];
    const bool measured = window.Contains(rec.due);
    if (!read) {
      // Every request still unanswered counts as failed.
      const size_t total = sent.load();
      for (size_t k = j; k < total; ++k) {
        if (window.Contains(records[k].due)) {
          ++mine.attempted;
          ++mine.failed;
        }
      }
      break;
    }
    if (measured) {
      ++mine.attempted;
      mine.latency_ms.push_back(MsBetween(rec.due, now));
      mine.lateness_ms.push_back(schedule.LatenessMs(j, rec.sent));
      if (status != 200) ++mine.failed;
    }
    if (window.Contains(now)) {
      ++mine.completed;
      ++mine.per_segment[window.Segment(now)];
      mine.last_done = std::max(mine.last_done, now);
    }
    if (rec.traced && status == 200) {
      auto parsed = pdx::ParseJson(body);
      const pdx::JsonValue* total_ms =
          parsed.ok() ? parsed.value().Find("total_ms") : nullptr;
      const pdx::JsonValue* trace =
          parsed.ok() ? parsed.value().Find("trace") : nullptr;
      const pdx::JsonValue* stages =
          trace != nullptr ? trace->Find("stages") : nullptr;
      if (total_ms != nullptr && stages != nullptr) {
        const double roundtrip = MsBetween(rec.sent, now);
        const double server = total_ms->AsNumber();
        const double wire = roundtrip - server;
        mine.roundtrip_ms.push_back(roundtrip);
        mine.server_ms.push_back(server);
        mine.wire_ms.push_back(wire);
        const auto stage = [&](const char* key) {
          const pdx::JsonValue* v = stages->Find(key);
          return v != nullptr && v->is_number() ? v->AsNumber() : 0.0;
        };
        pdx::QueryTrace t;
        t.queue_ms = stage("queue_ms");
        t.stage_ms = stage("dispatch_ms");
        t.search_ms = stage("search_ms");
        t.deliver_ms = stage("deliver_ms");
        mine.stages.Add(t);
        // The server's share sits inside the round trip; half the wire
        // time is placed on each side of it.
        const uint64_t request = ((stream + 1) << 32) + j;
        const uint64_t rt = TraceSpans().Add("net.roundtrip", rec.sent, now,
                                             request, 0);
        const Clock::time_point server_start =
            rec.sent + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               std::max(0.0, wire / 2)));
        const Clock::time_point server_end =
            server_start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   server));
        const uint64_t srv = TraceSpans().Add("serve.request", server_start,
                                              server_end, request, rt);
        AddStageSpans(server_start, srv, request, t.queue_ms, t.stage_ms,
                      t.search_ms, t.deliver_ms);
      }
    }
  }
  sender.join();
  conn.Close();

  std::lock_guard<std::mutex> lock(out_mutex);
  for (auto [dst, src] :
       {std::pair{&out.latency_ms, &mine.latency_ms},
        std::pair{&out.lateness_ms, &mine.lateness_ms},
        std::pair{&out.roundtrip_ms, &mine.roundtrip_ms},
        std::pair{&out.server_ms, &mine.server_ms},
        std::pair{&out.wire_ms, &mine.wire_ms}}) {
    dst->insert(dst->end(), src->begin(), src->end());
  }
  out.stages.Append(mine.stages);
  out.attempted += mine.attempted;
  out.failed += mine.failed;
  out.completed += mine.completed;
  out.last_done = std::max(out.last_done, mine.last_done);
  for (size_t s = 0; s < window.segments; ++s) {
    out.per_segment[s] += mine.per_segment[s];
  }
}

/// The benchmark's model of the live collection: every row ever stored and
/// which row each external id names now (-1 = deleted).
struct LiveModel {
  size_t dim = 0;
  std::vector<float> rows;
  std::vector<int64_t> row_of_id;

  size_t AppendRow(const float* row) {
    rows.insert(rows.end(), row, row + dim);
    return rows.size() / dim - 1;
  }
  void Assign(uint64_t id, int64_t row) {
    if (id >= row_of_id.size()) row_of_id.resize(id + 1, -1);
    row_of_id[id] = row;
  }
};

/// One write request of the live stream.
struct WriteOp {
  enum Kind { kAdd, kUpsert, kDelete } kind = kAdd;
  std::string method;
  std::string target;
  std::string body;
  std::vector<uint64_t> ids;  ///< Upserted or deleted ids.
  size_t first_row = 0;       ///< Into the appended-rows pool.
  size_t rows = 0;
};

/// Kind of write request `i` of the stream under `seed`: half NDJSON adds
/// of fresh rows, a quarter NDJSON upserts of live initial ids, a quarter
/// single deletes.
WriteOp::Kind KindOf(uint64_t seed, size_t i) {
  const unsigned draw = Mix(seed, 0x5EED0000 + i) % 4;
  return draw <= 1 ? WriteOp::kAdd
                   : draw == 2 ? WriteOp::kUpsert : WriteOp::kDelete;
}

/// Rows request `kind` appends or upserts.
size_t RowsOf(WriteOp::Kind kind) {
  return kind == WriteOp::kAdd      ? kRowsPerAdd
         : kind == WriteOp::kUpsert ? kIdsPerUpsert
                                    : 0;
}

/// The deterministic write stream (see KindOf), over `pool_rows`.
std::vector<WriteOp> MakeWrites(size_t count, size_t initial_rows, size_t dim,
                                const std::vector<float>& pool_rows,
                                uint64_t seed) {
  std::vector<WriteOp> ops;
  std::vector<uint32_t> alive(initial_rows);
  for (size_t i = 0; i < initial_rows; ++i) alive[i] = static_cast<uint32_t>(i);
  size_t next_row = 0;
  for (size_t i = 0; i < count; ++i) {
    WriteOp op;
    const uint64_t draw = Mix(seed, 0x5EED0000 + i);
    op.kind = KindOf(seed, i);
    op.method = "POST";
    op.target = "/collections/live/vectors";
    op.first_row = next_row;
    op.rows = RowsOf(op.kind);
    if (op.kind == WriteOp::kAdd) {
      for (size_t r = 0; r < op.rows; ++r) {
        AppendRow(op.body, pool_rows.data() + (next_row + r) * dim, dim);
        op.body += '\n';
      }
    } else if (op.kind == WriteOp::kUpsert) {
      for (size_t r = 0; r < op.rows; ++r) {
        // Each retry draws afresh, so a repeated id cannot repeat forever.
        uint64_t id;
        uint64_t attempt = 0;
        do {
          id = alive[Mix(draw, r + 17 * op.ids.size() + (attempt++ << 32)) %
                     alive.size()];
        } while (std::find(op.ids.begin(), op.ids.end(), id) != op.ids.end());
        op.ids.push_back(id);
        op.body += "{\"id\":" + std::to_string(id) + ",\"vector\":";
        AppendRow(op.body, pool_rows.data() + (next_row + r) * dim, dim);
        op.body += "}\n";
      }
    } else {
      op.method = "DELETE";
      const size_t pick = Mix(draw, 99) % alive.size();
      op.ids.push_back(alive[pick]);
      alive[pick] = alive.back();
      alive.pop_back();
      op.target += "/" + std::to_string(op.ids[0]);
    }
    next_row += op.rows;
    ops.push_back(std::move(op));
  }
  return ops;
}

/// Rows the first `count` write requests append or upsert.
size_t WriteRowsNeeded(size_t count, uint64_t seed) {
  size_t rows = 0;
  for (size_t i = 0; i < count; ++i) rows += RowsOf(KindOf(seed, i));
  return rows;
}

/// The write connection: blocking HttpClient round trips sent at their due
/// times; a slow write makes the next one late, which its latency (from
/// the due time) and the generator lateness both show.
void RunWriteConnection(uint16_t port, const std::vector<WriteOp>& ops,
                        const std::vector<float>& pool_rows,
                        const OpenLoopSchedule& schedule,
                        Clock::time_point stop, const Window& window,
                        LiveModel& model, OpenLoopResult& out,
                        std::mutex& out_mutex) {
  pdx::HttpClient client;
  Check(client.Connect("127.0.0.1", port), "connect write client");
  std::vector<double> ingest, lateness;
  uint64_t attempted = 0, failed = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Clock::time_point due = schedule.Due(i);
    if (due >= stop) break;
    std::this_thread::sleep_until(due);
    const WriteOp& op = ops[i];
    const Clock::time_point sent = Clock::now();
    pdx::Result<pdx::HttpResponse> response = [&] {
      ScopedSpan span(TraceSpans(), "net.write", i + 1);
      return client.Roundtrip(op.method, op.target, op.body);
    }();
    const Clock::time_point now = Clock::now();
    const bool ok = response.ok() && response.value().status == 200;
    if (window.Contains(due)) {
      ++attempted;
      ingest.push_back(MsBetween(due, now));
      lateness.push_back(schedule.LatenessMs(i, sent));
      if (!ok) ++failed;
    }
    if (!response.ok()) {
      // The connection is gone: re-connect so later writes still go out.
      client.Close();
      Check(client.Connect("127.0.0.1", port), "reconnect write client");
      continue;
    }
    if (!ok) continue;
    // Apply the write to the model exactly as the server applied it.
    if (op.kind == WriteOp::kDelete) {
      model.Assign(op.ids[0], -1);
    } else if (op.kind == WriteOp::kUpsert) {
      for (size_t r = 0; r < op.rows; ++r) {
        model.Assign(op.ids[r],
                     static_cast<int64_t>(model.AppendRow(
                         pool_rows.data() + (op.first_row + r) * model.dim)));
      }
    } else {
      auto parsed = pdx::ParseJson(response.value().body);
      const pdx::JsonValue* ids =
          parsed.ok() ? parsed.value().Find("ids") : nullptr;
      if (ids == nullptr || ids->size() != op.rows) {
        if (window.Contains(due)) ++failed;
        continue;
      }
      for (size_t r = 0; r < op.rows; ++r) {
        model.Assign(static_cast<uint64_t>(ids->items()[r].AsNumber()),
                     static_cast<int64_t>(model.AppendRow(
                         pool_rows.data() + (op.first_row + r) * model.dim)));
      }
    }
  }
  std::lock_guard<std::mutex> lock(out_mutex);
  out.ingest_ms = std::move(ingest);
  out.lateness_ms.insert(out.lateness_ms.end(), lateness.begin(),
                         lateness.end());
  out.write_attempted = attempted;
  out.write_failed = failed;
}

/// Prints one failed exactness check to stderr: the response status and
/// both neighbour lists, so a failing run says what differed.
void ReportMismatch(size_t q, const pdx::Result<pdx::HttpResponse>& response,
                    const std::vector<pdx::Neighbor>& result,
                    const std::vector<TrueNeighbor>& truth) {
  std::fprintf(stderr, "pdxbench: final check query %zu: status %d\n  got ",
               q, response.ok() ? response.value().status : -1);
  for (const pdx::Neighbor& n : result) {
    std::fprintf(stderr, " %u:%.9g", static_cast<unsigned>(n.id), n.distance);
  }
  std::fprintf(stderr, "\n  want");
  for (const TrueNeighbor& n : truth) {
    std::fprintf(stderr, " %u:%.9g", n.id, n.distance);
  }
  std::fprintf(stderr, "\n");
}

/// After the writes stop: every query's result over the wire must be the
/// exact top-k of the model's live set. Returns the number of mismatches;
/// adds the mean recall to `recall`.
uint64_t FinalCheck(uint16_t port, const BenchCollection& c,
                    const LiveModel& model, double* recall) {
  std::vector<float> live_rows;
  std::vector<uint32_t> live_ids;
  for (size_t id = 0; id < model.row_of_id.size(); ++id) {
    const int64_t row = model.row_of_id[id];
    if (row < 0) continue;
    live_ids.push_back(static_cast<uint32_t>(id));
    const float* values = model.rows.data() + row * model.dim;
    live_rows.insert(live_rows.end(), values, values + model.dim);
  }
  const size_t nq = std::min(kFinalCheckQueries, c.num_queries);
  const auto truth =
      BruteForceTopK(live_rows.data(), live_ids.size(), c.queries.data(), nq,
                     model.dim, kK, &live_ids, PoolThreads());
  pdx::HttpClient client;
  Check(client.Connect("127.0.0.1", port), "connect check client");
  uint64_t mismatches = 0;
  double recall_sum = 0.0;
  for (size_t q = 0; q < nq; ++q) {
    auto response = client.Roundtrip(
        "POST", "/collections/live/search",
        SearchBody(c.query(q), model.dim, kK, false));
    std::vector<pdx::Neighbor> result;
    if (response.ok() && response.value().status == 200) {
      auto parsed = pdx::ParseJson(response.value().body);
      const pdx::JsonValue* hits =
          parsed.ok() ? parsed.value().Find("neighbors") : nullptr;
      if (hits != nullptr) {
        for (const pdx::JsonValue& hit : hits->items()) {
          const pdx::JsonValue* id = hit.Find("id");
          const pdx::JsonValue* distance = hit.Find("distance");
          if (id == nullptr) continue;
          result.push_back(pdx::Neighbor{
              static_cast<pdx::VectorId>(id->AsNumber()),
              distance != nullptr && distance->is_number()
                  ? static_cast<float>(distance->AsNumber())
                  : 0.0f});
        }
      }
    }
    recall_sum += RecallAt(result, truth[q], kK);
    if (!MatchesExact(result, truth[q], kK, c.query(q), model.rows.data(),
                      model.dim, &model.row_of_id)) {
      if (++mismatches <= 3) ReportMismatch(q, response, result, truth[q]);
    }
  }
  *recall = recall_sum / static_cast<double>(std::max<size_t>(1, nq));
  return mismatches;
}

/// Members are destroyed in reverse order: the server stops before the
/// handler and the service it calls into go.
struct HttpHost {
  std::unique_ptr<Host> host;
  std::unique_ptr<pdx::SearchHandler> handler;
  std::unique_ptr<pdx::HttpServer> server;
};

RunResult RunLiveHttp(const RunOptions& options) {
  RunResult r;
  const CollectionSpec spec = {"live", 128, 100000, 256, Shape::kSkewed, 128};
  BenchCollection c;
  MakeInputs(spec, options.seed, c);
  c.config.layout = pdx::SearcherLayout::kFlat;
  c.config.pruner = pdx::PrunerKind::kBond;
  c.config.k = kK;
  c.exact = true;
  StampShape(r, c);
  r.Stamp("live.search_rate", kLiveSearchRate);
  r.Stamp("live.write_rate", kLiveWriteRate);
  r.Stamp("live.compact_threshold", static_cast<double>(kLiveCompactThreshold));

  const double total_s = kWarmupSeconds + options.seconds;
  const uint64_t write_seed = Mix(options.seed, 400);
  const size_t write_count =
      OpenLoopSchedule::Poisson(Clock::now(), kLiveWriteRate, total_s,
                                write_seed)
          .CountWithin(total_s);
  const std::vector<float> pool_rows =
      GenerateRows(MixtureOf(spec, options.seed), kAppendStream,
                   WriteRowsNeeded(write_count, options.seed), PoolThreads());
  const std::vector<WriteOp> writes = MakeWrites(
      write_count, c.data.count(), c.dim(), pool_rows, options.seed);
  std::vector<std::string> plain, traced;
  for (size_t q = 0; q < c.num_queries; ++q) {
    plain.push_back(PostRequest("/collections/live/search",
                                SearchBody(c.query(q), c.dim(), kK, false)));
    traced.push_back(PostRequest("/collections/live/search",
                                 SearchBody(c.query(q), c.dim(), kK, true)));
  }

  LayerReport L;
  if (options.trace) {
    TraceSpans().set_enabled(true);
    pdx::ThreadPool pool(PoolThreads());  // the twins' batch pool
    L.kernels = ProbeKernels({&c});
    L.engine = ProbeEngine(c, pool, 64);
    L.quant = ProbeQuant(c, 64);
    L.storage = ProbeStorage(
        c, 20000,
        GenerateRows(MixtureOf(spec, options.seed), kAppendStream + (1 << 20),
                     64 * 16));
  }

  pdx::MutationConfig mutation;
  mutation.compact_threshold = kLiveCompactThreshold;
  std::unique_ptr<HttpHost> serving;
  std::vector<double> setup_s, build_ms;
  for (int rep = 0; rep < Setups(options); ++rep) {
    serving.reset();
    const Clock::time_point start = Clock::now();
    serving = std::make_unique<HttpHost>();
    serving->host = NewHost(2, mutation);
    build_ms.push_back(HostCollection(*serving->host->service, c));
    serving->handler =
        std::make_unique<pdx::SearchHandler>(*serving->host->service);
    serving->server = std::make_unique<pdx::HttpServer>();
    Check(serving->server->Start(serving->handler->AsHttpHandler()),
          "HttpServer::Start");
    setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
  }
  pdx::SearchService& service = *serving->host->service;
  const uint16_t port = serving->server->port();

  LiveModel model;
  model.dim = c.dim();
  model.rows.assign(c.data.data(), c.data.data() + c.data.count() * c.dim());
  model.row_of_id.resize(c.data.count());
  for (size_t i = 0; i < c.data.count(); ++i) {
    model.row_of_id[i] = static_cast<int64_t>(i);
  }

  const uint64_t compactions_before =
      service.Stats().collections["live"].compactions;
  const CollectionTotals before = Totals(service);
  const Window window = MakeWindow(options.seconds, options.trace);
  const Clock::time_point schedule_start = Clock::now();
  const Clock::time_point stop = window.end();
  OpenLoopResult open;
  open.per_segment.assign(window.segments, 0);
  std::mutex open_mutex;

  // Gauges the stream drives up: delta rows and tombstones awaiting
  // compaction, sampled every 50 ms.
  std::atomic<bool> sampling{true};
  size_t delta_max = 0, tombstones_max = 0;
  std::thread sampler([&] {
    while (sampling.load()) {
      const pdx::ServiceStats stats = service.Stats();
      auto it = stats.collections.find("live");
      if (it != stats.collections.end()) {
        delta_max = std::max(delta_max, it->second.delta);
        tombstones_max = std::max(tombstones_max, it->second.tombstones);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });

  // Independent Poisson arrivals: the search streams split the search rate
  // (together Poisson at the full rate); one write stream.
  std::vector<std::thread> streams;
  for (size_t conn = 0; conn < kSearchConnections; ++conn) {
    const OpenLoopSchedule schedule = OpenLoopSchedule::Poisson(
        schedule_start, kLiveSearchRate / kSearchConnections, total_s,
        Mix(options.seed, 200 + conn));
    streams.emplace_back([&, schedule, conn] {
      RunSearchConnection(port, conn, plain, traced, schedule, stop, window,
                          Mix(options.seed, 300 + conn) % plain.size(), open,
                          open_mutex);
    });
  }
  streams.emplace_back([&] {
    RunWriteConnection(port, writes, pool_rows,
                       OpenLoopSchedule::Poisson(schedule_start,
                                                 kLiveWriteRate, total_s,
                                                 write_seed),
                       stop, window, model, open, open_mutex);
  });
  for (std::thread& t : streams) t.join();
  sampling.store(false);
  sampler.join();
  const CollectionTotals after = Totals(service);
  const uint64_t compactions =
      service.Stats().collections["live"].compactions - compactions_before;

  double recall = 0.0;
  const uint64_t mismatches = FinalCheck(port, c, model, &recall);
  const size_t final_queries = std::min(kFinalCheckQueries, c.num_queries);

  r.attempted = open.attempted + open.write_attempted + final_queries;
  r.failed = open.failed + open.write_failed + mismatches;
  GateExact(r, mismatches);
  r.Stamp("failed_frac", static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted));
  const Distribution ingest = Summarize(open.ingest_ms);
  const Distribution lag = Summarize(open.lateness_ms);
  r.Stamp("ingest_p50_ms", ingest.p50);
  r.Stamp("ingest_p99_ms", ingest.p99);
  r.Stamp("ingest.samples", static_cast<double>(ingest.count));
  r.Stamp("ingest.p99_resolved", ingest.p99_resolved ? 1.0 : 0.0);
  r.Stamp("bench.gen_lag_ms.p99", lag.p99);
  r.Stamp("storage.compactions", static_cast<double>(compactions));
  r.Stamp("live.final_rows",
          static_cast<double>(std::count_if(model.row_of_id.begin(),
                                            model.row_of_id.end(),
                                            [](int64_t x) { return x >= 0; })));
  if (!options.trace) {
    const Distribution latency = Summarize(open.latency_ms);
    r.Metric("qps", Throughput(open.completed, window, open.last_done), "1/s");
    r.Metric("p50_ms", latency.p50, "ms");
    r.Metric("p99_ms", latency.p99, "ms");
    ReportSetupAndRecall(r, recall, Median(setup_s));
    r.Stamp("latency.samples", static_cast<double>(latency.count));
    r.Stamp("latency.p99_resolved", latency.p99_resolved ? 1.0 : 0.0);
  } else {
    L.build_ms[0] = Median(build_ms);
    L.serve[0] = Summarize(open.stages.queue);
    L.serve[1] = Summarize(open.stages.stage);
    L.serve[2] = Summarize(open.stages.search);
    L.serve[3] = Summarize(open.stages.deliver);
    L.batch_size = BatchSize(before, after);
    L.dispatcher_busy = MeanDispatcherBusy(service);
    L.roundtrip = Summarize(open.roundtrip_ms);
    L.server = Summarize(open.server_ms);
    L.wire = Summarize(open.wire_ms);
    L.net = ProbeNet(service, c, 64);
    L.compactions = static_cast<double>(compactions);
    L.delta_rows_max = static_cast<double>(delta_max);
    L.tombstones_max = static_cast<double>(tombstones_max);
    L.trace_overhead =
        TraceOverhead(open.per_segment, window.SegmentSeconds());
    L.gen_lag_ms = lag.p99;
    L.ingest = ingest;
    ReportLayers(L, r);
    r.Stamp("recall_at_10", recall);
  }
  return r;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"ann-ivf", "exact-flat-large",
                                                 "live-http"};
  return names;
}

RunResult RunWorkload(const RunOptions& options) {
  RunResult r;
  if (options.workload == "ann-ivf") {
    r = RunAnnIvf(options);
  } else if (options.workload == "exact-flat-large") {
    r = RunExactFlatLarge(options);
  } else {
    r = RunLiveHttp(options);
  }
  if (options.trace) WriteSpans(options, r);
  return r;
}

}  // namespace pdxbench
