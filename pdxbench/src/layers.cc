#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <future>
#include <memory>

#include "core/mutable_searcher.h"
#include "env.h"
#include "kernels/kernel_dispatch.h"
#include "net/json.h"
#include "net/search_handler.h"
#include "spans.h"
#include "stats.h"

namespace pdxbench {

size_t BenchCollection::block_lanes() const {
  return pdx::ResolveConfig(config).block_capacity;
}

namespace {

constexpr pdx::Isa kTiers[3] = {pdx::Isa::kScalar, pdx::Isa::kAvx2,
                                pdx::Isa::kAvx512};

// GB/s of `call` over `bytes` per call: the median of five trials, each
// repeating the call for at least 4 ms.
template <typename Fn>
double MeasureRate(const char* span_name, double bytes, Fn&& call) {
  std::vector<double> rates;
  for (int trial = 0; trial < 5; ++trial) {
    size_t calls = 0;
    ScopedSpan span(TraceSpans(), span_name);  // one span per trial
    const Clock::time_point start = Clock::now();
    double elapsed_ms = 0.0;
    do {
      call();
      ++calls;
      elapsed_ms = MsBetween(start, Clock::now());
    } while (elapsed_ms < 4.0 || calls < 2);
    rates.push_back(bytes * static_cast<double>(calls) / (elapsed_ms * 1e6));
  }
  return Median(rates);
}

std::unique_ptr<pdx::Searcher> MustMake(
    pdx::Result<std::unique_ptr<pdx::Searcher>> made, const std::string& what) {
  if (!made.ok()) Die(what, made.status());
  return std::move(made).value();
}

}  // namespace

KernelRates ProbeKernels(const std::vector<const BenchCollection*>& shapes) {
  KernelRates out;
  for (const BenchCollection* c : shapes) {
    const size_t dim = c->dim();
    const size_t lanes = std::min<size_t>(c->block_lanes(), c->data.count());
    // Real rows of the collection, packed dimension-major like a PDX block.
    std::vector<float> block(lanes * dim);
    std::vector<uint8_t> codes(lanes * dim);
    for (size_t i = 0; i < lanes; ++i) {
      const float* row = c->data.Vector(static_cast<pdx::VectorId>(i));
      for (size_t d = 0; d < dim; ++d) {
        block[d * lanes + i] = row[d];
        codes[d * lanes + i] = static_cast<uint8_t>((i * 131 + d * 7) & 0xff);
      }
    }
    const float* rows = c->data.data();
    const float* query = c->query(0);
    std::vector<float> weights(dim, 1.0f);
    std::vector<float> distances(lanes);
    const double float_bytes = 4.0 * static_cast<double>(lanes * dim);
    for (size_t t = 0; t < 3; ++t) {
      if (!pdx::IsaAvailable(kTiers[t])) continue;
      const pdx::KernelTable& table = pdx::GetKernelTable(kTiers[t]);
      out.pdx_accumulate[t] += MeasureRate(
          "kernels.pdx_accumulate", float_bytes, [&] {
            std::fill(distances.begin(), distances.end(), 0.0f);
            table.pdx_accumulate(pdx::Metric::kL2, query, block.data(), lanes,
                                 0, dim, distances.data());
          });
      out.pdx_linear_scan[t] += MeasureRate(
          "kernels.pdx_linear_scan", float_bytes, [&] {
            table.pdx_linear_scan(pdx::Metric::kL2, query, block.data(),
                                  lanes, dim, distances.data());
          });
      out.quant_accumulate[t] += MeasureRate(
          "kernels.quant_accumulate", float_bytes / 4.0, [&] {
            std::fill(distances.begin(), distances.end(), 0.0f);
            table.quant_accumulate(query, weights.data(), codes.data(), lanes,
                                   0, dim, distances.data());
          });
      out.nary_batch[t] += MeasureRate("kernels.nary_batch", float_bytes, [&] {
        table.nary_batch(pdx::Metric::kL2, query, rows, lanes, dim,
                         distances.data());
      });
    }
  }
  const double n = static_cast<double>(std::max<size_t>(1, shapes.size()));
  for (size_t t = 0; t < 3; ++t) {
    out.pdx_accumulate[t] /= n;
    out.pdx_linear_scan[t] /= n;
    out.quant_accumulate[t] /= n;
    out.nary_batch[t] /= n;
  }
  return out;
}

EngineNumbers ProbeEngine(const BenchCollection& c, pdx::ThreadPool& pool,
                          size_t max_queries) {
  EngineNumbers out;
  const size_t nq = std::min(max_queries, c.num_queries);
  out.queries = nq;
  std::vector<double> unsharded_ms(nq);
  double sum_query_ms = 0.0;
  {
    pdx::SearcherConfig config = c.config;
    config.pool = nullptr;
    config.threads = 1;
    config.search.collect_phase_times = true;
    std::unique_ptr<pdx::Searcher> twin;
    {
      ScopedSpan span(TraceSpans(), "core.make_searcher");
      twin = MustMake(pdx::MakeSearcher(c.data, config), "engine twin");
    }
    twin->ReserveScratch(pool.num_threads());
    uint64_t scanned = 0, total = 0, blocks = 0, pruned = 0;
    for (size_t q = 0; q < nq; ++q) {
      pdx::PdxearchProfile profile;
      const Clock::time_point start = Clock::now();
      const uint64_t parent = TraceSpans().Begin("core.search_with");
      twin->SearchWith(0, pdx::QueryKnobs{}, c.query(q), &profile);
      TraceSpans().End(parent);
      const Clock::time_point end = Clock::now();
      unsharded_ms[q] = MsBetween(start, end);
      sum_query_ms += unsharded_ms[q];
      // The engine's phase times, laid end to end inside the call: the
      // call's self time is what the phases do not account for.
      Clock::time_point cursor = start;
      const std::pair<const char*, double> phases[4] = {
          {"core.engine.preprocess", profile.preprocess_ms},
          {"core.engine.find_buckets", profile.find_buckets_ms},
          {"core.engine.bounds", profile.bounds_ms},
          {"core.engine.distance", profile.distance_ms}};
      for (const auto& [name, ms] : phases) {
        const Clock::time_point next =
            cursor + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(ms));
        TraceSpans().Add(name, cursor, next, 0, parent);
        cursor = next;
      }
      out.preprocess_ms += profile.preprocess_ms;
      out.find_buckets_ms += profile.find_buckets_ms;
      out.bounds_ms += profile.bounds_ms;
      out.distance_ms += profile.distance_ms;
      scanned += profile.values_scanned;
      total += profile.values_total;
      blocks += profile.blocks_visited;
      pruned += profile.vectors_pruned;
    }
    const double n = static_cast<double>(std::max<size_t>(1, nq));
    out.preprocess_ms /= n;
    out.find_buckets_ms /= n;
    out.bounds_ms /= n;
    out.distance_ms /= n;
    out.values_scanned = static_cast<double>(scanned) / n;
    out.blocks_visited = static_cast<double>(blocks) / n;
    out.vectors_pruned = static_cast<double>(pruned) / n;
    out.pruning_power =
        total == 0 ? 0.0
                   : 1.0 - static_cast<double>(scanned) /
                               static_cast<double>(total);

    // Batch fan-out: the same queries as one pooled batch.
    twin->set_pool(&pool);
    twin->set_threads(0);
    std::vector<float> batch(c.queries.begin(),
                             c.queries.begin() + nq * c.dim());
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan span(TraceSpans(), "core.search_batch_with");
      twin->SearchBatchWith(0, pdx::QueryKnobs{}, batch.data(), nq);
    }
    const double wall_ms = MsBetween(start, Clock::now());
    out.batch_efficiency =
        sum_query_ms /
        (wall_ms * static_cast<double>(pool.num_threads()));
  }
  {
    pdx::SearcherConfig config = c.config;
    config.pool = &pool;
    config.threads = 0;
    pdx::ShardingOptions sharding;
    sharding.num_shards = pool.num_threads();
    std::unique_ptr<pdx::Searcher> sharded;
    {
      ScopedSpan span(TraceSpans(), "core.make_sharded_searcher");
      sharded = MustMake(pdx::MakeShardedSearcher(c.data, config, sharding),
                         "sharded twin");
    }
    sharded->ReserveScratch(pool.num_threads());
    std::vector<double> sharded_ms(nq);
    for (size_t q = 0; q < nq; ++q) {
      const Clock::time_point start = Clock::now();
      {
        ScopedSpan span(TraceSpans(), "core.sharded_search");
        sharded->SearchBatchWith(0, pdx::QueryKnobs{}, c.query(q), 1);
      }
      sharded_ms[q] = MsBetween(start, Clock::now());
    }
    const double sharded_median = Median(sharded_ms);
    out.shard_speedup =
        sharded_median > 0.0 ? Median(unsharded_ms) / sharded_median : 0.0;
  }
  return out;
}

QuantNumbers ProbeQuant(const BenchCollection& c, size_t max_queries) {
  QuantNumbers out;
  pdx::SearcherConfig config = c.config;
  config.pool = nullptr;
  config.threads = 1;
  config.quantization = pdx::QuantizationKind::kU8;
  config.pruner = pdx::PrunerKind::kLinear;
  config.rerank_factor = 4;
  std::unique_ptr<pdx::Searcher> twin;
  {
    ScopedSpan span(TraceSpans(), "quant.make_searcher");
    twin = MustMake(pdx::MakeSearcher(c.data, config), "u8 twin");
  }
  twin->ReserveScratch(1);
  const size_t nq = std::min(max_queries, c.num_queries);
  double recall = 0.0, ms = 0.0, rerank = 0.0;
  for (size_t q = 0; q < nq; ++q) {
    pdx::PdxearchProfile profile;
    const Clock::time_point start = Clock::now();
    std::vector<pdx::Neighbor> result;
    {
      ScopedSpan span(TraceSpans(), "quant.search_with");
      result = twin->SearchWith(0, pdx::QueryKnobs{}, c.query(q), &profile);
    }
    ms += MsBetween(start, Clock::now());
    rerank += static_cast<double>(profile.rerank_candidates);
    recall += RecallAt(result, c.truth[q], 10);
  }
  const double n = static_cast<double>(std::max<size_t>(1, nq));
  out.query_ms = ms / n;
  out.rerank_candidates = rerank / n;
  out.recall_at_10 = recall / n;
  out.code_bytes = static_cast<double>(twin->quantized_bytes());
  return out;
}

StorageNumbers ProbeStorage(const BenchCollection& c, size_t max_rows,
                            const std::vector<float>& extra_rows) {
  StorageNumbers out;
  const size_t rows = std::min(max_rows, c.data.count());
  const size_t dim = c.dim();
  pdx::VectorSet subset =
      pdx::VectorSet::FromRowMajor(c.data.data(), rows, dim);
  pdx::SearcherConfig config = c.config;
  config.pool = nullptr;
  config.threads = 1;
  pdx::MutationConfig mutation;
  mutation.compact_threshold = 0;  // compaction only when asked
  auto made = pdx::MutableSearcher::Make(subset, config, mutation);
  if (!made.ok()) Die("storage twin", made.status());
  std::unique_ptr<pdx::MutableSearcher> twin = std::move(made).value();
  constexpr size_t kRowsPerAdd = 16;
  const size_t adds = extra_rows.size() / (kRowsPerAdd * dim);
  std::vector<double> add_ms, delete_ms;
  for (size_t a = 0; a < adds; ++a) {
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan span(TraceSpans(), "storage.add");
      auto added =
          twin->Add(extra_rows.data() + a * kRowsPerAdd * dim, kRowsPerAdd);
      Check(added.status(), "storage twin Add");
    }
    add_ms.push_back(MsBetween(start, Clock::now()));
  }
  for (size_t i = 0; i < std::min<size_t>(64, rows); ++i) {
    const uint64_t id = (i * 7919) % rows;
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan span(TraceSpans(), "storage.delete");
      twin->DeleteBatch(&id, 1);
    }
    delete_ms.push_back(MsBetween(start, Clock::now()));
  }
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan span(TraceSpans(), "storage.compact");
    Check(twin->Compact(), "storage twin Compact");
  }
  out.compaction_ms = MsBetween(start, Clock::now());
  out.add_ms = Median(add_ms);
  out.delete_ms = Median(delete_ms);
  return out;
}

std::string SearchBody(const float* query, size_t dim, size_t k, bool trace) {
  std::string body = "{\"query\":[";
  char number[32];
  for (size_t d = 0; d < dim; ++d) {
    std::snprintf(number, sizeof(number), d == 0 ? "%.9g" : ",%.9g",
                  static_cast<double>(query[d]));
    body += number;
  }
  body += "],\"k\":" + std::to_string(k);
  if (trace) body += ",\"trace\":true";
  return body + "}";
}

NetNumbers ProbeNet(pdx::SearchService& service, const BenchCollection& c,
                    size_t max_queries) {
  NetNumbers out;
  pdx::SearchHandler handler(service);
  const pdx::HttpHandler http = handler.AsHttpHandler();
  const size_t nq = std::min(max_queries, c.num_queries);
  std::vector<double> handler_ms, parse_ms, serialize_ms;
  double bytes = 0.0;
  for (size_t q = 0; q < nq; ++q) {
    pdx::HttpRequest request;
    request.method = "POST";
    request.path = "/collections/" + c.name + "/search";
    request.body = SearchBody(c.query(q), c.dim(), c.config.k, false);
    const size_t request_bytes = request.body.size();

    Clock::time_point start = Clock::now();
    {
      ScopedSpan span(TraceSpans(), "net.parse");
      Check(pdx::ParseJson(request.body).status(), "parse search body");
    }
    parse_ms.push_back(MsBetween(start, Clock::now()));

    std::promise<pdx::HttpResponse> done;
    std::future<pdx::HttpResponse> response = done.get_future();
    start = Clock::now();
    pdx::HttpResponse answer;
    {
      ScopedSpan span(TraceSpans(), "net.handler");
      http(std::move(request), [&done](pdx::HttpResponse r) {
        done.set_value(std::move(r));
      });
      answer = response.get();
    }
    handler_ms.push_back(MsBetween(start, Clock::now()));
    bytes += static_cast<double>(request_bytes + answer.body.size());

    auto parsed = pdx::ParseJson(answer.body);
    Check(parsed.status(), "parse search response");
    start = Clock::now();
    {
      ScopedSpan span(TraceSpans(), "net.serialize");
      static_cast<void>(pdx::WriteJson(parsed.value()));  // timed for cost
    }
    serialize_ms.push_back(MsBetween(start, Clock::now()));
  }
  out.handler_ms = Median(handler_ms);
  out.parse_ms = Median(parse_ms);
  out.serialize_ms = Median(serialize_ms);
  out.bytes_per_search = bytes / static_cast<double>(std::max<size_t>(1, nq));
  return out;
}

}  // namespace pdxbench
