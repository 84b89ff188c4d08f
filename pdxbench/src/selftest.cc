#include "selftest.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "datagen.h"
#include "oracle.h"
#include "spans.h"
#include "stats.h"

namespace pdxbench {

namespace {

struct Checker {
  std::ostream& log;
  int failures = 0;
  void Expect(bool ok, const std::string& what) {
    if (!ok) {
      ++failures;
      log << "selftest failed: " << what << "\n";
    }
  }
  void Near(double got, double want, const std::string& what) {
    Expect(std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)),
           what + " = " + std::to_string(got) + ", want " +
               std::to_string(want));
  }
};

void TestPercentiles(Checker& c) {
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(i);
  c.Near(NearestRank(ten, 50), 5, "p50 of 1..10");
  c.Near(NearestRank(ten, 99), 10, "p99 of 1..10");
  c.Near(NearestRank(ten, 10), 1, "p10 of 1..10");
  c.Near(NearestRank(ten, 0), 1, "p0 of 1..10");
  c.Near(NearestRank(ten, 100), 10, "p100 of 1..10");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  c.Near(NearestRank(hundred, 99), 99, "p99 of 1..100");
  c.Near(NearestRank(hundred, 50), 50, "p50 of 1..100");
  c.Near(NearestRank({}, 50), 0, "percentile of nothing");
  c.Expect(SamplesBeyond(1000, 99) == 10, "1000 samples leave 10 past p99");
  c.Expect(SamplesBeyond(999, 99) == 9, "999 samples leave 9 past p99");
  std::vector<double> many(1000);
  for (size_t i = 0; i < many.size(); ++i) many[i] = 1000.0 - i;  // unsorted
  Distribution d = Summarize(many);
  c.Expect(d.count == 1000 && d.p99_resolved, "p99 resolved at n=1000");
  c.Near(d.p50, 500, "summarized p50");
  c.Near(d.p99, 990, "summarized p99");
  many.pop_back();
  c.Expect(!Summarize(many).p99_resolved, "p99 unresolved at n=999");
  c.Near(Median({3, 1, 2}), 2, "median of odd count");
  c.Near(Median({4, 1, 3, 2}), 2.5, "median of even count");
}

void TestOpenLoop(Checker& c) {
  const Clock::time_point start = Clock::now();
  const auto at = [](Clock::time_point t, double ms) {
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(ms));
  };
  const OpenLoopSchedule poisson =
      OpenLoopSchedule::Poisson(start, 1000.0, 20.0, 7);
  c.Near(poisson.LatenessMs(10, at(poisson.Due(10), 50.0)), 50.0,
         "late send");
  c.Near(poisson.LatenessMs(10, at(poisson.Due(10), -5.0)), 0.0,
         "early send is not late");
  c.Near(poisson.LatenessMs(3, poisson.Due(3)), 0.0, "on-time send");
  const size_t arrivals = poisson.CountWithin(20.0);
  c.Expect(arrivals == 20000, "count fixed by rate x seconds");
  c.Expect(poisson.CountWithin(10.0) > 9500 && poisson.CountWithin(10.0) < 10500,
           "arrivals spread evenly over the schedule");
  bool ascending = true;
  for (size_t i = 1; i < arrivals; ++i) {
    ascending = ascending && poisson.Due(i) >= poisson.Due(i - 1);
  }
  c.Expect(ascending && poisson.Due(0) > start, "due times ascend");
  c.Expect(poisson.Due(arrivals) == Clock::time_point::max(), "schedule ends");
  c.Expect(OpenLoopSchedule::Poisson(start, 1000.0, 20.0, 7).Due(5) ==
               poisson.Due(5),
           "due times depend only on the seed");
  c.Expect(OpenLoopSchedule::Poisson(start, 1000.0, 20.0, 8).Due(5) !=
               poisson.Due(5),
           "seed changes due times");
}

void TestSpans(Checker& c) {
  // Parent [0, 10]; children [2, 4] and [3, 6] overlap (covered once) and
  // [8, 12] runs past the parent's end (clipped).
  std::vector<Span> spans = {
      {1, 0, 7, "serve.submit", 0.0, 10.0},
      {2, 1, 7, "core.search", 2.0, 4.0},
      {3, 1, 7, "core.search", 3.0, 6.0},
      {4, 1, 7, "net.flush", 8.0, 12.0},
  };
  auto self = ComputeSelfTimes(spans);
  c.Near(self["serve.submit"].self_ms, 4.0, "parent self time");
  c.Near(self["serve.submit"].total_ms, 10.0, "parent total time");
  c.Near(self["core.search"].self_ms, 5.0, "leaf self time");
  c.Expect(self["core.search"].spans == 2, "span count per name");
  c.Near(self["net.flush"].self_ms, 4.0, "clipped child keeps own time");

  SpanRecorder recorder;
  recorder.set_enabled(true);
  uint64_t outer_id = 0;
  {
    ScopedSpan outer(recorder, "outer", 42);
    outer_id = outer.id();
    ScopedSpan inner(recorder, "inner", 42);
  }
  const std::vector<Span> recorded = recorder.Snapshot();
  c.Expect(recorded.size() == 2 && recorded[1].parent == outer_id &&
               recorded[0].parent == 0 && recorded[1].request == 42,
           "implicit parent of a nested span");
  recorder.set_enabled(false);
  ScopedSpan off(recorder, "off");
  c.Expect(off.id() == 0 && recorder.Snapshot().size() == 2,
           "disabled recorder records nothing");
}

void TestOracle(Checker& c) {
  const std::vector<float> rows = {0, 0, 1, 0, 2, 0, 3, 0, 10, 10};
  const float query[2] = {0.9f, 0.0f};
  auto truth = BruteForceTopK(rows.data(), 5, query, 1, 2, 3, nullptr, 2);
  c.Expect(truth.size() == 1 && truth[0].size() == 3 && truth[0][0].id == 1 &&
               truth[0][1].id == 0 && truth[0][2].id == 2,
           "brute-force top-3 order");
  const auto hits = [](std::vector<uint32_t> ids) {
    std::vector<pdx::Neighbor> out;
    for (uint32_t id : ids) out.push_back(pdx::Neighbor{id, 0.0f});
    return out;
  };
  c.Near(RecallAt(hits({1, 0, 4}), truth[0], 3), 2.0 / 3.0, "recall 2 of 3");
  c.Near(RecallAt(hits({2, 1, 0}), truth[0], 3), 1.0, "recall ignores order");
  c.Expect(MatchesExact(hits({1, 0, 2}), truth[0], 3, query, rows.data(), 2),
           "exact match accepted");
  c.Expect(!MatchesExact(hits({1, 0, 3}), truth[0], 3, query, rows.data(), 2),
           "wrong id rejected");
  c.Expect(!MatchesExact(hits({1, 0}), truth[0], 3, query, rows.data(), 2),
           "short result rejected");
  c.Expect(!MatchesExact(hits({1, 1, 0}), truth[0], 3, query, rows.data(), 2),
           "duplicate id rejected");
  c.Expect(!MatchesExact(hits({2, 0, 1}), truth[0], 3, query, rows.data(), 2),
           "misranked result rejected");

  // (1, 0) and (-1, 0) tie for the query at the origin: either is exact.
  const std::vector<float> tie_rows = {1, 0, -1, 0, 5, 5};
  const float origin[2] = {0.0f, 0.0f};
  auto tie = BruteForceTopK(tie_rows.data(), 3, origin, 1, 2, 1);
  c.Expect(tie[0][0].id == 0, "tie broken by lower id");
  c.Expect(MatchesExact(hits({1}), tie[0], 1, origin, tie_rows.data(), 2),
           "tied id accepted");
  auto both = BruteForceTopK(tie_rows.data(), 3, origin, 1, 2, 2);
  c.Expect(MatchesExact(hits({1, 0}), both[0], 2, origin, tie_rows.data(), 2),
           "tied neighbours may swap places");
  const std::vector<int64_t> row_of_id = {0, -1, 2};
  c.Expect(!MatchesExact(hits({1}), tie[0], 1, origin, tie_rows.data(), 2,
                         &row_of_id),
           "deleted id rejected");

  // Renamed rows: ids 10, 11, 12 name rows 0, 1, 2.
  const std::vector<uint32_t> ids = {10, 11, 12};
  auto named = BruteForceTopK(tie_rows.data(), 3, origin, 1, 2, 2, &ids);
  c.Expect(named[0][0].id == 10 && named[0][1].id == 11, "row ids renamed");
}

void TestDatagen(Checker& c) {
  Mixture m;
  m.dim = 8;
  m.seed = 5;
  const std::vector<float> whole = GenerateRows(m, 0, 20, 1);
  const std::vector<float> tail = GenerateRows(m, 10, 10, 3);
  c.Expect(std::equal(tail.begin(), tail.end(), whole.begin() + 80),
           "rows independent of split and threads");
  m.seed = 6;
  c.Expect(GenerateRows(m, 0, 1)[0] != whole[0], "seed changes rows");
  m.seed = 5;
  m.model_seed = 2;
  c.Expect(GenerateRows(m, 0, 1)[0] != whole[0], "model seed changes rows");
}

}  // namespace

int RunSelfTests(std::ostream& log) {
  Checker c{log};
  TestPercentiles(c);
  TestOpenLoop(c);
  TestSpans(c);
  TestOracle(c);
  TestDatagen(c);
  return c.failures;
}

}  // namespace pdxbench
