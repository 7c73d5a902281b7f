// Thread sweep over the morsel-driven parallel executor: scan+filter,
// scan+filter+join, aggregation, sort and distinct workloads planned at
// parallelism 1 / 2 / 4 / 8. Parallelism 1 runs the same morsel plan with
// one inline worker (the baseline the speedup is measured against); the
// oracle tests guarantee the parallel plans return byte-identical results,
// so the sweep measures pure execution-layer scaling. Emits
// BENCH_query.json alongside the console report (see bench_util.h /
// check_bench_json.py).

#include <benchmark/benchmark.h>

#include <string>
#include <variant>

#include "bench/bench_util.h"
#include "exec/metrics.h"
#include "sql/parser.h"
#include "sql/planner.h"

namespace insightnotes::bench {
namespace {

constexpr size_t kSpecies = 256;          // One bird row per species.
constexpr size_t kAnnotationsPerTuple = 12;
constexpr size_t kMorselSize = 32;        // 256 rows -> 8 morsels.

/// Plans `text` at the given parallelism and drains the tree directly
/// (bypassing Engine::Execute so repeated iterations don't grow the
/// zoom-in cache).
size_t RunQuery(core::Engine* engine, const std::string& text, size_t parallelism) {
  sql::Statement statement = Check(sql::Parse(text), "parse");
  auto* select = std::get_if<sql::SelectStatement>(&statement);
  if (select == nullptr) std::abort();
  sql::PlannerOptions options;
  options.parallelism = parallelism;
  options.morsel_size = kMorselSize;
  auto plan = Check(sql::PlanSelect(*select, engine, options), "plan");
  return Check(DrainRows(plan.get()), "drain");
}

size_t SumPrunedRows(const exec::PlanMetrics& node) {
  size_t total = static_cast<size_t>(node.metrics.rows_pruned);
  for (const exec::PlanMetrics& child : node.children) total += SumPrunedRows(child);
  return total;
}

/// One untimed run of `text` that drains the plan and then snapshots the
/// pruning counters — the timed loop cannot keep the plan alive.
size_t PrunedRowsOf(core::Engine* engine, const std::string& text, size_t parallelism) {
  sql::Statement statement = Check(sql::Parse(text), "parse");
  auto* select = std::get_if<sql::SelectStatement>(&statement);
  if (select == nullptr) std::abort();
  sql::PlannerOptions options;
  options.parallelism = parallelism;
  options.morsel_size = kMorselSize;
  auto plan = Check(sql::PlanSelect(*select, engine, options), "plan");
  Check(DrainRows(plan.get()), "drain");
  return SumPrunedRows(exec::CollectPlanMetrics(plan.get()));
}

void BM_ParallelScanFilter(benchmark::State& state) {
  size_t parallelism = static_cast<size_t>(state.range(0));
  BuiltWorkload* built = GetWorkload(kSpecies, kAnnotationsPerTuple);
  const std::string query =
      "SELECT b.id, b.name, b.weight FROM birds b WHERE b.weight > 1.0";
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunQuery(built->engine.get(), query, parallelism));
  }
  state.counters["threads"] = static_cast<double>(parallelism);
  state.SetLabel("scan+filter/p" + std::to_string(parallelism));
}

void BM_ParallelScanFilterJoin(benchmark::State& state) {
  size_t parallelism = static_cast<size_t>(state.range(0));
  BuiltWorkload* built = GetWorkload(kSpecies, kAnnotationsPerTuple);
  const std::string query =
      "SELECT l.id, l.name, r.id FROM birds l, birds r "
      "WHERE l.family = r.family AND l.weight > 1.0";
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunQuery(built->engine.get(), query, parallelism));
  }
  state.counters["threads"] = static_cast<double>(parallelism);
  state.SetLabel("scan+filter+join/p" + std::to_string(parallelism));
}

void BM_ParallelAggregate(benchmark::State& state) {
  size_t parallelism = static_cast<size_t>(state.range(0));
  BuiltWorkload* built = GetWorkload(kSpecies, kAnnotationsPerTuple);
  // Pre-aggregation runs inside the workers; the merge above the gather
  // folds the per-worker group tables (and their partially-merged
  // summaries) in morsel order.
  const std::string query =
      "SELECT b.family, COUNT(*), SUM(b.weight), AVG(b.weight), MIN(b.name) "
      "FROM birds b GROUP BY b.family";
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunQuery(built->engine.get(), query, parallelism));
  }
  state.counters["threads"] = static_cast<double>(parallelism);
  state.SetLabel("aggregate/p" + std::to_string(parallelism));
}

void BM_ParallelSort(benchmark::State& state) {
  size_t parallelism = static_cast<size_t>(state.range(0));
  BuiltWorkload* built = GetWorkload(kSpecies, kAnnotationsPerTuple);
  const std::string query =
      "SELECT b.id, b.name, b.weight FROM birds b "
      "ORDER BY b.weight DESC, b.id";
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunQuery(built->engine.get(), query, parallelism));
  }
  state.counters["threads"] = static_cast<double>(parallelism);
  state.SetLabel("sort/p" + std::to_string(parallelism));
}

// The top-k family runs on a wider table (more rows, lighter annotation
// load): 64 morsels give the workers real scan parallelism to amortize the
// pool dispatch latency, and n >> k makes the pruning ratio meaningful.
constexpr size_t kTopKSpecies = 2048;
constexpr size_t kTopKAnnotationsPerTuple = 4;

void BM_ParallelTopK(benchmark::State& state) {
  size_t parallelism = static_cast<size_t>(state.range(0));
  size_t k = static_cast<size_t>(state.range(1));
  BuiltWorkload* built = GetWorkload(kTopKSpecies, kTopKAnnotationsPerTuple);
  // ORDER BY + LIMIT takes the pushed-down top-k path: each worker keeps a
  // size-k heap and skips rows behind the shared k-th-candidate bound, so
  // the parallel entries measure heap + pruning cost, not a full sort.
  const std::string query =
      "SELECT b.id, b.name, b.weight FROM birds b "
      "ORDER BY b.weight DESC, b.id LIMIT " + std::to_string(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunQuery(built->engine.get(), query, parallelism));
  }
  state.counters["threads"] = static_cast<double>(parallelism);
  state.counters["limit_k"] = static_cast<double>(k);
  state.counters["rows_pruned"] = static_cast<double>(
      PrunedRowsOf(built->engine.get(), query, parallelism));
  state.SetLabel("topk/p" + std::to_string(parallelism) + "/k" + std::to_string(k));
}

void BM_ParallelDistinct(benchmark::State& state) {
  size_t parallelism = static_cast<size_t>(state.range(0));
  BuiltWorkload* built = GetWorkload(kSpecies, kAnnotationsPerTuple);
  const std::string query = "SELECT DISTINCT b.family FROM birds b";
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunQuery(built->engine.get(), query, parallelism));
  }
  state.counters["threads"] = static_cast<double>(parallelism);
  state.SetLabel("distinct/p" + std::to_string(parallelism));
}

BENCHMARK(BM_ParallelAggregate)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_ParallelSort)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
// k sweep kept to {8, 64}: with at most 8 workers, 8-worker heaps of 8
// retain at most 64 rows, so rows_pruned is provably non-increasing in k
// at every thread count — check_bench_json.py enforces exactly that.
BENCHMARK(BM_ParallelTopK)
    ->Args({1, 8})->Args({2, 8})->Args({4, 8})->Args({8, 8})
    ->Args({1, 64})->Args({2, 64})->Args({4, 64})->Args({8, 64})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_ParallelDistinct)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_ParallelScanFilter)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_ParallelScanFilterJoin)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace insightnotes::bench

int main(int argc, char** argv) {
  return insightnotes::bench::RunBenchmarksWithJsonReport(argc, argv,
                                                          "BENCH_query.json");
}
