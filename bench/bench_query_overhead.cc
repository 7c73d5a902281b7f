// Experiment E2 — the headline comparison: query-time annotation handling
// cost for (a) no annotations, (b) InsightNotes summary propagation, and
// (c) a conventional raw-annotation propagation engine (DBNotes-style),
// sweeping the number of raw annotations per tuple.
//
// Expected shape: summary propagation adds a near-constant overhead over
// the bare query regardless of how many raw annotations exist (summaries
// are compact), while the raw baseline degrades linearly with the
// annotation volume — the gap widening to orders of magnitude at the
// paper's 100s-of-annotations-per-tuple regime.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/engine_snapshot.h"
#include "core/raw_baseline.h"
#include "exec/filter.h"
#include "exec/hash_join.h"
#include "exec/parallel.h"
#include "exec/projection.h"
#include "rel/expression.h"
#include "sql/session.h"

namespace insightnotes::bench {
namespace {

constexpr size_t kSpecies = 24;

// Two query classes:
//  * carry-through (SELECT * ... WHERE): annotations/summaries are carried
//    through selection unchanged — pure propagation cost, the paper's
//    headline scenario;
//  * trimming SPJ (SELECT id, name, weight): columns are dropped, so both
//    systems additionally pay per-annotation elimination work.
std::vector<std::string> CarryColumns() {
  return {"b.id", "b.name", "b.sci_name", "b.family", "b.region", "b.weight",
          "b.population"};
}
std::vector<std::string> TrimColumns() { return {"b.id", "b.name", "b.weight"}; }

/// `pinned` null: the engine's current epoch.
size_t RunPipeline(core::Engine* engine, bool with_summaries, bool trim,
                   core::ReadSnapshot pinned = nullptr) {
  auto scan = Check(engine->MakeScan("birds", "b", with_summaries), "scan");
  const auto& schema = scan->OutputSchema();
  size_t weight = Check(schema.IndexOf("b.weight"), "col");
  auto filter = std::make_unique<exec::FilterOperator>(
      std::move(scan),
      rel::MakeCompare(rel::CompareOp::kGt, rel::MakeColumn(weight, "b.weight"),
                       rel::MakeLiteral(rel::Value(1.0))));
  auto project = Check(exec::ProjectOperator::FromColumns(
                           std::move(filter), trim ? TrimColumns() : CarryColumns()),
                       "project");
  if (pinned == nullptr) return Check(DrainRows(engine, project.get()), "drain");
  return Check(DrainRows(std::move(pinned), project.get()), "drain");
}

/// Every row of `engine` republished: a new epoch read from scratch, as a
/// write to every row would leave it, so no row's trim memo holds a trim.
core::ReadSnapshot Republish(core::Engine* engine) {
  std::unordered_map<rel::TableId, rel::RowId> bounds;
  for (const std::string& name : engine->catalog()->TableNames()) {
    rel::Table* table = Check(engine->catalog()->GetTable(name), "table");
    bounds[table->id()] = table->RowBound();
  }
  return core::EngineSnapshot::BuildFull({engine->annotations(), engine->summaries()},
                                         std::move(bounds), engine->CurrentEpoch() + 1,
                                         /*retire_counter=*/nullptr);
}

/// (a) The query with annotation processing off.
void BM_QueryNoAnnotations(benchmark::State& state) {
  size_t per_tuple = static_cast<size_t>(state.range(0));
  bool trim = state.range(1) == 1;
  BuiltWorkload* built = GetWorkload(kSpecies, per_tuple);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunPipeline(built->engine.get(), false, trim));
  }
  state.SetLabel(trim ? "plain/trim" : "plain/carry");
}

/// (b) The same query with InsightNotes summary propagation.
void BM_QuerySummaryPropagation(benchmark::State& state) {
  size_t per_tuple = static_cast<size_t>(state.range(0));
  bool trim = state.range(1) == 1;
  BuiltWorkload* built = GetWorkload(kSpecies, per_tuple);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunPipeline(built->engine.get(), true, trim));
  }
  state.SetLabel(trim ? "insightnotes/trim" : "insightnotes/carry");
}

/// (b') The same query as the first statement after every row's publish:
/// each iteration reads a freshly republished epoch, so a trim finds no
/// memo and pays the restriction (a cold trim). The warm trim is (b):
/// after its first iteration every row's trim comes from the memo.
void BM_QuerySummaryPropagationCold(benchmark::State& state) {
  size_t per_tuple = static_cast<size_t>(state.range(0));
  bool trim = state.range(1) == 1;
  BuiltWorkload* built = GetWorkload(kSpecies, per_tuple);
  core::ReadSnapshot fresh;  // Kept past the drain: freed untimed.
  for (auto _ : state) {
    state.PauseTiming();
    fresh = nullptr;
    fresh = Republish(built->engine.get());
    state.ResumeTiming();
    benchmark::DoNotOptimize(RunPipeline(built->engine.get(), true, trim, fresh));
  }
  state.SetLabel(trim ? "insightnotes/trim-cold" : "insightnotes/carry-cold");
}

/// (c) Raw propagation baseline: full annotation bodies ride along.
void BM_QueryRawPropagation(benchmark::State& state) {
  size_t per_tuple = static_cast<size_t>(state.range(0));
  bool trim = state.range(1) == 1;
  BuiltWorkload* built = GetWorkload(kSpecies, per_tuple);
  core::Engine* engine = built->engine.get();
  auto table = Check(engine->catalog()->GetTable("birds"), "table");
  core::RawPropagationEngine raw(engine->annotations());
  // Base schema positions: id=0 name=1 ... weight=5 population=6.
  auto weight_gt = rel::MakeCompare(rel::CompareOp::kGt, rel::MakeColumn(5, "weight"),
                                    rel::MakeLiteral(rel::Value(1.0)));
  std::vector<size_t> kept =
      trim ? std::vector<size_t>{0, 1, 5} : std::vector<size_t>{0, 1, 2, 3, 4, 5, 6};
  for (auto _ : state) {
    auto scanned = Check(raw.Scan(*table), "scan");
    auto filtered = Check(raw.Filter(std::move(scanned), *weight_gt), "filter");
    auto projected = raw.Project(filtered, kept);
    benchmark::DoNotOptimize(projected.size());
  }
  state.SetLabel(trim ? "raw/trim" : "raw/carry");
}

/// Join variant of all three modes: birds self-join on family.
void BM_JoinSummaryVsRaw(benchmark::State& state) {
  size_t per_tuple = static_cast<size_t>(state.range(0));
  bool use_summaries = state.range(1) == 1;
  bool raw_mode = state.range(1) == 2;
  BuiltWorkload* built = GetWorkload(kSpecies, per_tuple);
  core::Engine* engine = built->engine.get();
  auto table = Check(engine->catalog()->GetTable("birds"), "table");

  if (raw_mode) {
    core::RawPropagationEngine raw(engine->annotations());
    auto key = rel::MakeColumn(3, "family");
    for (auto _ : state) {
      auto left = Check(raw.Scan(*table), "scan");
      auto right = Check(raw.Scan(*table), "scan");
      auto joined = Check(raw.Join(left, right, *key, *key), "join");
      benchmark::DoNotOptimize(joined.size());
    }
    state.SetLabel("raw-propagation");
    return;
  }
  for (auto _ : state) {
    auto left = Check(engine->MakeScan("birds", "l", use_summaries), "scan");
    auto right = Check(engine->MakeScan("birds", "r", use_summaries), "scan");
    size_t lf = Check(left->OutputSchema().IndexOf("l.family"), "col");
    size_t rf = Check(right->OutputSchema().IndexOf("r.family"), "col");
    // The planner's one-worker join: a Gather(1) over a probe of `left`
    // against a build of `right`.
    auto build = std::make_shared<exec::HashJoinBuildState>(
        std::move(right), rel::MakeColumn(rf, "r.family"), /*num_partitions=*/1,
        /*pool=*/nullptr);
    std::vector<std::unique_ptr<exec::Operator>> workers;
    workers.push_back(std::make_unique<exec::HashJoinProbeOperator>(
        std::move(left), build, rel::MakeColumn(lf, "l.family"), /*expose_build=*/true));
    auto join = std::make_unique<exec::GatherOperator>(
        std::move(workers), std::vector<std::shared_ptr<exec::SharedPlanState>>{build},
        /*pool=*/nullptr);
    size_t rows = Check(DrainRows(engine, join.get()), "drain");
    benchmark::DoNotOptimize(rows);
  }
  state.SetLabel(use_summaries ? "insightnotes" : "plain");
}

BENCHMARK(BM_QueryNoAnnotations)
    ->ArgsProduct({{10, 50, 150, 400}, {0, 1}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_QuerySummaryPropagation)
    ->ArgsProduct({{10, 50, 150, 400}, {0, 1}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_QuerySummaryPropagationCold)
    ->ArgsProduct({{10, 50, 150, 400}, {0, 1}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_QueryRawPropagation)
    ->ArgsProduct({{10, 50, 150, 400}, {0, 1}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_JoinSummaryVsRaw)
    ->ArgsProduct({{10, 50, 150}, {0, 1, 2}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace insightnotes::bench

int main(int argc, char** argv) {
  return insightnotes::bench::RunBenchmarksWithJsonReport(argc, argv,
                                                          "BENCH_query.json");
}
