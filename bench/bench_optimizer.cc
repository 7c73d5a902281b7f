// Cost-based optimizer benchmark: the same query planned rule-driven
// (optimized=0) and cost-based (optimized=1) over ANALYZEd, indexed
// tables. The oracle tests guarantee both plans return byte-identical
// results, so each sweep isolates one optimizer decision: index-backed
// equality and range access paths versus full scans, and join reordering
// that joins a selectively filtered small table before a big one. Emits
// BENCH_optimizer.json; check_bench_json.py enforces that the optimized
// side of every family is no slower than the rule-driven side.

#include <benchmark/benchmark.h>

#include <string>
#include <variant>

#include "bench/bench_util.h"
#include "sql/parser.h"
#include "sql/planner.h"

namespace insightnotes::bench {
namespace {

constexpr int64_t kFactRows = 20000;   // Indexed single-table workload.
constexpr int64_t kJoinRows = 2000;    // Each big join side.
constexpr int64_t kDimRows = 100;      // Selectively filtered small table.
constexpr int64_t kJoinKeyNdv = 40;    // a|b join fan-out: 2000^2/40 rows.

/// Engine with ANALYZEd + indexed tables for the optimizer sweeps:
///   fact(id, val)  — kFactRows rows, id unique and indexed;
///   a(k, j), b(k, pad) — kJoinRows rows each, k with kJoinKeyNdv values;
///   c(j, sel)      — kDimRows rows, sel unique (c.sel = 5 keeps one row).
core::Engine* GetOptimizerWorkload() {
  static core::Engine* engine = [] {
    auto* built = new core::Engine();  // Lives for the whole bench run.
    Check(built->Init(), "engine init");
    Check(built->CreateTable(
              "fact", rel::Schema({{"id", rel::ValueType::kInt64, "fact"},
                                   {"val", rel::ValueType::kInt64, "fact"}})),
          "create fact");
    Check(built->CreateTable(
              "a", rel::Schema({{"k", rel::ValueType::kInt64, "a"},
                                {"j", rel::ValueType::kInt64, "a"}})),
          "create a");
    Check(built->CreateTable(
              "b", rel::Schema({{"k", rel::ValueType::kInt64, "b"},
                                {"pad", rel::ValueType::kInt64, "b"}})),
          "create b");
    Check(built->CreateTable(
              "c", rel::Schema({{"j", rel::ValueType::kInt64, "c"},
                                {"sel", rel::ValueType::kInt64, "c"}})),
          "create c");
    for (int64_t i = 0; i < kFactRows; ++i) {
      Check(built->Insert("fact", rel::Tuple({rel::Value(i),
                                              rel::Value(i % 97)})),
            "insert fact");
    }
    for (int64_t i = 0; i < kJoinRows; ++i) {
      Check(built->Insert("a", rel::Tuple({rel::Value(i % kJoinKeyNdv),
                                           rel::Value(i)})),
            "insert a");
      Check(built->Insert("b", rel::Tuple({rel::Value(i % kJoinKeyNdv),
                                           rel::Value(i)})),
            "insert b");
    }
    for (int64_t i = 0; i < kDimRows; ++i) {
      Check(built->Insert("c", rel::Tuple({rel::Value(i), rel::Value(i)})),
            "insert c");
    }
    Check(built->CreateIndex("fact", "id"), "index fact.id");
    for (const char* table : {"fact", "a", "b", "c"}) {
      Check(built->Analyze(table), "analyze");
    }
    return built;
  }();
  return engine;
}

size_t RunQuery(core::Engine* engine, const std::string& text, bool optimize) {
  sql::Statement statement = Check(sql::Parse(text), "parse");
  auto* select = std::get_if<sql::SelectStatement>(&statement);
  if (select == nullptr) std::abort();
  sql::PlannerOptions options;
  options.optimize = optimize;
  auto plan = Check(sql::PlanSelect(*select, engine, options), "plan");
  return Check(DrainRows(engine, plan.get()), "drain");
}

void RunSweep(benchmark::State& state, const std::string& query,
              const char* label) {
  bool optimize = state.range(0) != 0;
  core::Engine* engine = GetOptimizerWorkload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunQuery(engine, query, optimize));
  }
  state.counters["optimized"] = optimize ? 1.0 : 0.0;
  state.SetLabel(std::string(label) + (optimize ? "/optimized" : "/rule-driven"));
}

// Index-backed equality probe vs full scan: the rule-driven side walks all
// kFactRows rows, the optimized side probes one.
void BM_OptIndexEqualityProbe(benchmark::State& state) {
  RunSweep(state, "SELECT f.val FROM fact f WHERE f.id = 12345", "index-eq");
}

// Index-backed range access vs full scan: the probe fetches ~0.5% of the
// table and the residual filter trims the inclusive bound.
void BM_OptIndexRangeProbe(benchmark::State& state) {
  RunSweep(state, "SELECT f.val FROM fact f WHERE f.id < 100", "index-range");
}

// Join reordering: rule-driven FROM order materializes the a|b fan-out
// (kJoinRows^2 / kJoinKeyNdv rows) before c filters it; the cost-based
// order joins the one surviving c row first and pays a RestoreOrder sort.
void BM_OptJoinReorder(benchmark::State& state) {
  RunSweep(state,
           "SELECT a.j, b.pad, c.sel FROM a a, b b, c c "
           "WHERE a.k = b.k AND a.j = c.j AND c.sel = 5",
           "join-reorder");
}

BENCHMARK(BM_OptIndexEqualityProbe)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_OptIndexRangeProbe)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_OptJoinReorder)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace insightnotes::bench

int main(int argc, char** argv) {
  return insightnotes::bench::RunBenchmarksWithJsonReport(argc, argv,
                                                          "BENCH_optimizer.json");
}
