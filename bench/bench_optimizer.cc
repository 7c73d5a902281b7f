// Cost-based optimizer benchmark: the same query planned rule-driven
// (optimized=0) and cost-based (optimized=1) over ANALYZEd, indexed
// tables. The oracle tests guarantee both plans return byte-identical
// results, so each sweep isolates one optimizer decision: index-backed
// equality and range access paths versus full scans. Emits
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

/// Engine with an ANALYZEd + indexed table for the optimizer sweeps:
///   fact(id, val) — kFactRows rows, id unique and indexed.
core::Engine* GetOptimizerWorkload() {
  static core::Engine* engine = [] {
    auto* built = new core::Engine();  // Lives for the whole bench run.
    Check(built->Init(), "engine init");
    Check(built->CreateTable(
              "fact", rel::Schema({{"id", rel::ValueType::kInt64, "fact"},
                                   {"val", rel::ValueType::kInt64, "fact"}})),
          "create fact");
    for (int64_t i = 0; i < kFactRows; ++i) {
      Check(built->Insert("fact", rel::Tuple({rel::Value(i),
                                              rel::Value(i % 97)})),
            "insert fact");
    }
    Check(built->CreateIndex("fact", "id"), "index fact.id");
    Check(built->Analyze("fact"), "analyze");
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

BENCHMARK(BM_OptIndexEqualityProbe)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_OptIndexRangeProbe)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace insightnotes::bench

int main(int argc, char** argv) {
  return insightnotes::bench::RunBenchmarksWithJsonReport(argc, argv,
                                                          "BENCH_optimizer.json");
}
