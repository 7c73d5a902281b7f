// Query-lifecycle costs: how fast a cancelled statement unwinds, and what
// the cooperative interrupt checks + memory accounting cost a query that
// never trips them. BM_CancelUnwind arms the deterministic cancel-at-check
// trip and times the full abort path (trip -> workers drain -> clean
// kCancelled return) at parallelism 1 / 2 / 8. BM_MemoryBudgetOverhead
// runs the same join with and without an attached QueryContext, so the
// budgeted-vs-unbudgeted delta isolates the lifecycle overhead against the
// PR-5 parallel baseline (BENCH_query.json). Emits BENCH_cancel.json
// (see bench_util.h / check_bench_json.py).

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <variant>

#include "bench/bench_util.h"
#include "exec/query_context.h"
#include "sql/parser.h"
#include "sql/planner.h"

namespace insightnotes::bench {
namespace {

constexpr size_t kSpecies = 256;          // One bird row per species.
constexpr size_t kAnnotationsPerTuple = 12;
constexpr size_t kMorselSize = 32;        // 256 rows -> 8 morsels.

// Self-join with a filter: enough work per morsel that an early abort is
// visibly cheaper than a full drain, shared across both benchmark families
// so the overhead numbers compare like against like.
const char* const kJoinQuery =
    "SELECT l.id, l.name, r.id FROM birds l, birds r "
    "WHERE l.family = r.family AND l.weight > 1.0";

/// Plans `text` at the given parallelism (attaching `context` when set) and
/// drains the tree directly, bypassing Engine::Execute so repeated
/// iterations don't grow the zoom-in cache. Returns the terminal status:
/// OK for a full drain, the interrupt status for an aborted one; an aborted
/// plan is Closed so its workers are joined before the next iteration.
Status RunQuery(core::Engine* engine, const std::string& text, size_t parallelism,
                const std::shared_ptr<exec::QueryContext>& context,
                size_t* rows_out) {
  sql::Statement statement = Check(sql::Parse(text), "parse");
  auto* select = std::get_if<sql::SelectStatement>(&statement);
  if (select == nullptr) std::abort();
  sql::PlannerOptions options;
  options.parallelism = parallelism;
  options.morsel_size = kMorselSize;
  auto plan = Check(sql::PlanSelect(*select, engine, options), "plan");
  if (context != nullptr) plan->SetQueryContext(context);
  Result<size_t> rows = DrainRows(plan.get());
  if (!rows.ok()) {
    Status closed = plan->Close();  // Joins any still-running workers.
    (void)closed;
  }
  if (rows_out != nullptr) *rows_out = rows.ok() ? *rows : 0;
  return rows.status();
}

void BM_CancelUnwind(benchmark::State& state) {
  size_t parallelism = static_cast<size_t>(state.range(0));
  BuiltWorkload* built = GetWorkload(kSpecies, kAnnotationsPerTuple);
  auto context = std::make_shared<exec::QueryContext>();
  // Trip a few checks in so the plan is genuinely in flight (workers
  // dispatched, first morsels claimed) when the cancellation lands.
  constexpr uint64_t kTrip = 4;
  for (auto _ : state) {
    context->CancelAtCheck(kTrip);
    context->BeginStatement(0, 0);
    Status status = RunQuery(built->engine.get(), kJoinQuery, parallelism,
                             context, nullptr);
    if (!status.IsCancelled()) {
      fprintf(stderr, "cancel bench: expected kCancelled, got %s\n",
              status.ToString().c_str());
      std::abort();
    }
  }
  context->CancelAtCheck(0);
  state.counters["threads"] = static_cast<double>(parallelism);
  state.SetLabel("cancel-unwind/p" + std::to_string(parallelism));
}

void BM_MemoryBudgetOverhead(benchmark::State& state) {
  size_t parallelism = static_cast<size_t>(state.range(0));
  bool budgeted = state.range(1) != 0;
  BuiltWorkload* built = GetWorkload(kSpecies, kAnnotationsPerTuple);
  std::shared_ptr<exec::QueryContext> context;
  if (budgeted) {
    context = std::make_shared<exec::QueryContext>();
    // A limit far above the join's footprint: every slab reservation and
    // interrupt check runs, none ever fails — pure accounting overhead.
    context->BeginStatement(0, size_t{1} << 32);
  }
  size_t rows = 0;
  for (auto _ : state) {
    Status status =
        RunQuery(built->engine.get(), kJoinQuery, parallelism, context, &rows);
    Check(status, "budgeted run");
    benchmark::DoNotOptimize(rows);
  }
  state.counters["threads"] = static_cast<double>(parallelism);
  state.counters["budgeted"] = budgeted ? 1.0 : 0.0;
  if (budgeted) {
    state.counters["mem_peak"] = static_cast<double>(context->budget().peak());
  }
  state.SetLabel(std::string("join/") + (budgeted ? "budgeted" : "bare") + "/p" +
                 std::to_string(parallelism));
}

BENCHMARK(BM_CancelUnwind)
    ->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_MemoryBudgetOverhead)
    ->Args({1, 0})->Args({2, 0})->Args({8, 0})
    ->Args({1, 1})->Args({2, 1})->Args({8, 1})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace insightnotes::bench

int main(int argc, char** argv) {
  return insightnotes::bench::RunBenchmarksWithJsonReport(argc, argv,
                                                          "BENCH_cancel.json");
}
