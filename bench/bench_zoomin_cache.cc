// Experiment E3 — zoom-in performance under the result cache (Section 2.2).
//
// A pool of query results with heterogeneous sizes and recomputation costs
// competes for a limited disk-backed cache; zoom-in references follow a
// Zipf-skewed pattern. Policies compared: no cache, LRU, LFU and the
// paper's RCO.
//
// Expected shape: any cache beats re-execution by orders of magnitude on
// hits; under budget pressure with mixed costs/sizes, RCO achieves a
// better effective latency than LRU/LFU because it preferentially keeps
// small, expensive-to-recompute results.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "common/random.h"
#include "core/rco_cache.h"

namespace insightnotes::bench {
namespace {

/// A synthetic result snapshot of `rows` rows and per-row payload bytes.
core::ResultSnapshot MakeSnapshot(size_t rows, size_t row_bytes) {
  core::ResultSnapshot snapshot;
  snapshot.column_names = {"id", "payload"};
  for (size_t r = 0; r < rows; ++r) {
    core::RowSnapshot row;
    row.tuple = rel::Tuple({rel::Value(static_cast<int64_t>(r)),
                            rel::Value(std::string(row_bytes, 'x'))});
    core::SummarySnapshot s;
    s.instance = "ClassBird1";
    s.rendered = "[(Behavior, 3)]";
    s.components.push_back(core::ComponentSnapshot{"Behavior", {1, 2, 3}});
    row.summaries.push_back(std::move(s));
    snapshot.rows.push_back(std::move(row));
  }
  return snapshot;
}

struct ResultPoolEntry {
  std::string record;   // The serialized snapshot, as the cache stores it.
  double cost_seconds;  // Simulated recompute cost.
};

std::vector<ResultPoolEntry> MakeResultPool(size_t n, uint64_t seed) {
  Random rng(seed);
  std::vector<ResultPoolEntry> pool;
  pool.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ResultPoolEntry entry;
    // Anti-correlated mix: small results tend to be expensive (complex
    // aggregations), large results cheap (scans) — the regime where RCO's
    // complexity/overhead terms matter.
    bool small_expensive = rng.Bernoulli(0.5);
    size_t rows = small_expensive ? 2 + rng.Uniform(4) : 40 + rng.Uniform(60);
    entry.cost_seconds = small_expensive ? 0.05 + rng.NextDouble() * 0.2
                                         : 0.001 + rng.NextDouble() * 0.004;
    MakeSnapshot(rows, 256).Serialize(&entry.record);
    pool.push_back(std::move(entry));
  }
  return pool;
}

/// Simulated zoom-in session: `kReferences` Zipf-skewed references over the
/// result pool. A miss "re-executes" (we charge the entry's cost as counted
/// simulated work) and re-admits the snapshot. Reports effective simulated
/// latency per zoom-in.
void BM_ZoomInPolicy(benchmark::State& state) {
  auto policy = static_cast<core::CachePolicy>(state.range(0));
  size_t budget_kb = static_cast<size_t>(state.range(1));
  constexpr size_t kResults = 64;
  constexpr size_t kReferences = 512;

  auto pool = MakeResultPool(kResults, 99);
  double total_cost = 0.0;
  uint64_t total_hits = 0;
  uint64_t total_refs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    core::ZoomInCache cache(policy, budget_kb * 1024);
    Check(cache.Init(), "cache init");
    Random rng(7);
    // Warm: admit everything once (results were executed once by the user).
    for (size_t i = 0; i < pool.size(); ++i) {
      Check(cache.Put(i, pool[i].record, pool[i].cost_seconds), "put");
    }
    double session_cost = 0.0;
    state.ResumeTiming();
    for (size_t r = 0; r < kReferences; ++r) {
      size_t target = rng.Zipf(kResults, 1.0);
      auto snapshot = cache.Get(target);
      if (!snapshot.ok()) {
        // Miss: simulated re-execution cost, then re-admit.
        session_cost += pool[target].cost_seconds;
        Check(cache.Put(target, pool[target].record, pool[target].cost_seconds),
              "readmit");
      }
      benchmark::DoNotOptimize(snapshot.ok());
    }
    state.PauseTiming();
    total_cost += session_cost;
    total_hits += cache.stats().hits;
    total_refs += kReferences;
    state.ResumeTiming();
  }
  state.counters["sim_reexec_s_per_session"] =
      benchmark::Counter(total_cost / static_cast<double>(state.iterations()));
  state.counters["hit_ratio"] =
      benchmark::Counter(static_cast<double>(total_hits) / total_refs);
  state.SetLabel(std::string(core::CachePolicyToString(policy)) + "/" +
                 std::to_string(budget_kb) + "KB");
}
BENCHMARK(BM_ZoomInPolicy)
    ->ArgsProduct({{static_cast<int>(core::CachePolicy::kNone),
                    static_cast<int>(core::CachePolicy::kLru),
                    static_cast<int>(core::CachePolicy::kLfu),
                    static_cast<int>(core::CachePolicy::kRco)},
                   {64, 256, 1024}})
    ->Unit(benchmark::kMillisecond);

/// Eviction-heavy admission at a steady population of `n` live entries:
/// every Put displaces exactly one victim, so the measured cost is dominated
/// by victim selection. Regression guard for the PickVictim normalization
/// pre-pass — RCO score maxima are now hoisted to one O(n) scan per
/// eviction, where the previous code recomputed them per candidate, making
/// each eviction O(n^2); before the fix this bench degraded ~n times faster
/// than linearly as `n` grows.
void BM_EvictionHeavyPut(benchmark::State& state) {
  auto policy = static_cast<core::CachePolicy>(state.range(0));
  size_t n = static_cast<size_t>(state.range(1));

  std::string record;
  MakeSnapshot(/*rows=*/1, /*row_bytes=*/64).Serialize(&record);
  size_t entry_size = record.size();
  // Budget fits exactly n entries: the (n+1)-th admission must evict.
  core::ZoomInCache cache(policy, entry_size * n);
  Check(cache.Init(), "cache init");
  Random rng(3);
  for (size_t i = 0; i < n; ++i) {
    Check(cache.Put(i, record, 0.01 + rng.NextDouble()), "warm");
  }
  core::QueryId next_qid = n;
  for (auto _ : state) {
    Check(cache.Put(next_qid++, record, 0.01 + rng.NextDouble()), "put");
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetLabel(std::string(core::CachePolicyToString(policy)) + "/n=" +
                 std::to_string(n));
}
BENCHMARK(BM_EvictionHeavyPut)
    ->ArgsProduct({{static_cast<int>(core::CachePolicy::kLru),
                    static_cast<int>(core::CachePolicy::kRco)},
                   {64, 256, 1024}})
    ->Unit(benchmark::kMicrosecond);

/// Raw zoom-in latency through the real engine: cache hit vs. forced
/// re-execution (tiny cache).
void BM_ZoomInEndToEnd(benchmark::State& state) {
  bool cached = state.range(0) == 1;
  core::EngineOptions options;
  if (!cached) options.cache_budget_bytes = 64;  // Nothing fits.
  auto engine = std::make_unique<core::Engine>(options);
  Check(engine->Init(), "init");
  workload::WorkloadConfig config;
  config.num_species = 30;
  config.annotations_per_tuple = 40;
  workload::WorkloadBuilder builder(config);
  Check(builder.Build(engine.get()), "build");
  auto scan = Check(engine->MakeScan("birds"), "scan");
  auto result = Check(engine->Execute(std::move(scan)), "execute");

  core::ZoomInRequest request;
  request.qid = result.qid;
  request.instance_name = "ClassBird1";
  request.component_index = 0;
  for (auto _ : state) {
    auto zoom = Check(engine->ZoomIn(request), "zoomin");
    benchmark::DoNotOptimize(zoom.rows.size());
  }
  state.SetLabel(cached ? "cache-hit" : "re-execute");
}
BENCHMARK(BM_ZoomInEndToEnd)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace insightnotes::bench

BENCHMARK_MAIN();
