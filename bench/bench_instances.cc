// Experiment E4 — scalability w.r.t. the number of summary instances
// linked to a relation (Section 2.3): annotation-insert throughput and
// query-time propagation cost as 1..16 instances maintain summaries on the
// same table.
//
// Expected shape: cost grows roughly linearly with the number of linked
// instances (each maintains its own objects), with classifier instances
// cheapest and cluster instances steepest.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "exec/projection.h"
#include "workload/annotation_gen.h"

namespace insightnotes::bench {
namespace {

std::unique_ptr<core::Engine> EngineWithKInstances(size_t k, bool clusters) {
  auto engine = std::make_unique<core::Engine>();
  Check(engine->Init(), "init");
  workload::WorkloadConfig config;
  config.num_species = 8;
  config.annotations_per_tuple = 0;
  config.with_classifier1 = false;
  config.with_classifier2 = false;
  config.with_cluster = false;
  config.with_snippet = false;
  workload::WorkloadBuilder builder(config);
  Check(builder.BuildBase(engine.get()), "base");
  for (size_t i = 0; i < k; ++i) {
    std::string name = "inst" + std::to_string(i);
    if (clusters) {
      Check(engine->RegisterInstance(core::SummaryInstance::MakeCluster(name, 0.35)),
            "register");
    } else {
      auto instance = core::SummaryInstance::MakeClassifier(
          name, {"Behavior", "Disease", "Anatomy", "Other"});
      for (const auto& [label, text] :
           workload::AnnotationGenerator::ClassBird1Training()) {
        Check(instance->classifier()->Train(label, text), "train");
      }
      Check(engine->RegisterInstance(std::move(instance)), "register");
    }
    Check(engine->LinkInstance(name, "birds"), "link");
  }
  return engine;
}

void BM_InsertThroughputVsInstances(benchmark::State& state) {
  size_t k = static_cast<size_t>(state.range(0));
  bool clusters = state.range(1) == 1;
  auto engine = EngineWithKInstances(k, clusters);
  workload::AnnotationGenerator gen(31);
  const auto& species = workload::CuratedSpecies()[0];
  Random rng(5);
  for (auto _ : state) {
    state.PauseTiming();
    auto g = gen.GenerateComment(species);
    core::AnnotateSpec spec;
    spec.table = "birds";
    spec.row = rng.Uniform(8);
    spec.body = g.annotation.body;
    state.ResumeTiming();
    Check(engine->Annotate(spec), "annotate");
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetLabel(std::string(clusters ? "cluster" : "classifier") + " x" +
                 std::to_string(k));
}
BENCHMARK(BM_InsertThroughputVsInstances)
    ->ArgsProduct({{1, 2, 4, 8, 16}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

/// Batched parallel ingest with k instances linked: thread sweep at a fixed
/// instance count. Shows how much of the per-instance maintenance cost the
/// row-sharded ingest path reclaims as workers are added.
void BM_BatchInsertVsInstancesThreads(benchmark::State& state) {
  size_t threads = static_cast<size_t>(state.range(0));
  bool clusters = state.range(1) == 1;
  constexpr size_t kInstances = 4;
  constexpr size_t kBatchSize = 256;

  workload::AnnotationGenerator gen(41);
  const auto& species = workload::CuratedSpecies();
  std::vector<core::AnnotateSpec> specs;
  specs.reserve(kBatchSize);
  for (size_t i = 0; i < kBatchSize; ++i) {
    auto g = gen.GenerateComment(species[i % species.size()]);
    core::AnnotateSpec spec;
    spec.table = "birds";
    spec.row = static_cast<rel::RowId>(i % 8);
    spec.body = g.annotation.body;
    specs.push_back(std::move(spec));
  }

  for (auto _ : state) {
    state.PauseTiming();
    auto engine = EngineWithKInstances(kInstances, clusters);
    state.ResumeTiming();
    Check(engine->AnnotateBatch(specs, {.num_threads = threads}), "batch");
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kBatchSize));
  state.SetLabel(std::string(clusters ? "cluster" : "classifier") + " x" +
                 std::to_string(kInstances) + " threads=" +
                 std::to_string(threads));
}
BENCHMARK(BM_BatchInsertVsInstancesThreads)
    ->ArgsProduct({{1, 2, 4, 8}, {0, 1}})
    ->Iterations(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_QueryCostVsInstances(benchmark::State& state) {
  size_t k = static_cast<size_t>(state.range(0));
  auto engine = EngineWithKInstances(k, /*clusters=*/false);
  // 50 annotations per row.
  workload::AnnotationGenerator gen(37);
  const auto& species = workload::CuratedSpecies()[0];
  for (rel::RowId row = 0; row < 8; ++row) {
    for (int i = 0; i < 50; ++i) {
      auto g = gen.GenerateComment(species);
      core::AnnotateSpec spec;
      spec.table = "birds";
      spec.row = row;
      spec.body = g.annotation.body;
      Check(engine->Annotate(spec), "annotate");
    }
  }
  for (auto _ : state) {
    auto scan = Check(engine->MakeScan("birds", "b"), "scan");
    size_t rows = Check(DrainRows(scan.get()), "drain");
    benchmark::DoNotOptimize(rows);
  }
  state.SetLabel("instances=" + std::to_string(k));
}
BENCHMARK(BM_QueryCostVsInstances)->Arg(1)->Arg(4)->Arg(16)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace insightnotes::bench

BENCHMARK_MAIN();
