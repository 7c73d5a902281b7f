// Experiment E1 — incremental summary maintenance (Section 2.3).
//
// Series 1: annotation-insertion throughput per summary type as the number
//           of annotations already on the tuple grows (incremental cost).
// Series 2: incremental maintenance vs. rebuild-from-scratch after a batch
//           of insertions — the paper's motivation for incremental updates.
//
// Expected shape: classifier/snippet insertion cost is ~flat (per-document
// work only); clustering grows mildly with the number of groups; rebuild
// cost grows linearly with the annotation count, so incremental wins by a
// widening margin.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "workload/annotation_gen.h"

namespace insightnotes::bench {
namespace {

enum InstanceKind : int { kClassifier = 0, kCluster = 1, kSnippet = 2 };

std::unique_ptr<core::SummaryInstance> MakeInstance(InstanceKind kind) {
  switch (kind) {
    case kClassifier: {
      auto instance = core::SummaryInstance::MakeClassifier(
          "bench", {"Behavior", "Disease", "Anatomy", "Other"});
      for (const auto& [label, text] :
           workload::AnnotationGenerator::ClassBird1Training()) {
        Check(instance->classifier()->Train(label, text), "train");
      }
      return instance;
    }
    case kCluster:
      return core::SummaryInstance::MakeCluster("bench", 0.35);
    case kSnippet:
      return core::SummaryInstance::MakeSnippet("bench");
  }
  return nullptr;
}

const char* KindName(InstanceKind kind) {
  switch (kind) {
    case kClassifier:
      return "classifier";
    case kCluster:
      return "cluster";
    case kSnippet:
      return "snippet";
  }
  return "?";
}

/// Marginal maintenance cost at a steady population: each iteration folds
/// one new annotation into a summary carrying `preexisting` annotations and
/// then restricts it away again (keeping the measured state size constant
/// across iterations).
void BM_IncrementalInsert(benchmark::State& state) {
  auto kind = static_cast<InstanceKind>(state.range(0));
  size_t preexisting = static_cast<size_t>(state.range(1));

  auto instance = MakeInstance(kind);
  auto object = instance->NewObject();
  workload::AnnotationGenerator gen(7);
  const auto& species = workload::CuratedSpecies()[0];
  ann::AnnotationId next_id = 0;
  for (size_t i = 0; i < preexisting; ++i) {
    auto g = kind == kSnippet ? gen.GenerateDocument(species, 5)
                              : gen.GenerateComment(species);
    g.annotation.id = next_id++;
    Check(object->AddAnnotation(g.annotation), "preload");
  }
  // A fixed pool of extra annotations cycled through the loop (ids above
  // the preloaded range so they never collide).
  std::vector<ann::Annotation> pool;
  for (size_t i = 0; i < 128; ++i) {
    auto g = kind == kSnippet ? gen.GenerateDocument(species, 5)
                              : gen.GenerateComment(species);
    g.annotation.id = next_id + i;
    pool.push_back(g.annotation);
  }

  size_t i = 0;
  for (auto _ : state) {
    const ann::Annotation& note = pool[i++ % pool.size()];
    Check(object->AddAnnotation(note), "add");
    Check(object->Restrict(std::span<const ann::AnnotationId>(&note.id, 1)), "restrict");
  }
  state.SetLabel(KindName(kind));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_IncrementalInsert)
    ->ArgsProduct({{kClassifier, kCluster, kSnippet}, {0, 50, 200, 500}})
    ->Unit(benchmark::kMicrosecond);

/// End-to-end engine path: Annotate() with all four standard instances
/// linked, as a function of the target tuple's current annotation count.
void BM_EngineAnnotatePath(benchmark::State& state) {
  size_t preexisting = static_cast<size_t>(state.range(0));
  core::Engine engine;
  Check(engine.Init(), "init");
  workload::WorkloadConfig config;
  config.num_species = 4;
  config.annotations_per_tuple = 0;
  workload::WorkloadBuilder builder(config);
  Check(builder.BuildBase(&engine), "base");
  workload::AnnotationGenerator gen(11);
  const auto& species = workload::CuratedSpecies()[0];
  auto annotate = [&](rel::RowId row) {
    auto g = gen.GenerateComment(species);
    core::AnnotateSpec spec;
    spec.table = "birds";
    spec.row = row;
    spec.body = g.annotation.body;
    spec.author = g.annotation.author;
    Check(engine.Annotate(spec), "annotate");
  };
  for (size_t i = 0; i < preexisting; ++i) annotate(0);
  for (auto _ : state) {
    annotate(0);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
// Fixed iteration count: the annotated tuple must not grow far past its
// configured starting population during measurement.
BENCHMARK(BM_EngineAnnotatePath)
    ->Arg(0)
    ->Arg(100)
    ->Arg(400)
    ->Iterations(100)
    ->Unit(benchmark::kMicrosecond);

/// Series 3: batched ingest throughput vs. worker threads (AnnotateBatch).
/// A batch spread uniformly over many rows is folded into all four standard
/// instances, sharded by target row. Compare items/s across threads=1/2/4/8
/// — the parallel results are byte-identical to serial (see
/// integration/parallel_ingest_test.cc), so this measures pure speedup.
/// Wall-clock (UseRealTime) is the honest metric: the main thread sleeps
/// while shards fold, so CPU time would overstate throughput wildly. The
/// observed speedup is gated by the machine's core count — on a 1-core
/// container the sweep is flat by construction (~95% of batch time is in
/// the row-sharded fold, but there is no second core to run it on).
void BM_ParallelBatchIngest(benchmark::State& state) {
  size_t threads = static_cast<size_t>(state.range(0));
  constexpr size_t kRows = 64;
  constexpr size_t kBatchSize = 512;

  // One shared batch: generation cost stays outside the measured region.
  // Realistic mix of short comments and attached documents (the documents
  // carry the snippet/cluster mining weight).
  workload::AnnotationGenerator gen(17);
  const auto& species = workload::CuratedSpecies();
  std::vector<core::AnnotateSpec> specs;
  specs.reserve(kBatchSize);
  for (size_t i = 0; i < kBatchSize; ++i) {
    const auto& sp = species[i % species.size()];
    auto g = i % 8 == 0 ? gen.GenerateDocument(sp, 8) : gen.GenerateComment(sp);
    core::AnnotateSpec spec;
    spec.table = "birds";
    spec.row = static_cast<rel::RowId>(i % kRows);
    spec.body = g.annotation.body;
    spec.author = g.annotation.author;
    spec.kind = g.annotation.kind;
    spec.title = g.annotation.title;
    specs.push_back(std::move(spec));
  }
  // Warm-up batch (unmeasured): spawns the engine's ingest pool so thread
  // start-up cost is not charged to the first measured batch.
  std::vector<core::AnnotateSpec> warmup(specs.begin(), specs.begin() + 2);

  for (auto _ : state) {
    state.PauseTiming();
    core::Engine engine;
    Check(engine.Init(), "init");
    workload::WorkloadConfig config;
    config.num_species = kRows;
    config.annotations_per_tuple = 0;
    workload::WorkloadBuilder builder(config);
    Check(builder.BuildBase(&engine), "base");
    Check(engine.AnnotateBatch(warmup, {.num_threads = threads}), "warmup");
    state.ResumeTiming();
    Check(engine.AnnotateBatch(specs, {.num_threads = threads}), "batch");
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kBatchSize));
  state.SetLabel("threads=" + std::to_string(threads));
}
BENCHMARK(BM_ParallelBatchIngest)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Incremental total cost vs. rebuild-from-scratch for a row with N
/// annotations (the rebuild is what a non-incremental engine pays per
/// refresh).
void BM_RebuildRow(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  core::Engine engine;
  Check(engine.Init(), "init");
  workload::WorkloadConfig config;
  config.num_species = 2;
  config.annotations_per_tuple = 0;
  workload::WorkloadBuilder builder(config);
  Check(builder.BuildBase(&engine), "base");
  workload::AnnotationGenerator gen(13);
  const auto& species = workload::CuratedSpecies()[0];
  for (size_t i = 0; i < n; ++i) {
    auto g = gen.GenerateComment(species);
    core::AnnotateSpec spec;
    spec.table = "birds";
    spec.row = 0;
    spec.body = g.annotation.body;
    Check(engine.Annotate(spec), "annotate");
  }
  auto table = Check(engine.catalog()->GetTable("birds"), "table");
  for (auto _ : state) {
    Check(engine.summaries()->RebuildRow(table->id(), 0), "rebuild");
  }
  state.SetLabel("rebuild_n=" + std::to_string(n));
}
BENCHMARK(BM_RebuildRow)->Arg(50)->Arg(200)->Arg(800)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace insightnotes::bench

BENCHMARK_MAIN();
