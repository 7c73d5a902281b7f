// Experiment E8 — parallel WAL replay (restart latency vs. cores).
//
// A synthetic segmented log (thousands of annotations spread over many
// rows, so recovery partitions into many independent chains) is built
// once on disk; each measured iteration reopens the database and times
// Engine::Init() — page-file audit, segment decode and chain replay.
// Sweeping recovery_threads over 1/2/4/8 shows restart time scaling with
// cores; every worker count replays the same chains into the identical
// logical state (see integration/crash_recovery_test.cc,
// RecoveryIsIdenticalAtEveryThreadCount), so this measures pure speedup.
// Wall-clock (UseRealTime) is the honest metric: the opening thread
// sleeps while pool workers replay chains. On a 1-core container the
// sweep is flat by construction.
//
// Emits BENCH_recovery.json (see bench_util.h); bench/check_bench_json.py
// validates the sweep shape (threads counter, parallelism-1 baseline,
// constant replayed-record count).

#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace insightnotes::bench {
namespace {

constexpr size_t kNumRows = 64;
constexpr size_t kNumAnnotations = 6000;

std::string DbPath() {
  return (std::filesystem::temp_directory_path() / "insightnotes_bench_recovery.db")
      .string();
}

/// Removes the page file plus every WAL artifact (segments, manifest) —
/// all share the db path as a name prefix.
void RemoveDbFiles() {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path prefix = DbPath();
  const std::string stem = prefix.filename().string();
  for (fs::directory_iterator it(prefix.parent_path(), ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->path().filename().string().rfind(stem, 0) == 0) {
      std::error_code remove_ec;
      fs::remove(it->path(), remove_ec);
    }
  }
}

core::EngineOptions RecoveryOptions(size_t threads) {
  core::EngineOptions options;
  options.db_path = DbPath();
  options.open_existing = true;
  options.recovery_threads = threads;
  // Keep the log byte-stable across repeated reopens: every iteration must
  // replay the same records, or the sweep compares different workloads.
  options.compact_wal_on_checkpoint = false;
  return options;
}

/// Builds the on-disk database once: kNumAnnotations spread uniformly over
/// kNumRows rows, committed through the segmented WAL in small segments so
/// the decode phase has real per-segment parallelism too.
void EnsureDatabase() {
  static const bool built = [] {
    RemoveDbFiles();
    core::EngineOptions options;
    options.db_path = DbPath();
    options.wal_segment_bytes = 64 << 10;
    options.compact_wal_on_checkpoint = false;
    core::Engine engine(options);
    Check(engine.Init(), "build init");
    Check(engine.CreateTable(
              "notes", rel::Schema({{"id", rel::ValueType::kInt64, "notes"},
                                    {"label", rel::ValueType::kString, "notes"}})),
          "create table");
    for (size_t i = 0; i < kNumRows; ++i) {
      Check(engine.Insert("notes",
                          rel::Tuple({rel::Value(static_cast<int64_t>(i)),
                                      rel::Value("row" + std::to_string(i))})),
            "insert row");
    }
    std::vector<core::AnnotateSpec> specs;
    specs.reserve(kNumAnnotations);
    for (size_t i = 0; i < kNumAnnotations; ++i) {
      core::AnnotateSpec spec;
      spec.table = "notes";
      spec.row = static_cast<rel::RowId>(i % kNumRows);
      spec.author = "bench-" + std::to_string(i % 7);
      spec.body = "synthetic recovery workload annotation " + std::to_string(i) +
                  " with enough trailing text to make the replay decode and "
                  "store apply cost realistic per record";
      specs.push_back(std::move(spec));
    }
    Check(engine.AnnotateBatch(specs), "annotate batch");
    // Destruction checkpoints: the page file is flushed and the log synced,
    // leaving a clean on-disk database for the reopen sweep.
    return true;
  }();
  (void)built;
}

/// Restart latency: Engine::Init() with open_existing over the prebuilt
/// log, as a function of replay parallelism. Only Init is timed — engine
/// construction and the closing checkpoint happen off the clock.
void BM_ParallelRecovery(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  EnsureDatabase();
  uint64_t replayed = 0;
  uint64_t chains = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto engine = std::make_unique<core::Engine>(RecoveryOptions(threads));
    state.ResumeTiming();
    Check(engine->Init(), "recover");
    state.PauseTiming();
    replayed = engine->recovery().wal_records_replayed;
    chains = engine->recovery().replay_chains;
    engine.reset();
    state.ResumeTiming();
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["wal_records"] = static_cast<double>(replayed);
  state.counters["chains"] = static_cast<double>(chains);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * replayed));
  state.SetLabel("threads=" + std::to_string(threads));
}
BENCHMARK(BM_ParallelRecovery)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace insightnotes::bench

int main(int argc, char** argv) {
  int result = insightnotes::bench::RunBenchmarksWithJsonReport(argc, argv,
                                                                "BENCH_recovery.json");
  insightnotes::bench::RemoveDbFiles();
  return result;
}
