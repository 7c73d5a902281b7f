// Shared benchmark scaffolding: engine construction, workload presets and
// a tiny cache of built engines so repeated benchmark registrations over
// the same configuration don't pay the setup cost every time.

#ifndef INSIGHTNOTES_BENCH_BENCH_UTIL_H_
#define INSIGHTNOTES_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/engine.h"
#include "exec/operator.h"
#include "sql/session.h"
#include "workload/workload.h"

namespace insightnotes::bench {

/// Aborts the benchmark run on error — a broken setup must not produce
/// numbers silently.
inline void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    fprintf(stderr, "benchmark setup failed (%s): %s\n", what,
            status.ToString().c_str());
    std::abort();
  }
}

template <typename T>
T Check(Result<T> result, const char* what) {
  Check(result.status().ok() ? Status::OK() : result.status(), what);
  return std::move(result).value();
}

/// Opens `op` and drains it batch by batch. Returns the row count, or the
/// first error of Open/NextBatch.
inline Result<size_t> DrainRows(exec::Operator* op) {
  INSIGHTNOTES_RETURN_IF_ERROR(op->Open());
  size_t rows = 0;
  core::AnnotatedBatch batch;
  while (true) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(bool more, op->NextBatch(&batch));
    if (!more) return rows;
    rows += batch.tuples.size();
  }
}

struct BuiltWorkload {
  std::unique_ptr<core::Engine> engine;
  workload::WorkloadStats stats;
  workload::WorkloadConfig config;
};

/// Builds (and memoizes per distinct key) an annotated bird database.
inline BuiltWorkload* GetWorkload(size_t num_species, size_t annotations_per_tuple,
                                  bool with_summaries = true,
                                  double document_fraction = 0.02) {
  using Key = std::tuple<size_t, size_t, bool, int>;
  static auto* cache = new std::map<Key, std::unique_ptr<BuiltWorkload>>();
  Key key{num_species, annotations_per_tuple, with_summaries,
          static_cast<int>(document_fraction * 1000)};
  auto it = cache->find(key);
  if (it != cache->end()) return it->second.get();

  auto built = std::make_unique<BuiltWorkload>();
  built->engine = std::make_unique<core::Engine>();
  Check(built->engine->Init(), "engine init");
  workload::WorkloadConfig config;
  config.num_species = num_species;
  config.annotations_per_tuple = annotations_per_tuple;
  config.document_fraction = document_fraction;
  config.with_classifier1 = with_summaries;
  config.with_classifier2 = with_summaries;
  config.with_cluster = with_summaries;
  config.with_snippet = with_summaries;
  built->config = config;
  workload::WorkloadBuilder builder(config);
  built->stats = Check(builder.Build(built->engine.get()), "workload build");
  auto* raw = built.get();
  (*cache)[key] = std::move(built);
  return raw;
}

/// Drop-in BENCHMARK_MAIN() replacement that, in addition to the console
/// report, always writes Google Benchmark's JSON report to `default_path`
/// (override with $INSIGHTNOTES_BENCH_JSON, or pass --benchmark_out=
/// explicitly) so CI can record the perf trajectory machine-readably.
/// bench/check_bench_json.py validates the emitted schema.
inline int RunBenchmarksWithJsonReport(int argc, char** argv,
                                       const char* default_path) {
  const char* env = std::getenv("INSIGHTNOTES_BENCH_JSON");
  std::string path = env != nullptr ? env : default_path;
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=" + path;
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out && !path.empty()) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int effective_argc = static_cast<int>(args.size());
  benchmark::Initialize(&effective_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(effective_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace insightnotes::bench

#endif  // INSIGHTNOTES_BENCH_BENCH_UTIL_H_
