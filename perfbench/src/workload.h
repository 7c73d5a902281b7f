// The benchmark's workloads: seeded data generation and the rounds every
// workload runs (set-up, writes, reads, reopen on a fresh database each
// round), sized per workload, plus the per-layer probes of the traced run.
// Everything reaches the engine through its public API.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "harness.h"
#include "sql/session.h"
#include "workload/workload.h"

namespace perfbench {

/// Fixed work of one workload. Counts never depend on elapsed time, so
/// database size and retained-result memory are identical across runs.
/// Every count but `rounds` is per round.
struct WorkloadSpec {
  const char* name = "";
  size_t rounds = 0;              // Identical rounds, each on a fresh database.
  size_t setups = 0;              // Set-ups; setup_s is their median.
  size_t species = 0;
  size_t preload_per_tuple = 0;   // Set-up AnnotateBatch volume per row.
  size_t buffer_pool_pages = 1024;  // EngineOptions::buffer_pool_pages.
  size_t single_annotates = 0;    // Durable Engine::Annotate calls.
  size_t batch_annotations = 0;   // Ingested in AnnotateBatch calls of 64.
  size_t statements = 0;          // Statement-mix length.
  size_t lookups = 0;             // Point lookups.
  size_t zoom_pairs = 0;          // Zoom-in hit/miss pairs.
};

/// Null when `name` names no workload.
const WorkloadSpec* FindWorkload(const std::string& name);

inline constexpr size_t kBatchSize = 64;
inline constexpr size_t kIngestThreads = 1;    // AnnotateBatchOptions::num_threads.
inline constexpr size_t kRecoveryThreads = 2;  // EngineOptions::recovery_threads.
inline constexpr size_t kParallelism = 2;      // SET PARALLELISM of the sessions.
inline constexpr double kReferenceMs = 10.0;  // Nominal ReferenceMs().
inline constexpr int kReferenceRuns = 8;      // ReferenceMs() runs per child process.
inline constexpr size_t kNumShapes = 6;
extern const char* const kShapeNames[kNumShapes];

/// One generated annotation and whether it is also attached to a second
/// row (a shared annotation).
struct GeneratedOp {
  insightnotes::core::AnnotateSpec spec;
  bool shared = false;
  insightnotes::rel::RowId share_row = 0;
};

/// One statement of the mix with its expected row count.
struct MixStatement {
  size_t shape = 0;
  std::string sql;
  size_t expected_rows = 0;
};

/// Every timed sample of a run's untraced or traced rounds.
struct Timings {
  Samples setup_s, annotate_us, stmt_ms, lookup_ms, zoom_hit_ms, zoom_miss_ms, reopen_s;
  std::array<Samples, kNumShapes> shape_ms;
  // The writes' AnnotateBatch calls with their AttachAnnotation calls.
  double batch_wall_s = 0.0;
  size_t batch_annotations = 0;
};

class BenchRun {
 public:
  BenchRun(const WorkloadSpec& spec, uint64_t seed, std::string dir);
  ~BenchRun();
  BenchRun(const BenchRun&) = delete;
  BenchRun& operator=(const BenchRun&) = delete;

  /// Runs every round. With `layers` non-null, odd rounds are traced and
  /// the last traced round probes the layers and fills `layers`.
  void Run(MetricSet* layers);

  /// End-to-end metrics over the untraced rounds, or the traced ones, with
  /// times scaled to a host on which ReferenceMs() takes kReferenceMs; the
  /// same metrics unscaled go to `raw`.
  void EndToEnd(MetricSet* e2e, MetricSet* raw, bool traced);

  Verdict& verdict() { return verdict_; }
  OpCounts& ops() { return ops_; }
  Tracer& tracer() { return tracer_; }
  /// Sizes, database footprint, phase times, per-round medians and the
  /// host reference, as JSON.
  std::string InfoJson() const;

 private:
  using Engine = insightnotes::core::Engine;

  insightnotes::workload::WorkloadConfig Config() const;
  insightnotes::core::EngineOptions Options(const std::string& dir, bool open_existing) const;
  void GenerateData();
  void GenerateMix(const std::vector<size_t>& row_counts);

  // Phases of one round, on `engine_` in `db_dir_`, timed into `t`.
  void Setup(const std::string& dir, Timings* t);
  void Writes(Timings* t);
  void Reads(Timings* t);
  void Reopen(Timings* t);
  void ProbeLayers(MetricSet* layers);
  /// Per-layer metrics from the last round's engine counters and the
  /// traced rounds' timings and spans.
  void LayerCounters(MetricSet* layers);

  /// Builds one set-up database in `dir` ("" = in memory, the oracle).
  std::unique_ptr<Engine> BuildDatabase(const std::string& dir, size_t threads);
  void IngestBatches(Engine* engine, const std::vector<GeneratedOp>& ops, size_t threads,
                     Timings* t);
  void AnnotateOne(Engine* engine, const GeneratedOp& op, Timings* t);
  /// Times the reference task in a child process; only while no engine exists.
  void TimeReference();
  void AttachShared(Engine* engine, const GeneratedOp& op, insightnotes::ann::AnnotationId id);
  void RunMix(insightnotes::sql::SqlSession* session, Timings* t);
  /// Runs one statement; false (and a recorded failure) on error.
  bool Execute(insightnotes::sql::SqlSession* session, const std::string& sql,
               const char* type, insightnotes::sql::ExecutionOutput* out);
  /// Hash of a summary scan serialized via ResultSnapshot::Capture.
  uint64_t Fingerprint(Engine* engine, const char* what);
  uint64_t DatabaseBytes() const;
  std::unique_ptr<insightnotes::sql::SqlSession> NewSession();

  const WorkloadSpec spec_;
  const uint64_t seed_;
  const std::string dir_;
  Tracer tracer_{false};
  Verdict verdict_;
  OpCounts ops_;

  // Generated inputs, identical in every round.
  std::vector<insightnotes::workload::BirdSpecies> species_;
  std::vector<GeneratedOp> preload_ops_, single_ops_, batch_ops_;
  std::vector<MixStatement> mix_;
  std::vector<insightnotes::rel::RowId> lookup_keys_, zoom_keys_;
  uint64_t user_bytes_ = 0;

  std::string db_dir_;  // The live database's directory.
  std::unique_ptr<Engine> engine_;
  uint64_t fingerprint_ = 0;  // Expected summary-scan fingerprint after set-up.

  // Measurements: [0] untraced rounds, [1] traced rounds.
  std::array<Timings, 2> timings_;
  std::vector<std::pair<std::string, double>> phase_s_;  // Summed over rounds.
  std::vector<double> round_annotate_p50_us_, round_stmt_p50_ms_;
  Samples reference_ms_;  // ReferenceMs() at every round boundary and reopen.
  uint64_t db_bytes_ = 0;
  uint64_t page_file_bytes_ = 0;
  // Engine counters of the latest round (per-layer metrics).
  uint64_t wal_records_ = 0, wal_bytes_ = 0, write_page_writes_ = 0;
  uint64_t read_pool_hits_ = 0, read_pool_misses_ = 0, read_page_reads_ = 0;
  uint64_t read_statements_ = 0;
  insightnotes::core::WalCompactionStats compaction_;
  insightnotes::core::CacheStats cache_stats_;
  insightnotes::core::RecoveryReport recovery_;
  std::vector<std::vector<insightnotes::ann::AnnotationId>> zoom_ids_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
