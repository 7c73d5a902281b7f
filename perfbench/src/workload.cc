#include "workload.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "common/random.h"
#include "core/zoom_in.h"

namespace perfbench {

namespace core = insightnotes::core;
namespace rel = insightnotes::rel;
namespace sql = insightnotes::sql;
namespace wl = insightnotes::workload;
namespace fs = std::filesystem;
using insightnotes::Random;
using insightnotes::Status;

const char* const kShapeNames[kNumShapes] = {"carry", "trim",  "group",
                                             "distinct", "topk", "join"};

namespace {

constexpr char kTable[] = "birds";
// Rows whose ClassBird1 summary holds more than this many annotations pass
// the topk shape's summary filter.
constexpr int kTopkMinCount = 2;
constexpr size_t kTopkLimit = 10;
// Zoom-in cache budget. Summaries are compact (a one-row result is a few
// KiB, a full-table result 0.3-1.5 MB here), so the engine's 4 MiB default
// would admit full-table results too. At 256 KiB one-row results are
// admitted and full-table results rejected, which makes every zoom-in on a
// one-row result a hit and every zoom-in on a full-table result a miss.
constexpr size_t kCacheBudgetBytes = 256 << 10;

// Sizes per round; see README.md for how they relate to the engine's
// 1024-page buffer pool and the zoom-in cache budget.
const WorkloadSpec kWorkloads[] = {
    {.name = "ingest",
     .rounds = 8,
     .setups = 3,
     .species = 200,
     .preload_per_tuple = 0,
     .single_annotates = 15000,
     .batch_annotations = 15000,
     .statements = 60,
     .lookups = 400,
     .zoom_pairs = 120},
    {.name = "query",
     .rounds = 8,
     .setups = 1,
     .species = 300,
     .preload_per_tuple = 60,
     .buffer_pool_pages = 256,
     .single_annotates = 1000,
     .batch_annotations = 2560,
     .statements = 60,
     .lookups = 200,
     .zoom_pairs = 60},
};

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string Hex(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

double SecondsSince(int64_t start_ns) { return static_cast<double>(NowNs() - start_ns) / 1e9; }

// Evenly spread points in [0, 1) (golden-ratio sequence from `offset`), so a
// mix's parameters cover their range the same way under every seed.
double Spread(size_t index, double offset) {
  double x = offset + 0.6180339887498949 * static_cast<double>(index + 1);
  return x - std::floor(x);
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

BenchRun::BenchRun(const WorkloadSpec& spec, uint64_t seed, std::string dir)
    : spec_(spec), seed_(seed), dir_(std::move(dir)) {
  GenerateData();
}

BenchRun::~BenchRun() = default;

wl::WorkloadConfig BenchRun::Config() const {
  wl::WorkloadConfig config;  // Zipf 0.8 rows, 3% documents, 5% shared, 40% cells.
  config.seed = seed_;
  config.table_name = kTable;
  config.num_species = spec_.species;
  config.annotations_per_tuple = spec_.preload_per_tuple;
  return config;
}

core::EngineOptions BenchRun::Options(const std::string& dir, bool open_existing) const {
  core::EngineOptions options;
  if (!dir.empty()) options.db_path = dir + "/birds.db";
  options.open_existing = open_existing;
  options.recovery_threads = kRecoveryThreads;
  options.cache_budget_bytes = kCacheBudgetBytes;
  options.buffer_pool_pages = spec_.buffer_pool_pages;
  return options;
}

void BenchRun::GenerateData() {
  const wl::WorkloadConfig config = Config();
  species_ = wl::GenerateSpecies(spec_.species, seed_);
  // The WorkloadBuilder annotation stream, drawn in the same order as
  // WorkloadBuilder::StreamAnnotations, but kept as specs so the phases can
  // replay it through Annotate or AnnotateBatch.
  Random rng(seed_ ^ 0xA11071A7E5ULL);
  wl::AnnotationGenerator gen(seed_ + 1);
  const size_t num_columns = wl::BirdTableSchema(kTable).NumColumns();
  auto generate = [&](size_t count, std::vector<GeneratedOp>* out) {
    out->reserve(count);
    for (size_t i = 0; i < count; ++i) {
      GeneratedOp op;
      op.spec.table = kTable;
      op.spec.row = rng.Zipf(species_.size(), config.zipf_skew);
      const wl::BirdSpecies& species = species_[op.spec.row];
      wl::GeneratedAnnotation generated =
          rng.Bernoulli(config.document_fraction)
              ? gen.GenerateDocument(species, config.document_sentences)
              : gen.GenerateComment(species);
      if (rng.Bernoulli(config.cell_fraction)) op.spec.columns = {rng.Uniform(num_columns)};
      op.spec.body = std::move(generated.annotation.body);
      op.spec.author = std::move(generated.annotation.author);
      op.spec.kind = generated.annotation.kind;
      op.spec.title = std::move(generated.annotation.title);
      op.spec.timestamp = generated.annotation.timestamp;
      if (rng.Bernoulli(config.shared_fraction)) {
        rel::RowId other = rng.Uniform(species_.size());
        op.shared = other != op.spec.row;
        op.share_row = other;
      }
      user_bytes_ += op.spec.body.size() + op.spec.title.size();
      out->push_back(std::move(op));
    }
  };
  generate(spec_.species * spec_.preload_per_tuple, &preload_ops_);
  generate(spec_.single_annotates, &single_ops_);
  generate(spec_.batch_annotations, &batch_ops_);

  // Annotations per row when the reads start.
  std::vector<size_t> at_reads(species_.size(), 0);
  for (const auto* ops : {&preload_ops_, &single_ops_, &batch_ops_}) {
    for (const GeneratedOp& op : *ops) {
      ++at_reads[op.spec.row];
      if (op.shared) ++at_reads[op.share_row];
    }
  }
  GenerateMix(at_reads);

  Random keys(seed_ * 0x9E3779B97F4A7C15ULL + 7);
  std::vector<rel::RowId> annotated;
  for (rel::RowId row = 0; row < at_reads.size(); ++row) {
    if (at_reads[row] > 0) annotated.push_back(row);
  }
  for (size_t i = 0; i < spec_.lookups; ++i) {
    lookup_keys_.push_back(keys.Uniform(species_.size()));
  }
  for (size_t i = 0; i < spec_.zoom_pairs && !annotated.empty(); ++i) {
    zoom_keys_.push_back(annotated[keys.Uniform(annotated.size())]);
  }
}

void BenchRun::GenerateMix(const std::vector<size_t>& row_counts) {
  Random rng(seed_ * 0xD1B54A32D192ED03ULL + 3);
  const double offset = rng.NextDouble();
  std::vector<double> sorted_weights;
  for (const auto& s : species_) sorted_weights.push_back(s.weight_kg);
  std::sort(sorted_weights.begin(), sorted_weights.end());
  size_t topk_rows = 0;
  for (size_t count : row_counts) topk_rows += count > kTopkMinCount ? 1 : 0;

  // Blocks of the six shapes, each block in a seeded order, so the shapes
  // are equally frequent and evenly spread over the mix.
  std::vector<size_t> shapes(spec_.statements);
  for (size_t block = 0; block < shapes.size(); block += kNumShapes) {
    for (size_t i = 0; i < kNumShapes && block + i < shapes.size(); ++i) shapes[block + i] = i;
    for (size_t i = std::min(kNumShapes, shapes.size() - block); i > 1; --i) {
      std::swap(shapes[block + i - 1], shapes[block + rng.Uniform(i)]);
    }
  }

  std::array<size_t, kNumShapes> seen{};
  for (size_t shape : shapes) {
    MixStatement stmt;
    stmt.shape = shape;
    const double u = Spread(seen[shape]++, offset);
    // A weight threshold between the 20th and 80th percentile, printed the
    // way the statement carries it and parsed back for the expected count.
    char literal[32];
    std::snprintf(literal, sizeof(literal), "%.4f",
                  sorted_weights[static_cast<size_t>(
                      (0.2 + 0.6 * u) * static_cast<double>(sorted_weights.size() - 1))]);
    const double threshold = std::strtod(literal, nullptr);
    size_t heavier = 0;
    std::vector<std::string> families;
    for (const auto& s : species_) {
      if (s.weight_kg > threshold) {
        ++heavier;
        families.push_back(s.family);
      }
    }
    std::sort(families.begin(), families.end());
    const size_t distinct_families =
        std::unique(families.begin(), families.end()) - families.begin();
    const std::string where = std::string(" FROM birds b WHERE b.weight > ") + literal;
    switch (shape) {
      case 0:  // carry: every column, summaries carried through.
        stmt.sql = "SELECT *" + where;
        stmt.expected_rows = heavier;
        break;
      case 1:  // trim: projection drops cell annotations of other columns.
        stmt.sql = "SELECT b.id, b.name, b.weight" + where;
        stmt.expected_rows = heavier;
        break;
      case 2:  // group: summaries merged per group.
        stmt.sql = "SELECT b.family, COUNT(*)" + where + " GROUP BY b.family";
        stmt.expected_rows = distinct_families;
        break;
      case 3:  // distinct: summaries merged per distinct value.
        stmt.sql = "SELECT DISTINCT b.family" + where;
        stmt.expected_rows = distinct_families;
        break;
      case 4:  // topk: summary predicate, ordered, limited.
        stmt.sql = "SELECT b.id, b.name, b.weight FROM birds b WHERE SUMMARY_COUNT(ClassBird1) > " +
                   std::to_string(kTopkMinCount) + " ORDER BY b.weight DESC LIMIT " +
                   std::to_string(kTopkLimit);
        stmt.expected_rows = std::min(kTopkLimit, topk_rows);
        break;
      default: {  // join: self-join on family with a selective id predicate.
        const rel::RowId key = static_cast<rel::RowId>(u * static_cast<double>(species_.size()));
        stmt.sql = "SELECT b.id, c.id, c.name FROM birds b, birds c WHERE b.family = c.family "
                   "AND b.id = " + std::to_string(key);
        stmt.expected_rows = static_cast<size_t>(std::count_if(
            species_.begin(), species_.end(),
            [&](const wl::BirdSpecies& s) { return s.family == species_[key].family; }));
        break;
      }
    }
    mix_.push_back(std::move(stmt));
  }
}

std::unique_ptr<core::Engine> BenchRun::BuildDatabase(const std::string& dir,
                                                      size_t threads) {
  auto engine = std::make_unique<Engine>(Options(dir, false));
  auto step = [&](const Status& status) {
    ops_.Record("setup", status, &verdict_);
    return status.ok();
  };
  if (!step(engine->Init())) return engine;
  wl::WorkloadBuilder builder(Config());
  if (!step(builder.BuildBase(engine.get()).status())) return engine;
  IngestBatches(engine.get(), preload_ops_, threads, nullptr);
  if (dir.empty()) return engine;  // The in-memory oracle stops here.
  step(engine->Analyze(kTable).status());
  step(engine->CreateIndex(kTable, "id"));
  step(engine->Checkpoint());
  engine->WaitForWalCompaction();
  return engine;
}

void BenchRun::IngestBatches(Engine* engine, const std::vector<GeneratedOp>& ops,
                             size_t threads, Timings* t) {
  core::AnnotateBatchOptions options;
  options.num_threads = threads;
  for (size_t begin = 0; begin < ops.size(); begin += kBatchSize) {
    const size_t end = std::min(ops.size(), begin + kBatchSize);
    std::vector<core::AnnotateSpec> specs;
    specs.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) specs.push_back(ops[i].spec);
    const int64_t start = NowNs();
    insightnotes::Result<std::vector<insightnotes::ann::AnnotationId>> ids = [&] {
      Tracer::Span span(&tracer_, "core.Engine.AnnotateBatch");
      return engine->AnnotateBatch(specs, options);
    }();
    ops_.Record("batch", ids.status(), &verdict_);
    if (!ids.ok()) continue;
    for (size_t i = begin; i < end; ++i) {
      if (ops[i].shared) AttachShared(engine, ops[i], (*ids)[i - begin]);
    }
    if (t != nullptr) {
      t->batch_wall_s += SecondsSince(start);
      t->batch_annotations += end - begin;
    }
  }
}

void BenchRun::AnnotateOne(Engine* engine, const GeneratedOp& op, Timings* t) {
  const int64_t start = NowNs();
  insightnotes::Result<insightnotes::ann::AnnotationId> id = [&] {
    Tracer::Span span(&tracer_, "core.Engine.Annotate");
    return engine->Annotate(op.spec);
  }();
  const int64_t finish = NowNs();
  ops_.Record("annotate", id.status(), &verdict_);
  if (!id.ok()) return;
  t->annotate_us.Add(static_cast<double>(finish - start) / 1e3);
  if (op.shared) AttachShared(engine, op, *id);
}

void BenchRun::TimeReference() {
  if (!ReferenceInChild(kReferenceRuns, &reference_ms_)) {
    verdict_.Fail("host reference task did not run");
  }
}

void BenchRun::AttachShared(Engine* engine, const GeneratedOp& op,
                            insightnotes::ann::AnnotationId id) {
  Tracer::Span span(&tracer_, "core.Engine.AttachAnnotation");
  ops_.Record("attach", engine->AttachAnnotation(id, kTable, op.share_row, op.spec.columns),
              &verdict_);
}

bool BenchRun::Execute(sql::SqlSession* session, const std::string& text, const char* type,
                       sql::ExecutionOutput* out) {
  insightnotes::Result<sql::ExecutionOutput> result = [&] {
    Tracer::Span span(&tracer_, "sql.SqlSession.Execute");
    return session->Execute(text);
  }();
  ops_.Record(type, result.status(), &verdict_);
  if (!result.ok()) return false;
  *out = std::move(result).value();
  return true;
}

std::unique_ptr<sql::SqlSession> BenchRun::NewSession() {
  auto session = std::make_unique<sql::SqlSession>(engine_.get());
  sql::ExecutionOutput out;
  Execute(session.get(), "SET PARALLELISM = " + std::to_string(kParallelism), "setup", &out);
  return session;
}

uint64_t BenchRun::Fingerprint(Engine* engine, const char* what) {
  auto scan = engine->MakeScan(kTable, "b", true);
  if (!scan.ok()) {
    verdict_.Fail(std::string(what) + " fingerprint scan: " + scan.status().ToString());
    return 0;
  }
  core::ExecuteOptions options;
  options.retain = false;
  auto result = engine->Execute(std::move(scan).value(), std::move(options));
  if (!result.ok()) {
    verdict_.Fail(std::string(what) + " fingerprint: " + result.status().ToString());
    return 0;
  }
  auto snapshot = core::ResultSnapshot::Capture(result->schema, result->rows);
  if (!snapshot.ok()) {
    verdict_.Fail(std::string(what) + " fingerprint capture: " +
                  snapshot.status().ToString());
    return 0;
  }
  std::string bytes;
  snapshot->Serialize(&bytes);
  return Fnv1a(bytes);
}

uint64_t BenchRun::DatabaseBytes() const {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(db_dir_, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

void BenchRun::Run(MetricSet* layers) {
  // The expected post-set-up state: the same inputs through the in-memory,
  // serial ingest path.
  fingerprint_ = Fingerprint(BuildDatabase("", 1).get(), "oracle");
  // Traced runs trace the odd rounds; the last of them also probes layers.
  const size_t probe_round = (spec_.rounds - 2) | 1;
  auto phase = [&](const char* name, auto&& body) {
    const int64_t start = NowNs();
    body();
    auto it = std::find_if(phase_s_.begin(), phase_s_.end(),
                           [&](const auto& entry) { return entry.first == name; });
    if (it == phase_s_.end()) it = phase_s_.insert(phase_s_.end(), {name, 0.0});
    it->second += SecondsSince(start);
  };
  for (size_t r = 0; r < spec_.rounds; ++r) {
    const bool traced = layers != nullptr && r % 2 == 1;
    tracer_.set_enabled(traced);
    Timings* t = &timings_[traced ? 1 : 0];
    const size_t annotates = t->annotate_us.size();
    const size_t statements = t->stmt_ms.size();
    const std::string dir = dir_ + "/round" + std::to_string(r);
    TimeReference();  // No engine exists between rounds.
    phase("setup", [&] { Setup(dir, t); });
    phase("writes", [&] { Writes(t); });
    phase("reads", [&] { Reads(t); });
    if (traced && r == probe_round) phase("layers", [&] { ProbeLayers(layers); });
    phase("reopen", [&] { Reopen(t); });
    if (traced && r == probe_round) LayerCounters(layers);
    round_annotate_p50_us_.push_back(t->annotate_us.MedianFrom(annotates));
    round_stmt_p50_ms_.push_back(t->stmt_ms.MedianFrom(statements));
    engine_.reset();
    fs::remove_all(dir);
    db_dir_.clear();
  }
  TimeReference();
  tracer_.set_enabled(false);
}

void BenchRun::Setup(const std::string& dir, Timings* t) {
  for (size_t i = 0; i < spec_.setups; ++i) {
    engine_.reset();
    if (!db_dir_.empty()) fs::remove_all(db_dir_);
    db_dir_ = dir + "/setup" + std::to_string(i);
    fs::create_directories(db_dir_);
    const int64_t start = NowNs();
    {
      Tracer::Span span(&tracer_, "bench.Setup");
      engine_ = BuildDatabase(db_dir_, kIngestThreads);
    }
    t->setup_s.Add(SecondsSince(start));
    const uint64_t fingerprint = Fingerprint(engine_.get(), "setup");
    if (fingerprint != fingerprint_) {
      verdict_.Fail("set-up fingerprint " + Hex(fingerprint) + " != expected " +
                    Hex(fingerprint_));
    }
  }
}

void BenchRun::RunMix(sql::SqlSession* session, Timings* t) {
  for (const MixStatement& stmt : mix_) {
    sql::ExecutionOutput out;
    const int64_t start = NowNs();
    const bool ok = Execute(session, stmt.sql, "stmt", &out);
    const double ms = static_cast<double>(NowNs() - start) / 1e6;
    if (!ok) continue;
    if (out.result.rows.size() != stmt.expected_rows) {
      verdict_.Fail(stmt.sql + ": " + std::to_string(out.result.rows.size()) +
                    " rows, expected " + std::to_string(stmt.expected_rows));
    }
    t->stmt_ms.Add(ms);
    t->shape_ms[stmt.shape].Add(ms);
  }
}

void BenchRun::Writes(Timings* t) {
  Engine* engine = engine_.get();
  const uint64_t wal_records = engine->wal()->num_appended();
  const uint64_t wal_bytes = engine->wal()->TotalBytes().value_or(0);
  const uint64_t page_writes = engine->disk()->num_writes();
  for (const GeneratedOp& op : single_ops_) AnnotateOne(engine, op, t);
  IngestBatches(engine, batch_ops_, kIngestThreads, t);
  wal_records_ = engine->wal()->num_appended() - wal_records;
  wal_bytes_ = engine->wal()->TotalBytes().value_or(0) - wal_bytes;
  write_page_writes_ = engine->disk()->num_writes() - page_writes;
  {
    Tracer::Span span(&tracer_, "core.Engine.Checkpoint");
    ops_.Record("checkpoint", engine->Checkpoint(), &verdict_);
  }
  {
    Tracer::Span span(&tracer_, "core.Engine.WaitForWalCompaction");
    engine->WaitForWalCompaction();
  }
  compaction_ = engine->wal_compaction();
  const uint64_t bytes = DatabaseBytes();
  if (db_bytes_ != 0 && bytes != db_bytes_) {
    verdict_.Fail("identical rounds left " + std::to_string(db_bytes_) + " and " +
                  std::to_string(bytes) + " database bytes");
  }
  db_bytes_ = bytes;
  std::error_code ec;
  page_file_bytes_ = fs::file_size(db_dir_ + "/birds.db", ec);
}

void BenchRun::Reads(Timings* t) {
  Engine* engine = engine_.get();
  auto session = NewSession();
  const uint64_t hits = engine->buffer_pool()->hits();
  const uint64_t misses = engine->buffer_pool()->misses();
  const uint64_t page_reads = engine->disk()->num_reads();
  // Zoom-in misses: a full-table result is larger than the cache budget, so
  // the cache rejects it and every zoom-in re-executes the retained plan.
  // Hits: a one-row result, cached when it ran. Both on the same component.
  sql::ExecutionOutput full;
  if (Execute(session.get(), "SELECT * FROM birds b", "stmt", &full) &&
      full.result.rows.size() != species_.size()) {
    verdict_.Fail("full-table result rows");
  }
  zoom_ids_.clear();
  RunMix(session.get(), t);

  for (rel::RowId key : lookup_keys_) {
    sql::ExecutionOutput out;
    const int64_t start = NowNs();
    const bool ok = Execute(session.get(),
                            "SELECT b.id, b.name FROM birds b WHERE b.id = " + std::to_string(key),
                            "lookup", &out);
    const double ms = static_cast<double>(NowNs() - start) / 1e6;
    if (!ok) continue;
    if (out.result.rows.size() != 1) verdict_.Fail("lookup " + std::to_string(key) + " rows");
    t->lookup_ms.Add(ms);
  }

  for (rel::RowId key : zoom_keys_) {
    const std::string k = std::to_string(key);
    sql::ExecutionOutput source, hit, miss;
    if (!Execute(session.get(), "SELECT * FROM birds b WHERE b.id = " + k, "lookup", &source)) {
      continue;
    }
    int64_t start = NowNs();
    bool ok = Execute(session.get(),
                      "ZOOMIN REFERENCE QID " + std::to_string(source.result.qid) +
                          " ON ClassBird1 INDEX 1",
                      "zoomin", &hit);
    double ms = static_cast<double>(NowNs() - start) / 1e6;
    if (ok) {
      t->zoom_hit_ms.Add(ms);
      if (!hit.zoom.served_from_cache) verdict_.Fail("zoom-in hit on row " + k + " missed");
    }
    start = NowNs();
    ok = Execute(session.get(),
                 "ZOOMIN REFERENCE QID " + std::to_string(full.result.qid) +
                     " WHERE b.id = " + k + " ON ClassBird1 INDEX 1",
                 "zoomin", &miss) && ok;
    ms = static_cast<double>(NowNs() - start) / 1e6;
    if (!ok) continue;
    t->zoom_miss_ms.Add(ms);
    if (miss.zoom.served_from_cache) verdict_.Fail("zoom-in miss on row " + k + " hit");
    if (hit.zoom.rows.size() != 1 || miss.zoom.rows.size() != 1) {
      verdict_.Fail("zoom-in on row " + k + " returned " + std::to_string(hit.zoom.rows.size()) +
                    "/" + std::to_string(miss.zoom.rows.size()) + " rows");
      continue;
    }
    std::vector<insightnotes::ann::AnnotationId> hit_ids, miss_ids;
    for (const auto& note : hit.zoom.rows[0].annotations) hit_ids.push_back(note.id);
    for (const auto& note : miss.zoom.rows[0].annotations) miss_ids.push_back(note.id);
    if (hit_ids != miss_ids) verdict_.Fail("zoom-in hit and miss on row " + k + " differ");
    zoom_ids_.push_back(std::move(hit_ids));
  }
  read_statements_ = mix_.size() + lookup_keys_.size() + 3 * zoom_keys_.size() + 1;
  read_pool_hits_ = engine->buffer_pool()->hits() - hits;
  read_pool_misses_ = engine->buffer_pool()->misses() - misses;
  read_page_reads_ = engine->disk()->num_reads() - page_reads;
  cache_stats_ = engine->cache()->stats();
}

void BenchRun::Reopen(Timings* t) {
  const uint64_t before = Fingerprint(engine_.get(), "pre-close");
  engine_.reset();  // The destructor checkpoints and stops the compactor.
  TimeReference();
  const int64_t start = NowNs();
  engine_ = std::make_unique<Engine>(Options(db_dir_, true));
  Status status;
  {
    Tracer::Span span(&tracer_, "core.Engine.Init");
    status = engine_->Init();
  }
  if (status.ok()) {
    // The caller's re-setup: catalog and instances are configuration.
    Tracer::Span span(&tracer_, "workload.WorkloadBuilder.BuildBase");
    status = wl::WorkloadBuilder(Config()).BuildBase(engine_.get()).status();
  }
  const double seconds = SecondsSince(start);
  ops_.Record("reopen", status, &verdict_);
  if (!status.ok()) return;
  t->reopen_s.Add(seconds);
  recovery_ = engine_->recovery();
  const uint64_t after = Fingerprint(engine_.get(), "reopen");
  if (after != before) {
    verdict_.Fail("reopen fingerprint " + Hex(after) + " != pre-close " + Hex(before));
  }
}

void BenchRun::EndToEnd(MetricSet* e2e, MetricSet* raw, bool traced) {
  Timings& t = timings_[traced ? 1 : 0];
  std::vector<double> shape_medians;
  for (const Samples& samples : t.shape_ms) shape_medians.push_back(samples.Median());
  // Host speed swings by a quarter over minutes; the reference task, timed
  // in a fresh process whenever no engine exists, tracks it (README.md,
  // "Host speed").
  const double reference_scale = kReferenceMs / reference_ms_.Median();
  for (auto [out, scale] : {std::pair{e2e, reference_scale}, std::pair{raw, 1.0}}) {
    out->Set("setup_s", t.setup_s.Median() * scale, "s");
    out->Set("peak_rss_mb", PeakRssMb(), "MB");
    out->Set("annotate_p50_us", t.annotate_us.Median() * scale, "us");
    out->Set("annotate_p95_us",
             t.annotate_us.TailQuantile(0.95, "annotate_p95_us", &verdict_) * scale, "us");
    out->Set("batch_ann_per_s",
             static_cast<double>(t.batch_annotations) / (t.batch_wall_s * scale), "1/s");
    out->Set("reopen_s", t.reopen_s.Median() * scale, "s");
    out->Set("db_bytes_per_user_byte",
             static_cast<double>(db_bytes_) /
                 static_cast<double>(std::max<uint64_t>(1, user_bytes_)),
             "ratio");
    out->Set("query_geomean_ms", GeoMean(shape_medians) * scale, "ms");
    out->Set("query_p95_ms", t.stmt_ms.TailQuantile(0.95, "query_p95_ms", &verdict_) * scale,
             "ms");
    out->Set("lookup_p50_ms", t.lookup_ms.Median() * scale, "ms");
    out->Set("zoomin_hit_p50_ms", t.zoom_hit_ms.Median() * scale, "ms");
    out->Set("zoomin_miss_p50_ms", t.zoom_miss_ms.Median() * scale, "ms");
  }
}

std::string BenchRun::InfoJson() const {
  std::string out = "{\"workload\": ";
  AppendJsonString(&out, spec_.name);
  auto field = [&out](const std::string& name, double value) {
    out += ", ";
    AppendJsonString(&out, name);
    out += ": ";
    AppendJsonNumber(&out, value);
  };
  field("rounds", static_cast<double>(spec_.rounds));
  field("setups_per_round", static_cast<double>(spec_.setups));
  field("species", static_cast<double>(spec_.species));
  field("preload_annotations", static_cast<double>(preload_ops_.size()));
  field("single_annotates", static_cast<double>(single_ops_.size()));
  field("batch_annotations", static_cast<double>(batch_ops_.size()));
  field("statements", static_cast<double>(mix_.size()));
  field("lookups", static_cast<double>(lookup_keys_.size()));
  field("zoomin_pairs", static_cast<double>(zoom_keys_.size()));
  field("parallelism", static_cast<double>(kParallelism));
  field("ingest_threads", static_cast<double>(kIngestThreads));
  field("recovery_threads", static_cast<double>(kRecoveryThreads));
  field("cache_budget_bytes", static_cast<double>(kCacheBudgetBytes));
  field("buffer_pool_pages", static_cast<double>(spec_.buffer_pool_pages));
  field("db_bytes", static_cast<double>(db_bytes_));
  field("page_file_bytes", static_cast<double>(page_file_bytes_));
  field("user_bytes", static_cast<double>(user_bytes_));
  for (const auto& [name, seconds] : phase_s_) field("phase_s_" + name, seconds);
  auto list = [&out](const char* name, const std::vector<double>& values) {
    out += ", ";
    AppendJsonString(&out, name);
    out += ": [";
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ", ";
      AppendJsonNumber(&out, values[i]);
    }
    out += "]";
  };
  list("round_annotate_p50_us", round_annotate_p50_us_);
  list("round_stmt_p50_ms", round_stmt_p50_ms_);
  field("reference_ms", reference_ms_.Median());
  field("reference_samples", static_cast<double>(reference_ms_.size()));
  out += ", \"fingerprint\": ";
  AppendJsonString(&out, Hex(fingerprint_));
  return out + "}";
}

}  // namespace perfbench
