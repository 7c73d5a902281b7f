// Per-layer metrics of the traced run. ProbeLayers calls each layer's public
// functions under a span on the live database after the reads (summary
// maintenance on replica instances, so the engine's own caches stay
// untouched); LayerCounters turns engine counters and the spans of every
// phase into metrics once the run is over.

#include <filesystem>
#include <map>
#include <sstream>

#include "annotation/wal_records.h"
#include "core/raw_baseline.h"
#include "core/summary_instance.h"
#include "core/summary_object.h"
#include "core/zoom_in.h"
#include "exec/filter.h"
#include "exec/projection.h"
#include "rel/expression.h"
#include "sql/parser.h"
#include "storage/wal_segments.h"
#include "workload.h"

namespace perfbench {

namespace core = insightnotes::core;
namespace ann = insightnotes::ann;
namespace rel = insightnotes::rel;
namespace sql = insightnotes::sql;
namespace storage = insightnotes::storage;
namespace wl = insightnotes::workload;
using insightnotes::Status;

namespace {

// Calls per probe: enough for a median, small next to the run itself.
constexpr size_t kProbeCalls = 2000;
constexpr size_t kSampleRows = 8;
constexpr size_t kAddsPerRow = 25;
constexpr size_t kRepeats = 5;

const char* TypeName(core::SummaryTypeKind type) {
  switch (type) {
    case core::SummaryTypeKind::kClassifier:
      return "classifier";
    case core::SummaryTypeKind::kCluster:
      return "cluster";
    case core::SummaryTypeKind::kSnippet:
      return "snippet";
  }
  return "unknown";
}

// Span names of the summary-algebra probes, per summary type.
const char* AddSpan(core::SummaryTypeKind type) {
  static const char* const kNames[] = {"core.ClassifierObject.AddAnnotation",
                                       "core.ClusterObject.AddAnnotation",
                                       "core.SnippetObject.AddAnnotation"};
  return kNames[static_cast<int>(type)];
}
const char* CloneSpan(core::SummaryTypeKind type) {
  static const char* const kNames[] = {"core.ClassifierObject.Clone",
                                       "core.ClusterObject.Clone",
                                       "core.SnippetObject.Clone"};
  return kNames[static_cast<int>(type)];
}
const char* MergeSpan(core::SummaryTypeKind type) {
  static const char* const kNames[] = {"core.ClassifierObject.MergeWith",
                                       "core.ClusterObject.MergeWith",
                                       "core.SnippetObject.MergeWith"};
  return kNames[static_cast<int>(type)];
}
constexpr core::SummaryTypeKind kTypes[] = {core::SummaryTypeKind::kClassifier,
                                            core::SummaryTypeKind::kCluster,
                                            core::SummaryTypeKind::kSnippet};

/// Replicas of the probed instances, one per summary type: the same
/// factories, labels, thresholds and training data as WorkloadBuilder.
struct Replicas {
  std::unique_ptr<core::SummaryInstance> classifier = core::SummaryInstance::MakeClassifier(
      "ClassBird1", {"Behavior", "Disease", "Anatomy", "Other"});
  std::unique_ptr<core::SummaryInstance> cluster =
      core::SummaryInstance::MakeCluster("SimCluster", 0.35);
  std::unique_ptr<core::SummaryInstance> snippet =
      core::SummaryInstance::MakeSnippet("TextSummary1", {.max_sentences = 2, .max_chars = 200});

  Status Train() {
    for (const auto& [label, text] : wl::AnnotationGenerator::ClassBird1Training()) {
      INSIGHTNOTES_RETURN_IF_ERROR(classifier->classifier()->Train(label, text));
    }
    return Status::OK();
  }

  core::SummaryInstance* ForType(core::SummaryTypeKind type) const {
    switch (type) {
      case core::SummaryTypeKind::kClassifier:
        return classifier.get();
      case core::SummaryTypeKind::kCluster:
        return cluster.get();
      case core::SummaryTypeKind::kSnippet:
        return snippet.get();
    }
    return nullptr;
  }
};

ann::Annotation NoteOf(const core::AnnotateSpec& spec, ann::AnnotationId id) {
  ann::Annotation note;
  note.id = id;
  note.kind = spec.kind;
  note.author = spec.author;
  note.timestamp = spec.timestamp;
  note.title = spec.title;
  note.body = spec.body;
  return note;
}

/// Sums self time (wall minus the children's wall, floored at 0) per
/// operator family over one EXPLAIN ANALYZE rendering.
void AddSelfTimes(const std::string& rendering, std::map<std::string, double>* self_ms) {
  struct Node {
    size_t depth;
    std::string family;
    double wall;
    double children = 0.0;
  };
  auto family_of = [](const std::string& op) -> std::string {
    if (op.find("Scan") != std::string::npos) return "scan";
    if (op.find("Filter") != std::string::npos) return "filter";
    if (op.find("Project") != std::string::npos) return "project";
    if (op.find("Join") != std::string::npos) return "join";
    if (op.find("Aggregate") != std::string::npos) return "aggregate";
    if (op.find("Distinct") != std::string::npos) return "distinct";
    if (op.find("Sort") != std::string::npos || op.find("TopK") != std::string::npos ||
        op.find("Limit") != std::string::npos) {
      return "sort";
    }
    return "";  // Gather and order restoration: parallel plans only.
  };
  std::vector<Node> stack;
  auto close_until = [&](size_t depth) {
    while (!stack.empty() && stack.back().depth >= depth) {
      Node node = stack.back();
      stack.pop_back();
      if (!node.family.empty()) (*self_ms)[node.family] += std::max(0.0, node.wall - node.children);
      if (!stack.empty()) stack.back().children += node.wall;
    }
  };
  std::istringstream lines(rendering);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t arrow = line.find("-> ");
    const size_t wall_at = line.rfind("wall_ms=");
    if (arrow == std::string::npos || wall_at == std::string::npos) continue;
    const size_t depth = arrow / 2;
    close_until(depth);
    const std::string op = line.substr(arrow + 3, line.find_first_of("( ", arrow + 3) - arrow - 3);
    stack.push_back({depth, family_of(op), std::strtod(line.c_str() + wall_at + 8, nullptr)});
  }
  close_until(0);
}

}  // namespace

void BenchRun::ProbeLayers(MetricSet* layers) {
  Engine* engine = engine_.get();
  auto median_of = [&](const char* span) { return tracer_.DurationsUs(span).Median(); };

  // --- storage: the write-ahead log, on a side log in the same directory.
  std::vector<const GeneratedOp*> written;
  for (const auto* ops : {&single_ops_, &batch_ops_}) {
    for (const GeneratedOp& op : *ops) written.push_back(&op);
  }
  {
    const std::string base = db_dir_ + "/side.wal";
    storage::SegmentedWal side;
    Status opened = side.Open(base, true, UINT64_MAX, 0, storage::SegmentedWal::Options());
    ops_.Record("probe", opened, &verdict_);
    for (size_t i = 0; opened.ok() && i < std::min(kProbeCalls, written.size()); ++i) {
      ann::WalAddRecord record;
      record.expected_id = i;
      record.note = NoteOf(written[i]->spec, i);
      record.region.row = written[i]->spec.row;
      record.region.columns = written[i]->spec.columns;
      const std::string payload = ann::EncodeWalEntry(record);
      ops_.Record("probe", side.MaybeRotate(), &verdict_);
      {
        Tracer::Span span(&tracer_, "storage.SegmentedWal.Append");
        ops_.Record("probe", side.Append(payload).status(), &verdict_);
      }
      Tracer::Span span(&tracer_, "storage.SegmentedWal.Sync");
      ops_.Record("probe", side.Sync(), &verdict_);
    }
    ops_.Record("probe", side.Close(), &verdict_);
    for (const auto& entry : std::filesystem::directory_iterator(db_dir_)) {
      if (entry.path().filename().string().rfind("side.wal", 0) == 0) {
        std::filesystem::remove(entry.path());
      }
    }
  }
  layers->Set("storage.wal_append_us", median_of("storage.SegmentedWal.Append"), "us");
  layers->Set("storage.wal_sync_us", median_of("storage.SegmentedWal.Sync"), "us");

  // --- storage: page fetches through the engine's buffer pool.
  const uint32_t pages = engine->disk()->num_pages();
  for (uint32_t page = 0; page < pages && page < kProbeCalls; ++page) {
    Tracer::Span span(&tracer_, "storage.BufferPool.FetchPage");
    ops_.Record("probe", engine->buffer_pool()->FetchPage(page).status(), &verdict_);
  }
  layers->Set("storage.fetch_page_us", median_of("storage.BufferPool.FetchPage"), "us");

  // --- annotation: raw-annotation fetches behind the zoom-ins.
  size_t gets = 0;
  for (const auto& ids : zoom_ids_) {
    for (ann::AnnotationId id : ids) {
      if (gets++ >= kProbeCalls) break;
      Tracer::Span span(&tracer_, "annotation.AnnotationStore.Get");
      ops_.Record("probe", engine->annotations()->Get(id).status(), &verdict_);
    }
  }
  layers->Set("annotation.get_us", median_of("annotation.AnnotationStore.Get"), "us");

  // --- txt/mining: per-annotation summary maintenance on replicas.
  Replicas replicas;
  ops_.Record("probe", replicas.Train(), &verdict_);
  const ann::AnnotationId probe_base = 1ULL << 40;  // Ids no run assigns.
  for (size_t i = 0; i < std::min(kProbeCalls, written.size()); ++i) {
    const ann::Annotation note = NoteOf(written[i]->spec, probe_base + i);
    {
      Tracer::Span span(&tracer_, "txt.SummaryInstance.TokenizeBody");
      (void)replicas.cluster->TokenizeBody(note);
    }
    {
      Tracer::Span span(&tracer_, "mining.SummaryInstance.ClassifyAnnotation");
      (void)replicas.classifier->ClassifyAnnotation(note);
    }
    {
      Tracer::Span span(&tracer_, "mining.SummaryInstance.VectorizeAnnotation");
      (void)replicas.cluster->VectorizeAnnotation(note);
    }
    if (note.kind == ann::AnnotationKind::kDocument) {
      Tracer::Span span(&tracer_, "mining.SummaryInstance.SummarizeDocument");
      (void)replicas.snippet->SummarizeDocument(note);
    }
  }
  layers->Set("txt.tokenize_us", median_of("txt.SummaryInstance.TokenizeBody"), "us");
  layers->Set("mining.classify_us", median_of("mining.SummaryInstance.ClassifyAnnotation"), "us");
  layers->Set("mining.vectorize_us", median_of("mining.SummaryInstance.VectorizeAnnotation"),
              "us");
  layers->Set("mining.snippet_us", median_of("mining.SummaryInstance.SummarizeDocument"), "us");

  // --- core: AddAnnotation into clones of replica rows at their final sizes.
  // Rows: every annotation in ingest order, with its id and shared target.
  std::vector<std::vector<ann::Annotation>> row_notes(species_.size());
  std::vector<ann::Annotation> documents;
  {
    ann::AnnotationId id = 0;
    for (const auto* ops : {&preload_ops_, &single_ops_, &batch_ops_}) {
      for (const GeneratedOp& op : *ops) {
        ann::Annotation note = NoteOf(op.spec, id++);
        if (op.shared) row_notes[op.share_row].push_back(note);
        if (note.kind == ann::AnnotationKind::kDocument) documents.push_back(note);
        row_notes[op.spec.row].push_back(std::move(note));
      }
    }
  }
  std::vector<rel::RowId> by_size(species_.size());
  for (rel::RowId row = 0; row < by_size.size(); ++row) by_size[row] = row;
  std::sort(by_size.begin(), by_size.end(), [&](rel::RowId a, rel::RowId b) {
    return row_notes[a].size() > row_notes[b].size();
  });
  ann::AnnotationId next_probe_id = probe_base + kProbeCalls;
  for (size_t s = 0; s < kSampleRows; ++s) {
    const rel::RowId row = by_size[s * (by_size.size() - 1) / (kSampleRows - 1)];
    for (core::SummaryTypeKind type : kTypes) {
      core::SummaryInstance* instance = replicas.ForType(type);
      std::unique_ptr<core::SummaryObject> object = instance->NewObject();
      for (const ann::Annotation& note : row_notes[row]) {
        ops_.Record("probe", object->AddAnnotation(note), &verdict_);
      }
      std::unique_ptr<core::SummaryObject> copy = object->Clone();
      for (size_t i = 0; i < kAddsPerRow; ++i) {
        ann::Annotation note =
            type == core::SummaryTypeKind::kSnippet && !documents.empty()
                ? documents[(s * kAddsPerRow + i) % documents.size()]
                : row_notes[by_size[0]][(s * kAddsPerRow + i) % row_notes[by_size[0]].size()];
        note.id = next_probe_id++;
        Tracer::Span span(&tracer_, AddSpan(type));
        ops_.Record("probe", copy->AddAnnotation(note), &verdict_);
      }
    }
  }

  // --- core: summary algebra on the engine's maintained row objects.
  auto table = engine->catalog()->GetTable("birds");
  ops_.Record("probe", table.status(), &verdict_);
  if (table.ok()) {
    const rel::TableId table_id = (*table)->id();
    for (rel::RowId row = 0; row < species_.size(); ++row) {
      const auto* objects = engine->summaries()->RowObjects(table_id, row);
      if (objects == nullptr) continue;
      for (const auto& object : *objects) {
        std::unique_ptr<core::SummaryObject> copy;
        Tracer::Span span(&tracer_, CloneSpan(object->type()));
        copy = object->Clone();
      }
    }
    // Merges as group/join/distinct do: rows of one family into the first.
    std::map<std::string, rel::RowId> first_of_family;
    for (rel::RowId row = 0; row < species_.size(); ++row) {
      auto [it, inserted] = first_of_family.emplace(species_[row].family, row);
      if (inserted) continue;
      const auto* into = engine->summaries()->RowObjects(table_id, it->second);
      const auto* from = engine->summaries()->RowObjects(table_id, row);
      if (into == nullptr || from == nullptr) continue;
      for (const auto& target : *into) {
        for (const auto& source : *from) {
          if (source->instance_name() != target->instance_name()) continue;
          std::unique_ptr<core::SummaryObject> merged = target->Clone();
          Tracer::Span span(&tracer_, MergeSpan(target->type()));
          ops_.Record("probe", merged->MergeWith(*source), &verdict_);
        }
      }
    }
  }
  for (core::SummaryTypeKind type : kTypes) {
    const std::string suffix = TypeName(type);
    layers->Set("core.add_us." + suffix, median_of(AddSpan(type)), "us");
    layers->Set("core.clone_us." + suffix, median_of(CloneSpan(type)), "us");
    layers->Set("core.merge_us." + suffix, median_of(MergeSpan(type)), "us");
  }

  // --- core: result snapshots of a full-table summary scan.
  {
    core::ExecuteOptions options;
    options.retain = false;
    auto scan = engine->MakeScan("birds", "b", true);
    auto result = scan.ok() ? engine->Execute(std::move(scan).value(), std::move(options))
                            : insightnotes::Result<core::QueryResult>(scan.status());
    ops_.Record("probe", result.status(), &verdict_);
    size_t bytes = 0;
    for (size_t i = 0; result.ok() && i < kRepeats; ++i) {
      insightnotes::Result<core::ResultSnapshot> snapshot = [&] {
        Tracer::Span span(&tracer_, "core.ResultSnapshot.Capture");
        return core::ResultSnapshot::Capture(result->schema, result->rows);
      }();
      ops_.Record("probe", snapshot.status(), &verdict_);
      if (!snapshot.ok()) continue;
      std::string serialized;
      Tracer::Span span(&tracer_, "core.ResultSnapshot.Serialize");
      snapshot->Serialize(&serialized);
      bytes = snapshot->SizeBytes();
    }
    layers->Set("core.snapshot_capture_ms", median_of("core.ResultSnapshot.Capture") / 1e3, "ms");
    layers->Set("core.snapshot_serialize_ms", median_of("core.ResultSnapshot.Serialize") / 1e3,
                "ms");
    layers->Set("core.snapshot_bytes", static_cast<double>(bytes), "B");
  }

  // --- core: epoch pins.
  for (size_t i = 0; i < kProbeCalls; ++i) {
    Tracer::Span span(&tracer_, "core.Engine.PinSnapshot");
    ops_.Record("probe", engine->PinSnapshot().status(), &verdict_);
  }
  layers->Set("core.pin_snapshot_us", median_of("core.Engine.PinSnapshot"), "us");

  // --- core: raw-annotation propagation against the summary plan, same rows.
  if (table.ok()) {
    core::RawPropagationEngine raw(engine->annotations());
    const size_t weight = 5;  // Column position of `weight` in BirdTableSchema.
    auto predicate = [&] {
      return rel::MakeCompare(rel::CompareOp::kGt, rel::MakeColumn(weight, "b.weight"),
                              rel::MakeLiteral(rel::Value(1.0)));
    };
    const std::vector<std::string> carry = {"b.id", "b.name", "b.sci_name", "b.family",
                                            "b.region", "b.weight", "b.population"};
    const std::vector<std::string> trim = {"b.id", "b.name", "b.weight"};
    for (const auto& [name, columns, kept] :
         {std::tuple{"carry", carry, std::vector<size_t>{0, 1, 2, 3, 4, 5, 6}},
          std::tuple{"trim", trim, std::vector<size_t>{0, 1, 5}}}) {
      Samples raw_ms, summary_ms;
      for (size_t i = 0; i < kRepeats; ++i) {
        int64_t start = NowNs();
        {
          Tracer::Span span(&tracer_, "core.RawPropagationEngine.Query");
          auto scanned = raw.Scan(**table);
          auto filtered = scanned.ok() ? raw.Filter(std::move(scanned).value(), *predicate())
                                       : insightnotes::Result<std::vector<core::RawTuple>>(
                                             scanned.status());
          ops_.Record("probe", filtered.status(), &verdict_);
          if (filtered.ok()) (void)raw.Project(*filtered, kept);
        }
        raw_ms.Add(static_cast<double>(NowNs() - start) / 1e6);
        start = NowNs();
        {
          Tracer::Span span(&tracer_, "exec.SummaryPlan.Query");
          auto scan = engine->MakeScan("birds", "b", true);
          ops_.Record("probe", scan.status(), &verdict_);
          if (!scan.ok()) continue;
          auto filter = std::make_unique<insightnotes::exec::FilterOperator>(
              std::move(scan).value(), predicate());
          auto plan = insightnotes::exec::ProjectOperator::FromColumns(std::move(filter), columns);
          ops_.Record("probe", plan.status(), &verdict_);
          if (!plan.ok()) continue;
          core::ExecuteOptions options;
          options.retain = false;
          ops_.Record("probe", engine->Execute(std::move(plan).value(), std::move(options)).status(),
                      &verdict_);
        }
        summary_ms.Add(static_cast<double>(NowNs() - start) / 1e6);
      }
      layers->Set(std::string("core.raw_over_summary.") + name,
                  raw_ms.Median() / std::max(1e-9, summary_ms.Median()), "ratio");
    }
  }

  // --- exec: per-operator self time from one EXPLAIN ANALYZE per shape.
  auto session = NewSession();
  std::map<std::string, double> self_ms;
  for (size_t shape = 0; shape < kNumShapes; ++shape) {
    for (const MixStatement& stmt : mix_) {
      if (stmt.shape != shape) continue;
      sql::ExecutionOutput out;
      if (Execute(session.get(), "EXPLAIN ANALYZE " + stmt.sql, "probe", &out)) {
        AddSelfTimes(out.message, &self_ms);
      }
      break;
    }
  }
  for (const char* family :
       {"scan", "filter", "project", "join", "aggregate", "distinct", "sort"}) {
    layers->Set(std::string("exec.") + family + ".self_ms", self_ms[family], "ms");
  }

  // --- sql: parsing; rel: the id index's B+-tree.
  for (size_t i = 0; i < kProbeCalls; ++i) {
    const std::string text = i < mix_.size() ? mix_[i].sql
                                             : "SELECT b.id, b.name FROM birds b WHERE b.id = " +
                                                   std::to_string(lookup_keys_[i % lookup_keys_.size()]);
    Tracer::Span span(&tracer_, "sql.Parse");
    ops_.Record("probe", sql::Parse(text).status(), &verdict_);
  }
  layers->Set("sql.parse_us", median_of("sql.Parse"), "us");
  const rel::TableIndex* index = table.ok() ? (*table)->IndexOn(0) : nullptr;
  if (index == nullptr || index->tree() == nullptr) {
    verdict_.Fail("no persistent index on birds(id)");
  } else {
    std::vector<rel::RowId> rows;
    for (size_t i = 0; i < kProbeCalls; ++i) {
      rows.clear();
      const rel::Value key(static_cast<int64_t>(lookup_keys_[i % lookup_keys_.size()]));
      Tracer::Span span(&tracer_, "rel.BTree.LookupInto");
      ops_.Record("probe", index->tree()->LookupInto(key, &rows), &verdict_);
    }
  }
  layers->Set("rel.btree_lookup_us", median_of("rel.BTree.LookupInto"), "us");
}

void BenchRun::LayerCounters(MetricSet* layers) {
  layers->Set("host.reference_ms", reference_ms_.Median(), "ms");
  const double written = static_cast<double>(
      std::max<size_t>(1, single_ops_.size() + batch_ops_.size()));
  layers->Set("storage.wal_records_per_ann", static_cast<double>(wal_records_) / written,
              "ratio");
  layers->Set("storage.wal_bytes_per_ann", static_cast<double>(wal_bytes_) / written, "B");
  layers->Set("storage.page_writes_per_ann", static_cast<double>(write_page_writes_) / written,
              "ratio");
  layers->Set("storage.compactions", static_cast<double>(compaction_.compactions), "count");
  layers->Set("storage.compaction_records_dropped",
              static_cast<double>(compaction_.records_dropped), "count");
  const uint64_t fetches = read_pool_hits_ + read_pool_misses_;
  layers->Set("storage.pool_hit_ratio",
              fetches > 0 ? static_cast<double>(read_pool_hits_) / fetches : 1.0, "ratio");
  layers->Set("storage.page_reads_per_stmt",
              static_cast<double>(read_page_reads_) /
                  static_cast<double>(std::max<uint64_t>(1, read_statements_)),
              "ratio");

  const uint64_t lookups = cache_stats_.hits + cache_stats_.misses;
  layers->Set("core.cache_hit_ratio",
              lookups > 0 ? static_cast<double>(cache_stats_.hits) / lookups : 0.0, "ratio");
  layers->Set("core.cache_evictions", static_cast<double>(cache_stats_.evictions), "count");
  layers->Set("core.cache_rejected", static_cast<double>(cache_stats_.rejected), "count");

  layers->Set("core.reopen_init_s", tracer_.DurationsUs("core.Engine.Init").Median() / 1e6, "s");
  layers->Set("core.reopen_resetup_s",
              tracer_.DurationsUs("workload.WorkloadBuilder.BuildBase").Median() / 1e6, "s");
  layers->Set("core.records_replayed", static_cast<double>(recovery_.wal_records_replayed),
              "count");
  layers->Set("core.records_since_checkpoint",
              static_cast<double>(recovery_.records_since_checkpoint), "count");
  layers->Set("core.replay_chains", static_cast<double>(recovery_.replay_chains), "count");

  for (size_t shape = 0; shape < kNumShapes; ++shape) {
    layers->Set(std::string("exec.") + kShapeNames[shape] + "_ms",
                timings_[1].shape_ms[shape].Median(), "ms");
  }
}

}  // namespace perfbench
