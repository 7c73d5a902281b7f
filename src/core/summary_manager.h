// SummaryManager: instance registry, instance<->relation links (the
// many-to-many of Figure 4), and incremental maintenance of the per-row
// summary objects as annotations stream in (Section 2.3).

#ifndef INSIGHTNOTES_CORE_SUMMARY_MANAGER_H_
#define INSIGHTNOTES_CORE_SUMMARY_MANAGER_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "annotation/annotation_store.h"
#include "common/result.h"
#include "core/annotated_tuple.h"
#include "core/summary_instance.h"
#include "core/summary_object.h"

namespace insightnotes {
class ThreadPool;
}

namespace insightnotes::core {

/// One annotation of an ingest batch, fully materialized (body included) so
/// ingest shards never touch the annotation store's heap file.
struct BatchAnnotation {
  ann::Annotation note;
  ann::CellRegion region;
};

/// The mergeable summary half of a group / distinct-set entry: the summary
/// objects and attachment metadata of every tuple collapsed into the entry
/// so far. The serial operators fold tuples into it one at a time (Seed +
/// Fold); the parallel partial-state operators additionally Combine whole
/// per-morsel states in ascending morsel order, which re-associates the
/// same left-fold and therefore yields byte-identical merged summaries
/// (see DESIGN.md "Parallel aggregation, sort, and distinct").
///
/// Attachment lists are kept as they come in, by pointer and in fold order;
/// Release merges them all at once (AttachmentList::UnionAll), one k-way
/// merge into one allocation: O(N log g) for g lists of N entries in all,
/// and a list whose ids do not interleave with the others' is copied in
/// one run. The union is associative and commutative, so the merged list
/// equals the sequential fold's and does not depend on fold order.
class PartialSummaryState {
 public:
  PartialSummaryState() = default;
  PartialSummaryState(PartialSummaryState&&) noexcept = default;
  PartialSummaryState& operator=(PartialSummaryState&&) noexcept = default;
  PartialSummaryState(const PartialSummaryState&) = delete;
  PartialSummaryState& operator=(const PartialSummaryState&) = delete;

  /// Adopts the first tuple of the entry: settles it, then takes its
  /// attachments and copies of its summaries for folds to merge into;
  /// `first->tuple` is left untouched for the caller. The state therefore
  /// never holds a pending trim, so Combine merges settled summaries only.
  Status Seed(AnnotatedTuple* first);

  /// Folds one further tuple of the entry (a duplicate of the seed under
  /// the grouping key), which must be settled. Byte-identical to the
  /// serial merge path.
  Status Fold(const AnnotatedTuple& dup);

  /// Folds a whole later state (same key, later morsels) into this one.
  Status Combine(PartialSummaryState&& other);

  /// Publishes the merged summaries and attachment list onto `out`.
  void Release(AnnotatedTuple* out);

 private:
  std::vector<std::unique_ptr<SummaryObject>> summaries_;  // Owned accumulator.
  std::vector<AttachmentListPtr> runs_;  // Non-null, in fold order.
};

class SummaryManager {
 public:
  /// `store` must outlive the manager.
  explicit SummaryManager(ann::AnnotationStore* store) : store_(store) {}

  SummaryManager(const SummaryManager&) = delete;
  SummaryManager& operator=(const SummaryManager&) = delete;

  // --- Instance registry (level 2) ---------------------------------------
  /// Registers `instance` and binds it to analyzer() (see
  /// SummaryInstance::BindAnalyzer).
  Status RegisterInstance(std::unique_ptr<SummaryInstance> instance);
  Result<SummaryInstance*> GetInstance(const std::string& name) const;
  std::vector<std::string> InstanceNames() const;

  /// The text analyzer shared by every registered instance.
  txt::Analyzer* analyzer() const { return analyzer_.get(); }

  // --- Links (instance <-> relation, many-to-many) ------------------------
  /// Linking an instance to a table summarizes all existing annotations on
  /// that table immediately and maintains them incrementally afterwards.
  Status Link(const std::string& instance_name, rel::TableId table);
  /// Unlinking drops the instance's objects on that table.
  Status Unlink(const std::string& instance_name, rel::TableId table);
  std::vector<SummaryInstance*> LinkedTo(rel::TableId table) const;
  bool IsLinked(const std::string& instance_name, rel::TableId table) const;
  /// Copy of the full link map (snapshot publication captures it so the
  /// empty-object fallback is evaluated against epoch-time links).
  std::map<rel::TableId, std::vector<SummaryInstance*>> AllLinks() const {
    return links_;
  }

  // --- Incremental maintenance --------------------------------------------
  /// The one maintenance entry point: folds annotations just added to (or
  /// attached at) their regions into the summary objects of those rows for
  /// every linked instance; archived annotations are skipped. Ingestion is
  /// sharded by target row — per-tuple summary state is partitionable by
  /// row id, so shards own disjoint row sets and fold their rows'
  /// annotations in batch order. Two phases: a serial pass in batch order
  /// analyses each body once with the shared analyzer (the only place
  /// ingest grows it, so term ids are the same at every shard count),
  /// commits cluster vectors and creates row objects; then each shard folds
  /// its rows from the per-item analyses. With a `pool` each shard is one
  /// pool task; with none the fold runs inline as one shard. Every worker
  /// count leaves byte-identical summary objects. A summarizer failure
  /// marks the row stale (see below) instead of failing the batch; the
  /// batch is never rolled back, and affected rows can be repaired with
  /// RebuildRow.
  Status ApplyAnnotationBatch(std::span<const BatchAnnotation> batch,
                              ThreadPool* pool = nullptr);

  /// Recomputes one row's objects from scratch, skipping archived
  /// annotations: the non-incremental baseline of experiment E1, how an
  /// archive removes an annotation's effect from its rows, and stale-row
  /// repair.
  Status RebuildRow(rel::TableId table, rel::RowId row);

  /// Rebuilds every annotated row of `table`.
  Status RebuildTable(rel::TableId table);

  // --- Read access (epoch publication) --------------------------------------
  /// The maintained objects themselves (read-only), or nullptr if the row
  /// has none yet.
  const std::vector<std::unique_ptr<SummaryObject>>* RowObjects(
      rel::TableId table, rel::RowId row) const;

  uint64_t NumMaintainedRows() const { return objects_.size(); }

  // --- Graceful degradation -------------------------------------------------
  /// When a summarizer fails on one annotation, the affected row's summary
  /// objects are marked stale and ingest continues; the raw annotation is
  /// already durable, so the summaries can be recomputed later. Stale rows
  /// still answer queries (with the last successfully folded state).

  /// True if the row's summary objects missed at least one annotation.
  bool IsStale(rel::TableId table, rel::RowId row) const;

  /// All currently stale rows, in (table, row) order.
  std::vector<std::pair<rel::TableId, rel::RowId>> StaleRows() const;

  /// Recomputes every stale row from the annotation store and clears its
  /// stale mark. Returns how many rows were repaired; a row whose rebuild
  /// fails again stays stale and the first error is returned.
  Result<size_t> RepairStale();

  /// Deterministic failure injection for tests: invoked before each
  /// summarizer fold with the instance name and the annotation; a non-OK
  /// return is treated as a summarizer failure for that fold.
  using SummarizerFaultHook =
      std::function<Status(const std::string& instance_name, const ann::Annotation& note)>;
  void SetSummarizerFaultHook(SummarizerFaultHook hook) { fault_hook_ = std::move(hook); }

 private:
  using RowKey = std::pair<rel::TableId, rel::RowId>;

  /// Returns the row's object for `instance`, creating it if needed.
  SummaryObject* GetOrCreateObject(const RowKey& key, SummaryInstance* instance);

  /// One summarizer fold: fault hook (if set), then AddAnnotation with
  /// the body analysis `body` (nullptr: the instance analyses it).
  Status ApplyToObject(SummaryObject* object, SummaryInstance* instance,
                       const ann::Annotation& note, const txt::Analysis* body);

  /// ApplyToObject for incremental maintenance (batch folds and Link):
  /// re-attachment to the same row (AlreadyExists) is not an error, and any
  /// other failure degrades to a stale mark on `key` plus a warning — the
  /// annotation itself is durable, so the row can be repaired later.
  void FoldIntoObject(const RowKey& key, SummaryObject* object,
                      SummaryInstance* instance, const ann::Annotation& note,
                      const txt::Analysis* body);

  void MarkStale(const RowKey& key);

  ann::AnnotationStore* store_;
  // Grown only by the serial phases of maintenance (the engine's writer).
  std::shared_ptr<txt::Analyzer> analyzer_ = std::make_shared<txt::Analyzer>();
  std::map<std::string, std::unique_ptr<SummaryInstance>> instances_;
  std::map<rel::TableId, std::vector<SummaryInstance*>> links_;
  // Maintained per-row summary objects, one per linked instance.
  std::map<RowKey, std::vector<std::unique_ptr<SummaryObject>>> objects_;
  // Rows whose objects missed a fold. Guarded by a mutex because batch
  // shards mark rows stale concurrently.
  mutable std::mutex stale_mutex_;
  std::set<RowKey> stale_rows_;
  SummarizerFaultHook fault_hook_;
};

}  // namespace insightnotes::core

#endif  // INSIGHTNOTES_CORE_SUMMARY_MANAGER_H_
