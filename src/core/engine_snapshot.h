// Epoch-based snapshot isolation for concurrent multi-session reads.
//
// The engine maintains a single *published* EngineSnapshot: an immutable,
// internally consistent view of everything a query reads at execution time
// — per-row attachment lists (id-sorted, archived ids dropped), per-row
// summary-object versions, the archived bitmap (zoom-in flags archived
// components with it), and per-table visible-row bounds. Mutators (serialized on the
// engine's writer mutex) install the next snapshot copy-on-write after the
// WAL commit and the in-memory apply both succeeded, so a published epoch
// never exposes a half-applied mutation.
//
// Readers pin the current epoch (Engine::PinSnapshot, a pointer copy under
// the engine's publish mutex) and keep the returned shared_ptr for the
// whole query. It is the only state a query's scans read, and nothing a
// reader touches through it is ever mutated afterwards. Retirement is
// refcounted: when the last reader (and the engine's published slot) drop
// an epoch, the snapshot destructs, frees the shards only it referenced,
// and bumps a retire counter the tests observe.
//
// Copy-on-write is sharded so publication stays O(dirty rows), not O(all
// rows): row states live in kNumShards hash shards, each an immutable map
// behind a shared_ptr. A delta publish copies only the shards containing
// dirty rows; clean shards are shared structurally with the previous epoch.
// A row's summary objects are cloned from the maintained ones at publish
// (O(1): the clone shares their COW payload, and the maintainer's next fold
// takes a private copy via Own()); scans, trim memos and results then share
// the row state's SummaryList by pointer.

#ifndef INSIGHTNOTES_CORE_ENGINE_SNAPSHOT_H_
#define INSIGHTNOTES_CORE_ENGINE_SNAPSHOT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "annotation/annotation_store.h"
#include "common/result.h"
#include "core/annotated_tuple.h"
#include "core/summary_object.h"

namespace insightnotes::core {

class SummaryManager;

class EngineSnapshot {
 public:
  using RowKey = std::pair<rel::TableId, rel::RowId>;

  /// Everything the snapshot knows about one annotated row. `attachments`
  /// is the pipeline's attachment list, built once per publish and shared
  /// by every scanned tuple of the row (null when empty): archived ids
  /// already dropped (an archive dirties every
  /// row the archived id is attached to, so no published list can hold a
  /// stale one). `summaries` are the row's maintained objects (maybe none
  /// after an unlink), or the epoch's shared empty objects of the table
  /// for a row never summarized (see SummariesFor). `memo` holds the row
  /// version's Theorem-1 trims: every epoch sharing this state shares
  /// them, and the write that replaces the state drops them.
  struct RowState {
    AttachmentListPtr attachments;
    SummaryList summaries;
    mutable TrimMemo memo;
  };

  static constexpr size_t kNumShards = 64;

  /// Where a publish reads engine state from. Only the writer thread (under
  /// the writer mutex) constructs snapshots, so plain const access is safe.
  struct Sources {
    const ann::AnnotationStore* store = nullptr;
    const SummaryManager* manager = nullptr;
  };

  ~EngineSnapshot();

  EngineSnapshot(const EngineSnapshot&) = delete;
  EngineSnapshot& operator=(const EngineSnapshot&) = delete;

  // --- Read surface (lock-free; any thread) --------------------------------

  /// Monotone publication counter; epoch 0 is the empty pre-Init state.
  uint64_t epoch() const { return epoch_; }

  /// Annotation ids below this bound existed when the epoch was published.
  uint64_t num_annotations() const { return num_annotations_; }

  /// Rows [0, bound) of `table` existed at publication. 0 for a table the
  /// epoch predates.
  rel::RowId VisibleRows(rel::TableId table) const {
    auto it = bounds_.find(table);
    return it == bounds_.end() ? 0 : it->second;
  }

  /// Archived-at-this-epoch test. Ids at or past the bitmap (annotated
  /// after the last archive) are not archived.
  bool IsArchived(ann::AnnotationId id) const {
    return archived_ != nullptr && id < archived_->size() && (*archived_)[id] != 0;
  }

  /// The row's summary objects as of this epoch, shared: a scan copies the
  /// pointers into the pipeline. Rows never summarized share one empty
  /// object per instance linked to the table at this epoch, so queries
  /// always see a uniform summary shape.
  const SummaryList& SummariesFor(rel::TableId table, rel::RowId row) const;
  /// SummariesFor of a row of `table` whose FindRow gave `state` (nullable).
  const SummaryList& SummariesOf(rel::TableId table, const RowState* state) const;

  /// The row's state, or nullptr if the row had no annotations and no
  /// maintained objects at publication.
  const RowState* FindRow(rel::TableId table, rel::RowId row) const;

  /// Bytes held by the trim memos of this epoch's row states.
  size_t TrimMemoBytes() const;

  // --- Writer-side construction (engine only, under the writer mutex) ------

  /// Builds a snapshot from scratch: every annotated row is re-read from
  /// the store/manager. Used at Init/recovery and after table-wide changes
  /// (Link/Unlink, stale repair).
  static std::shared_ptr<const EngineSnapshot> BuildFull(
      const Sources& src, std::unordered_map<rel::TableId, rel::RowId> bounds,
      uint64_t epoch, std::shared_ptr<std::atomic<uint64_t>> retire_counter);

  /// Builds the next epoch from `prev`, re-reading only `dirty` rows and
  /// sharing every clean shard. `newly_archived` lists ids archived by this
  /// mutation (the bitmap is copied only when non-empty).
  static std::shared_ptr<const EngineSnapshot> BuildDelta(
      const EngineSnapshot& prev, const Sources& src,
      const std::vector<RowKey>& dirty,
      const std::vector<ann::AnnotationId>& newly_archived,
      std::unordered_map<rel::TableId, rel::RowId> bounds, uint64_t epoch,
      std::shared_ptr<std::atomic<uint64_t>> retire_counter);

 private:
  struct RowKeyHash {
    size_t operator()(const RowKey& k) const {
      return std::hash<uint64_t>{}((static_cast<uint64_t>(k.first) << 40) ^ k.second);
    }
  };
  struct Shard {
    std::unordered_map<RowKey, std::shared_ptr<const RowState>, RowKeyHash> rows;
  };

  EngineSnapshot() = default;

  static size_t ShardOf(const RowKey& key) { return RowKeyHash{}(key) % kNumShards; }

  /// Reads one row's current state from the live store/manager, dropping
  /// the attachments this snapshot's bitmap archives (so the bitmap must
  /// be captured first). Returns nullptr when the row has neither
  /// attachments nor maintained objects.
  std::shared_ptr<const RowState> ReadRowState(const Sources& src,
                                               const RowKey& key) const;

  /// Builds the empty objects of the manager's current links and copies the
  /// store's archived flags into this snapshot (full-build path).
  void CaptureGlobals(const Sources& src);

  uint64_t epoch_ = 0;
  uint64_t num_annotations_ = 0;
  std::array<std::shared_ptr<const Shard>, kNumShards> shards_;
  // Null until something is archived (ids beyond the vector are live).
  std::shared_ptr<const std::vector<uint8_t>> archived_;
  // Per table, one empty object per instance linked at publication: the
  // summaries of rows never summarized. Shared across delta epochs
  // (Link/Unlink republish in full).
  std::shared_ptr<const std::map<rel::TableId, SummaryList>> empty_objects_;
  std::unordered_map<rel::TableId, rel::RowId> bounds_;
  std::shared_ptr<std::atomic<uint64_t>> retired_;
};

/// RAII pin on one epoch: holding the pointer keeps every row state, shard
/// and summary version of that epoch alive; dropping the last one retires
/// the epoch. Copyable (a parallel plan's workers share the query's pin).
using ReadSnapshot = std::shared_ptr<const EngineSnapshot>;

}  // namespace insightnotes::core

#endif  // INSIGHTNOTES_CORE_ENGINE_SNAPSHOT_H_
