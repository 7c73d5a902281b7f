// Table: a schema-checked heap of tuples with stable RowIds. RowIds are the
// anchor annotations attach to (annotation store addresses cells as
// (table, row, column set)).

#ifndef INSIGHTNOTES_REL_TABLE_H_
#define INSIGHTNOTES_REL_TABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "rel/btree.h"
#include "rel/schema.h"
#include "rel/stats.h"
#include "rel/tuple.h"
#include "storage/heap_file.h"

namespace insightnotes::rel {

using TableId = uint32_t;

/// One secondary index of a table: a persistent B+-tree attached by the
/// engine (Table::SwapIndex; in-memory engines back it with an in-memory
/// index file). Probes go through the wrapper so a broken tree is never
/// consulted.
///
/// Failure model: a maintenance failure (an I/O error mid-split, say) marks
/// the index *broken* — the row mutation itself still succeeds, IndexOn()
/// hides the index from the optimizer, and the divergence heals on reopen
/// (recovery adopts the last committed tree and the caller's setup replay
/// catches it up).
class TableIndex {
 public:
  explicit TableIndex(std::unique_ptr<BTree> tree) : tree_(std::move(tree)) {}

  TableIndex(TableIndex&&) = default;
  TableIndex& operator=(TableIndex&&) = default;

  /// False after a maintenance failure; broken indexes refuse probes and
  /// IndexOn() hides them.
  bool usable() const { return broken_.ok(); }
  const Status& broken_status() const { return broken_; }
  BTree* tree() { return tree_.get(); }
  const BTree* tree() const { return tree_.get(); }
  std::unique_ptr<BTree> ReleaseTree() { return std::move(tree_); }

  /// Row maintenance (exclusive table latch held by the caller). A failure
  /// marks the index broken instead of failing the row mutation.
  void Insert(const Value& key, RowId row);
  void Remove(const Value& key, RowId row);

  /// Probe paths (shared table latch held by the caller). Failed probes
  /// surface the I/O error; broken indexes are unreachable through
  /// IndexOn().
  Status LookupInto(const Value& key, std::vector<RowId>* out) const;
  Status RangeInto(const Value* lo, const Value* hi,
                   std::vector<RowId>* out) const;

  size_t NumEntries() const { return static_cast<size_t>(tree_->NumEntries()); }

 private:
  std::unique_ptr<BTree> tree_;
  Status broken_;
};

/// Persistent-index state the engine snapshots per index checkpoint.
struct PersistentIndexInfo {
  size_t column = 0;
  BTreeMeta meta;
  bool usable = true;
};

/// Thread-safety: a per-table shared_mutex guards the row directory and the
/// indexes — Insert/Delete/SwapIndex exclusive, Get/IsLive/RowBound
/// shared. Scan is NOT latched (it is a writer-side primitive: the engine
/// runs it under its writer mutex, ANALYZE and single-session fallbacks run
/// it with no concurrent writer); epoch-pinned readers iterate
/// [0, snapshot bound) with per-row latched Get/IsLive instead.
class Table {
 public:
  /// `pool` must outlive the table.
  Table(TableId id, std::string name, Schema schema, storage::BufferPool* pool)
      : id_(id), name_(std::move(name)), schema_(std::move(schema)), heap_(pool) {}

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  TableId id() const { return id_; }
  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Inserts a tuple after checking arity and types (NULL fits any column).
  Result<RowId> Insert(const Tuple& tuple);

  /// Fetches the tuple at `row`.
  Result<Tuple> Get(RowId row) const;

  /// Deletes the tuple at `row` (RowIds are never reused).
  Status Delete(RowId row);

  /// True if `row` identifies a live tuple.
  bool IsLive(RowId row) const;

  /// Calls `fn(row, tuple)` for every live tuple in insertion order;
  /// stops early when `fn` returns false.
  Status Scan(const std::function<bool(RowId, const Tuple&)>& fn) const;

  uint64_t NumRows() const { return num_live_.load(std::memory_order_relaxed); }

  /// One past the highest RowId ever allocated (deleted rows included).
  /// The engine captures this per publish as the epoch's visible-row bound.
  RowId RowBound() const {
    std::shared_lock<std::shared_mutex> lock(latch_);
    return rows_.size();
  }

  /// Shared latch for callers doing multi-step reads (e.g. an index probe
  /// followed by row lookups) that must not interleave with Insert/Delete.
  std::shared_lock<std::shared_mutex> ReadLock() const {
    return std::shared_lock<std::shared_mutex>(latch_);
  }

  /// Replaces the index slot on `column` with a B+-tree built by the
  /// engine (CREATE INDEX, recovery), returning the previous tree (null if
  /// the slot was empty) so the caller can discard its pages;
  /// Insert/Delete maintain the index afterwards. Takes the exclusive
  /// latch.
  std::unique_ptr<BTree> SwapIndex(size_t column, std::unique_ptr<BTree> tree);

  /// Snapshot of every index on this table, for the engine's index
  /// checkpoint record.
  std::vector<PersistentIndexInfo> PersistentIndexes() const;

  /// The usable index on `column`, or null if none was created (or it is
  /// broken). The pointer stays valid for the table's lifetime (indexes are
  /// never dropped). Concurrent readers must hold ReadLock() across the
  /// probe (SwapIndex replaces index contents under the exclusive latch).
  const TableIndex* IndexOn(size_t column) const {
    auto it = indexes_.find(column);
    if (it == indexes_.end() || !it->second.usable()) return nullptr;
    return &it->second;
  }

  /// Immutable optimizer-statistics snapshot (null until ANALYZE ran).
  /// Thread-safe: readers get a consistent shared_ptr while ANALYZE swaps
  /// in a fresh snapshot.
  std::shared_ptr<const TableStats> stats() const {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    return stats_;
  }
  void SetStats(std::shared_ptr<const TableStats> stats) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_ = std::move(stats);
  }

 private:
  Status CheckTuple(const Tuple& tuple) const;

  /// Get without taking the latch (Delete holds it exclusively already).
  Result<Tuple> GetLocked(RowId row) const;

  TableId id_;
  std::string name_;
  Schema schema_;
  storage::HeapFile heap_;
  // Guards rows_ and indexes_. Lock order: table latch → heap latch.
  mutable std::shared_mutex latch_;
  // row id -> heap record; invalid RecordId marks a deleted row.
  std::vector<storage::RecordId> rows_;
  std::atomic<uint64_t> num_live_{0};
  // Secondary indexes by column position. std::map keeps IndexOn pointers
  // stable across SwapIndex calls on other columns.
  std::map<size_t, TableIndex> indexes_;
  mutable std::mutex stats_mutex_;
  std::shared_ptr<const TableStats> stats_;
};

}  // namespace insightnotes::rel

#endif  // INSIGHTNOTES_REL_TABLE_H_
