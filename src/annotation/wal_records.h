// Logical WAL records of the annotation layer. Every mutation of the
// raw-annotation repository (Add / Attach / Archive) is encoded as one of
// these and committed to the storage WAL before the store or the in-memory
// maps change; recovery decodes and re-applies them in order, which
// deterministically reproduces annotation ids and heap-file contents.
//
// Encoding: a leading type byte, then fixed-width little-endian integers
// and u32-length-prefixed strings. The storage WAL frames and checksums
// each record, so the codec itself only validates structure.

#ifndef INSIGHTNOTES_ANNOTATION_WAL_RECORDS_H_
#define INSIGHTNOTES_ANNOTATION_WAL_RECORDS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <unordered_set>
#include <variant>
#include <vector>

#include "annotation/annotation.h"
#include "common/result.h"

namespace insightnotes::ann {

/// A new annotation stored and attached to its first region. `expected_id`
/// is the id the store assigned; replay verifies it reproduces the same
/// one (ids are dense and assigned in insertion order).
struct WalAddRecord {
  AnnotationId expected_id = kInvalidAnnotationId;
  Annotation note;  // `id` and `archived` are not encoded.
  CellRegion region;
};

/// An existing annotation attached to an additional region.
struct WalAttachRecord {
  AnnotationId id = kInvalidAnnotationId;
  CellRegion region;
};

/// An annotation archived by curation.
struct WalArchiveRecord {
  AnnotationId id = kInvalidAnnotationId;
};

/// A durability point written by Engine::Checkpoint after the page file was
/// flushed and fsynced: every annotation up to `num_annotations` is on disk.
/// Replay uses it as a consistency check (the store rebuilt from the
/// preceding records must hold exactly that many annotations), and it marks
/// where a future log-compaction pass could cut the log.
struct WalCheckpointRecord {
  uint64_t num_annotations = 0;
};

/// Intent marker appended when CREATE INDEX starts persisting a B+-tree.
/// Replay ignores it (only a committed index checkpoint makes an index
/// real); it documents the index set in the log and feeds liveness.
struct WalIndexCreateRecord {
  std::string table;
  uint64_t column = 0;  // Schema column position.
};

/// One persistent index inside a WalIndexCheckpointRecord: the committed
/// B+-tree root plus the covered-row bound (the committed tree reflects
/// heap rows [0, covered_rows) — rows the caller re-creates after open are
/// skipped by index maintenance up to that bound).
struct WalIndexCheckpointEntry {
  std::string table;
  uint64_t column = 0;
  uint32_t root = 0;
  uint32_t height = 0;
  uint64_t entries = 0;
  uint64_t covered_rows = 0;
};

/// The index commit point, appended by Engine::Checkpoint / CreateIndex
/// after the index file was flushed and fsynced: the roots of every
/// persistent index plus the shared allocator state (page count, stamp
/// counter, free list). Recovery adopts the latest one wholesale — opening
/// an engine never rebuilds an index from a table scan. A record's free
/// list includes the pages the commit shadowed, so the reopened allocator
/// can recycle them immediately.
struct WalIndexCheckpointRecord {
  uint64_t page_count = 0;
  uint64_t next_stamp = 1;
  std::vector<uint32_t> free_pages;
  std::vector<WalIndexCheckpointEntry> indexes;
};

using WalEntry = std::variant<WalAddRecord, WalAttachRecord, WalArchiveRecord,
                              WalCheckpointRecord, WalIndexCreateRecord,
                              WalIndexCheckpointRecord>;

std::string EncodeWalEntry(const WalEntry& entry);

/// Decodes one record payload; malformed bytes yield Corruption.
Result<WalEntry> DecodeWalEntry(std::string_view payload);

/// What one record touches, for recovery's chain partition. Two mutation
/// records must replay in log order iff they share a chain key: the same
/// annotation id (dense-id assignment, the per-annotation region list) or
/// the same (table, row) (a row's attachments replay in insertion order).
/// Records sharing neither commute. Checkpoint markers are cross-chain
/// barriers (`is_marker`): they assert a global count and join no chain.
struct WalChainKey {
  AnnotationId annotation = kInvalidAnnotationId;
  bool has_row = false;
  rel::TableId table = 0;
  rel::RowId row = 0;
  bool is_marker = false;
};

WalChainKey ChainKeyOf(const WalEntry& entry);

/// Tracks which log records are superseded ("dead") as newer mutations
/// land, feeding per-segment liveness accounting (SegmentedWal::MarkDead).
/// Observe() must see every durably appended (or replayed) record in log
/// order. A record is only reported dead when dropping it provably leaves
/// replay's final state unchanged:
///   * a checkpoint marker dies when the next marker is appended (markers
///     are pure assertions about the prefix before them);
///   * a repeated archive of an already-archived annotation is a no-op;
///   * a re-attach of (annotation, row) dies when it adds no columns to
///     the accumulated union, and the *earlier* non-first re-attaches die
///     when a later one covers the whole union by itself (replaying just
///     the first record — which pins the attachment's insertion position —
///     plus the covering one reproduces the same union; a whole-row attach
///     covers everything and absorbs the column set for good).
/// Add records never die (annotations are never deleted; archived ones
/// stay retrievable), and the first record attaching an annotation to a
/// row never dies (it pins the row's attachment order).
class WalLivenessTracker {
 public:
  using DeadFn = std::function<void(uint64_t segment_id, uint32_t record_index)>;

  /// Sink for dead positions; replaceable (recovery collects into a
  /// vector, then the engine rebinds to the reopened log).
  void set_on_dead(DeadFn fn) { on_dead_ = std::move(fn); }

  void Observe(const WalEntry& entry, uint64_t segment_id, uint32_t record_index);

 private:
  struct PairState {
    std::vector<size_t> columns;  // Accumulated union; empty = whole row.
    // Positions of live non-first re-attaches, superseded as the union grows.
    std::vector<std::pair<uint64_t, uint32_t>> supersedable;
  };

  void ReportDead(uint64_t segment_id, uint32_t record_index);

  std::map<std::tuple<AnnotationId, rel::TableId, rel::RowId>, PairState> pairs_;
  std::unordered_set<AnnotationId> archived_;
  bool has_marker_ = false;
  std::pair<uint64_t, uint32_t> marker_pos_{0, 0};
  // Index commit records supersede like checkpoint markers: a new index
  // checkpoint kills the previous one and every create-intent before it
  // (replay only ever reads the latest index checkpoint).
  bool has_index_marker_ = false;
  std::pair<uint64_t, uint32_t> index_marker_pos_{0, 0};
  std::vector<std::pair<uint64_t, uint32_t>> pending_index_creates_;
  DeadFn on_dead_;
};

}  // namespace insightnotes::ann

#endif  // INSIGHTNOTES_ANNOTATION_WAL_RECORDS_H_
