// AnnotatedTuple: the unit flowing through InsightNotes' extended query
// pipeline — a data tuple plus (a) its summary objects and (b) compact
// attachment metadata (annotation id -> covered columns). The metadata is
// what lets the projection operator trim exactly the annotations whose
// columns were projected out, and lets joins avoid double counting
// annotations shared by both inputs, all without touching the raw
// annotation repository (Section 2.1).
//
// Both halves are shared by pointer from the row's publish on: the
// summaries as one SummaryList, the metadata as one immutable
// AttachmentList (ids ascending, coverage a column bitmask per id). A scan,
// a filter, a join's clone or a dropped tuple costs refcounts; a trim, a
// merge or grouping puts new objects and a new list in place of the old.
//
// Deferred trim (Theorem 1): a projection drops trimmed attachments at
// once but only records their ids in `trimmed`; Settle() restricts the
// summaries by them. Theorem 1 needs the restriction before any merge, not
// at the projection, so a tuple is settled where it survives: at every
// merge (the side being mutated settles; the side read must already be
// settled), at a summary read, in the worker that emits it from a
// parallel section, and at every drain. Tuples a join, a summary filter or
// a top-k heap throw away never pay for the restriction.
//
// Trim memo: a trim of unchanged scan output is a pure function of the
// epoch's row version and the projection's column map, so the row version
// keeps it (TrimMemo). A scan tuple points at its row's memo; a trimming
// projection that finds its map there takes the trimmed list and the
// restricted summaries by pointer and leaves nothing pending, and one that
// misses trims as above and publishes at the tuple's first Settle().

#ifndef INSIGHTNOTES_CORE_ANNOTATED_TUPLE_H_
#define INSIGHTNOTES_CORE_ANNOTATED_TUPLE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "annotation/annotation.h"
#include "common/result.h"
#include "core/summary_object.h"
#include "rel/tuple.h"

namespace insightnotes::ann {
struct Attachment;
}  // namespace insightnotes::ann

namespace insightnotes::core {

class AttachmentList;
/// A tuple's attachment metadata; null means no attachments.
using AttachmentListPtr = std::shared_ptr<const AttachmentList>;

/// A projection's coverage map: per input column, the mask of the output
/// positions it feeds (`out_words` words each), and the mask of the input
/// columns that feed any output.
struct ColumnMap {
  /// Output position i reads the input columns `refs[i]`.
  static ColumnMap Of(size_t in_columns, const std::vector<std::vector<size_t>>& refs);

  bool operator==(const ColumnMap&) const = default;

  size_t out_words = 0;
  std::vector<uint64_t> positions;
  std::vector<uint64_t> kept;
};

/// Ascending, unique annotation ids, each with its coverage as a bitmask
/// over the tuple's *current output schema* positions. Every mask has
/// words() words, the fewest that hold the highest covered column; an
/// all-zero mask is whole-row coverage. Immutable once built.
class AttachmentList {
 public:
  /// The list of `atts` (ascending ids, normalized columns); null if empty.
  static AttachmentListPtr Build(std::span<const ann::Attachment* const> atts);

  /// `a` united with `b`, whose columns shift up by `shift` first (a join
  /// appends the right input's columns): ids merge, masks OR, and a
  /// whole-row side makes the entry whole-row.
  static AttachmentListPtr Union(const AttachmentListPtr& a, const AttachmentListPtr& b,
                                 size_t shift = 0);

  /// The union of every list of `lists` (nulls add nothing), in one k-way
  /// merge into one allocation; equal to folding them with Union. A list
  /// whose ids do not interleave with the others' is copied in one run.
  static AttachmentListPtr UnionAll(std::span<const AttachmentListPtr> lists);

  /// `list` with every entry whole-row.
  static AttachmentListPtr WholeRow(const AttachmentListPtr& list);

  /// `list` remapped through a projection's `map`. Whole-row entries stay;
  /// an entry left with no column joins `trimmed` (kept ascending) when
  /// `trim`, else it degrades to whole-row.
  static AttachmentListPtr Project(const AttachmentListPtr& list, const ColumnMap& map,
                                   bool trim, std::vector<ann::AnnotationId>* trimmed);

  size_t size() const { return size_; }
  size_t words() const { return words_; }
  ann::AnnotationId id(size_t i) const { return data_[i]; }
  const uint64_t* mask(size_t i) const { return data_.data() + size_ + i * words_; }
  bool IsWholeRow(size_t i) const;
  /// Entry `i`'s covered columns, ascending; empty = whole row.
  std::vector<size_t> Columns(size_t i) const;
  /// Charged to every tuple holding the list.
  size_t ApproxBytes() const { return sizeof(*this) + data_.size() * sizeof(uint64_t); }

 private:
  /// A zeroed list for a builder to write, then pass to Finish.
  static std::shared_ptr<AttachmentList> Allocate(size_t size, size_t words);
  /// Keeps the first `size` entries and the fewest words; null if empty.
  static AttachmentListPtr Finish(std::shared_ptr<AttachmentList> list, size_t size);
  uint64_t* mutable_mask(size_t i) { return data_.data() + size_ + i * words_; }

  size_t size_ = 0;
  size_t words_ = 0;
  std::vector<uint64_t> data_;  // size_ ids, then size_ masks of words_ words.
};

/// A trimming projection's key into row memos: its column map, and how
/// many memo entries were published under it (EXPLAIN ANALYZE's
/// memo_fills), counted by whichever thread settles the tuple.
struct TrimKey {
  ColumnMap map;
  mutable std::atomic<uint64_t> fills{0};
};

/// One row version's memo of Theorem-1 trims, owned by the epoch's row
/// state: a write makes a new row state, and so an empty memo. It holds
/// at most kEntries trims, which keeps the memo within about two trimmed
/// copies of the table's summaries. A trim takes a free entry, or replaces
/// the entry whose trim dropped the fewest annotations if it dropped more:
/// such a trim costs more to redo and leaves a smaller entry, and since an
/// entry's count only grows, maps that alternate on a row never thrash it.
/// Thread-safe; entries are immutable, and a replaced one lives on until
/// its last reader drops it.
class TrimMemo {
 public:
  struct Entry {
    std::shared_ptr<const TrimKey> key;  // Of the projection that published it.
    size_t dropped = 0;                  // Annotations the trim removed.
    AttachmentListPtr attachments;
    SummaryList summaries;
  };

  /// The entry holding the trim under `map`, or null.
  std::shared_ptr<const Entry> Find(const ColumnMap& map) const;

  /// True if a trim that drops `dropped` annotations would be published.
  bool Admits(size_t dropped) const;

  /// Publishes `attachments` and `summaries` (by pointer), the trim under
  /// `key->map` that dropped `dropped` annotations, if Admits(dropped) and
  /// no entry holds that map; counts it in `key->fills`.
  void Publish(std::shared_ptr<const TrimKey> key, size_t dropped,
               AttachmentListPtr attachments, const SummaryList& summaries);

  /// Bytes of the entries; objects shared with the row state's own `row`
  /// cost nothing, every other object its whole payload.
  size_t ApproxBytes(const SummaryList& row) const;

 private:
  static constexpr size_t kEntries = 2;

  /// The entry a trim dropping `dropped` would take, or kEntries. Caller
  /// holds mutex_.
  size_t SlotFor(size_t dropped) const;

  mutable std::mutex mutex_;
  std::array<std::shared_ptr<const Entry>, kEntries> entries_;  // Guarded by mutex_.
};

/// A trim a projection computed because it missed `memo`; the tuple's
/// first Settle() publishes it once the summaries are restricted.
struct TrimFill {
  TrimMemo* memo = nullptr;
  std::shared_ptr<const TrimKey> key;
  AttachmentListPtr attachments;  // The projection's output list.
};

/// Move-only; Clone() copies explicitly. A copy shares the summary objects
/// and the attachment list by pointer.
class AnnotatedTuple {
 public:
  AnnotatedTuple() = default;
  explicit AnnotatedTuple(rel::Tuple tuple) : tuple(std::move(tuple)) {}

  AnnotatedTuple(AnnotatedTuple&&) noexcept = default;
  AnnotatedTuple& operator=(AnnotatedTuple&&) noexcept = default;
  AnnotatedTuple(const AnnotatedTuple&) = delete;
  AnnotatedTuple& operator=(const AnnotatedTuple&) = delete;

  AnnotatedTuple Clone() const;

  /// Summary object produced by instance `name`, or nullptr.
  const SummaryObject* FindSummary(std::string_view name) const;

  /// Applies the pending trim: replaces every summary object that
  /// `trimmed` changes by its restricted copy, then clears `trimmed` and
  /// publishes a pending `fill`. Clears
  /// `memo`: a settled tuple is no longer scan output (merges, grouping
  /// and every drain settle first). Otherwise a no-op on a settled tuple.
  Status Settle();

  /// The object of instance `name` (nullptr if none), restricted by the
  /// pending trim as Settle() would; the other objects stay pending. For
  /// summary reads of tuples that may still be thrown away. Restricting an
  /// object twice is a no-op, so a later Settle() stays correct.
  Result<const SummaryObject*> SettleSummary(std::string_view name);

  rel::Tuple tuple;
  SummaryList summaries;  // Shared objects; replaced, never mutated.
  AttachmentListPtr attachments;  // Shared; replaced, never mutated.

  /// Ids a Theorem-1 projection dropped from `attachments` whose effect
  /// `summaries` still hold until Settle(). Ascending, unique; empty on a
  /// settled tuple.
  std::vector<ann::AnnotationId> trimmed;

  /// The trim memo of the epoch row version this tuple is unchanged scan
  /// output of, or null. Valid while the scan's epoch stays pinned. Not
  /// copied by Clone().
  TrimMemo* memo = nullptr;
  /// Set with `trimmed` by a trimming projection that missed the memo.
  /// Not copied by Clone(): only the original publishes.
  std::unique_ptr<TrimFill> fill;
};

/// A run of AnnotatedTuples moved through the batch-at-a-time operator
/// interface. `morsel` tags the scan morsel the batch descends from (or,
/// above a merge, the batch's ordinal in its emission order): the
/// parallel executor's gather stage re-serializes worker output by this
/// index, which is what makes parallel results byte-identical to serial
/// execution (each per-tuple pipeline stage maps one input batch to one
/// output batch, so the tag survives the whole pipeline section).
struct AnnotatedBatch {
  std::vector<AnnotatedTuple> tuples;
  uint64_t morsel = 0;

  void Clear() {
    tuples.clear();
    morsel = 0;
  }
};

/// Join-merge (Figure 2 step 3): appends `right`'s values to `left`,
/// merges counterpart summary objects (matched by instance) into copies
/// without double counting shared annotations, shares the others, and
/// unions attachment lists (AttachmentList::Union) with `right`'s column
/// positions shifted by `left`'s original width. `left` is settled, then modified in
/// place; `right` must be settled (Internal otherwise).
Status MergeAnnotatedTuples(AnnotatedTuple* left, const AnnotatedTuple& right);

/// Internal when `tuple` still carries a pending trim: a merge may only
/// read settled summaries (Theorem 1).
Status CheckSettled(const AnnotatedTuple& tuple);

/// Coarse byte estimates for the per-query memory budget (see
/// exec/query_context.h). Summary objects are polymorphic, so each is
/// costed at a flat per-object figure rather than walked; the estimate
/// only needs to scale with materialized state, not be exact.
size_t ApproxBytes(const rel::Tuple& tuple);
size_t ApproxBytes(const AnnotatedTuple& tuple);
size_t ApproxBytes(const AnnotatedBatch& batch);

}  // namespace insightnotes::core

#endif  // INSIGHTNOTES_CORE_ANNOTATED_TUPLE_H_
