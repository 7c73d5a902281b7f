// AnnotatedTuple: the unit flowing through InsightNotes' extended query
// pipeline — a data tuple plus (a) its summary objects and (b) compact
// attachment metadata (annotation id -> covered column positions). The
// metadata is what lets the projection operator trim exactly the
// annotations whose columns were projected out, and lets joins avoid double
// counting annotations shared by both inputs, all without touching the raw
// annotation repository (Section 2.1). Attachment lists ascend by
// annotation id from the scan (the epoch publishes them sorted) to the
// result, so every merge of two lists is one linear walk under the
// coverage rule of common/coverage.h.
//
// Deferred trim (Theorem 1): a projection drops trimmed attachments at
// once but only records their ids in `trimmed`; Settle() restricts the
// summaries by them. Theorem 1 needs the restriction before any merge, not
// at the projection, so a tuple is settled where it survives: at every
// merge (the side being mutated settles; the side read must already be
// settled), at a summary read, in the worker that emits it from a
// parallel section, and at every drain. Tuples a join, a summary filter or
// a top-k heap throw away never pay for the restriction.

#ifndef INSIGHTNOTES_CORE_ANNOTATED_TUPLE_H_
#define INSIGHTNOTES_CORE_ANNOTATED_TUPLE_H_

#include <memory>
#include <string_view>
#include <vector>

#include "annotation/annotation.h"
#include "common/result.h"
#include "core/summary_object.h"
#include "rel/tuple.h"

namespace insightnotes::core {

/// One annotation's coverage of the tuple, in *current output schema*
/// positions, ascending. Empty `columns` = whole-row: survives every
/// projection.
struct AttachmentInfo {
  ann::AnnotationId id = ann::kInvalidAnnotationId;
  std::vector<size_t> columns;

  friend bool operator==(const AttachmentInfo&, const AttachmentInfo&) = default;
};

/// Move-only; use Clone() for explicit deep copies (summary objects are
/// owned polymorphic state).
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
  SummaryObject* FindSummary(std::string_view name) const;

  /// Applies the pending trim: restricts every summary object by
  /// `trimmed` once, then clears it. A no-op on a settled tuple.
  Status Settle();

  /// The object of instance `name` (nullptr if none), restricted by the
  /// pending trim in place; the other objects stay pending. For summary
  /// reads of tuples that may still be thrown away. Restricting an object
  /// twice is a no-op, so a later Settle() stays correct.
  Result<SummaryObject*> SettleSummary(std::string_view name);

  rel::Tuple tuple;
  std::vector<std::unique_ptr<SummaryObject>> summaries;
  std::vector<AttachmentInfo> attachments;  // Ascending by id, ids unique.

  /// Ids a Theorem-1 projection dropped from `attachments` whose effect
  /// `summaries` still hold until Settle(). Ascending, unique; empty on a
  /// settled tuple.
  std::vector<ann::AnnotationId> trimmed;
};

/// A run of AnnotatedTuples moved through the batch-at-a-time operator
/// interface. `morsel` tags the scan morsel the batch descends from: the
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
/// merges counterpart summary objects (matched by instance) without double
/// counting shared annotations, unions non-counterpart objects, and unions
/// attachment metadata (UnionAttachments) with `right`'s column positions
/// shifted by `left`'s original width. `left` is settled, then modified in
/// place; `right` must be settled (Internal otherwise).
Status MergeAnnotatedTuples(AnnotatedTuple* left, const AnnotatedTuple& right);

/// Grouping/duplicate-elimination merge: like the join merge but the data
/// tuple of `into` is kept as-is and attachment column positions are
/// unshifted (the inputs share one schema). Same settle contract.
Status MergeForGrouping(AnnotatedTuple* into, const AnnotatedTuple& other);

/// Internal when `tuple` still carries a pending trim: a merge may only
/// read settled summaries (Theorem 1).
Status CheckSettled(const AnnotatedTuple& tuple);

/// The summary half of the merges above: counterpart objects (same
/// instance) combine via MergeWith, objects without a counterpart are
/// cloned in. The partial-state operators fold per-morsel summary lists
/// through this, so partial merging stays byte-identical to the serial
/// per-tuple fold.
Status MergeSummaryLists(std::vector<std::unique_ptr<SummaryObject>>* into,
                         const std::vector<std::unique_ptr<SummaryObject>>& incoming);

/// Coarse byte estimates for the per-query memory budget (see
/// exec/query_context.h). Summary objects are polymorphic, so each is
/// costed at a flat per-object figure rather than walked; the estimate
/// only needs to scale with materialized state, not be exact.
size_t ApproxBytes(const rel::Tuple& tuple);
size_t ApproxBytes(const AnnotatedTuple& tuple);
size_t ApproxBytes(const AnnotatedBatch& batch);

}  // namespace insightnotes::core

#endif  // INSIGHTNOTES_CORE_ANNOTATED_TUPLE_H_
