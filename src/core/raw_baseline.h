// Raw-annotation propagation baseline: models conventional annotation
// management engines (DBNotes, Mondrian, bdbms — the paper's references
// [6, 11, 20]) that ship the *full raw annotations* through the query
// pipeline. Used as the comparator in the query-overhead experiments (E2):
// InsightNotes propagates fixed-size summaries instead.

#ifndef INSIGHTNOTES_CORE_RAW_BASELINE_H_
#define INSIGHTNOTES_CORE_RAW_BASELINE_H_

#include <vector>

#include "annotation/annotation_store.h"
#include "common/result.h"
#include "rel/expression.h"
#include "rel/table.h"

namespace insightnotes::core {

/// A tuple dragging its raw annotations (full bodies), as a conventional
/// engine would propagate them.
struct RawTuple {
  rel::Tuple tuple;
  std::vector<ann::Annotation> annotations;
  std::vector<std::vector<size_t>> coverage;  // Per annotation, covered columns.
};

/// One group of RawPropagationEngine::Group: its key values carrying the
/// union of its rows' annotations, and which input rows it collapsed.
struct RawGroup {
  RawTuple row;                 // Key values; annotations cover the whole row.
  std::vector<size_t> members;  // Input positions of its rows, ascending.
};

class RawPropagationEngine {
 public:
  explicit RawPropagationEngine(const ann::AnnotationStore* store) : store_(store) {}

  /// Scan with raw annotations attached (bodies materialized — the cost
  /// real raw-propagation engines pay). Archived annotations are skipped.
  Result<std::vector<RawTuple>> Scan(const rel::Table& table) const;

  /// Selection: annotations propagate untouched.
  Result<std::vector<RawTuple>> Filter(std::vector<RawTuple> in,
                                       const rel::Expression& predicate) const;

  /// Projection to `kept` child columns: annotations covering only dropped
  /// columns are eliminated; the rest are copied through.
  std::vector<RawTuple> Project(const std::vector<RawTuple>& in,
                                const std::vector<size_t>& kept) const;

  /// Hash equi-join; annotation sets are unioned with by-id deduplication.
  Result<std::vector<RawTuple>> Join(const std::vector<RawTuple>& left,
                                     const std::vector<RawTuple>& right,
                                     const rel::Expression& left_key,
                                     const rel::Expression& right_key) const;

  /// Grouping: rows with equal `keys` values collapse into one group, in
  /// first-seen order. A group's annotations are the union of its rows'
  /// (by id, first-seen order), covering the whole output row: its columns
  /// are new. Aggregate values are the caller's to compute over `members`.
  Result<std::vector<RawGroup>> Group(const std::vector<RawTuple>& in,
                                      const std::vector<rel::ExprPtr>& keys) const;

  /// Duplicate elimination: value-equal tuples collapse into their first
  /// occurrence, carrying the union of the duplicates' annotations (by id,
  /// first-seen order; an annotation on several of them covers the union
  /// of their columns).
  std::vector<RawTuple> Distinct(const std::vector<RawTuple>& in) const;

 private:
  const ann::AnnotationStore* store_;
};

}  // namespace insightnotes::core

#endif  // INSIGHTNOTES_CORE_RAW_BASELINE_H_
