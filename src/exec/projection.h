// Projection — the semantically richest summary operator (Figure 2 step 1,
// Theorems 1 & 2 of the full paper). Besides projecting the data columns it
// eliminates the effect of every annotation attached exclusively to
// projected-out columns. Theorem 1 only needs that elimination before any
// merge, so the projection drops the annotations from the attachment list
// at once and records their ids (ascending) as the tuple's pending trim;
// AnnotatedTuple::Settle() then has each summary object restrict itself
// in one pass (classifier counts decremented, snippets of dropped
// documents deleted, cluster members removed with one re-election per
// touched group) — only for tuples that reach a merge, a summary read or
// the result. The planner places projections *before* merge operators so
// equivalent plans propagate identical summaries.
//
// A trimming projection over unchanged scan output reads and fills the
// row version's trim memo (core::TrimMemo): a hit takes the trimmed list
// and the restricted summaries by pointer and leaves no trim pending; a
// miss trims as above and the tuple's first Settle() publishes the result.
// EXPLAIN ANALYZE shows both as memo_hits and memo_fills.

#ifndef INSIGHTNOTES_EXEC_PROJECTION_H_
#define INSIGHTNOTES_EXEC_PROJECTION_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "rel/expression.h"

namespace insightnotes::exec {

struct ProjectionItem {
  rel::ExprPtr expr;        // Evaluated against the child tuple.
  std::string output_name;  // Bare output column name.
  std::string qualifier;    // Output qualifier (may be empty).
  rel::ValueType type = rel::ValueType::kNull;  // Best-effort static type.
};

class ProjectOperator final : public Operator {
 public:
  /// `trim_annotations` selects between the two projection roles:
  ///  * true — the Theorem-1 normalization projection: annotations attached
  ///    only to dropped columns are *eliminated* from the summaries (by the
  ///    tuple's next Settle()). The planner places these below every merge
  ///    operator.
  ///  * false — a plumbing projection (e.g. Figure 2 step 4, dropping the
  ///    join column s.x after the join): summaries propagate unchanged;
  ///    coverage of fully-dropped columns degrades to whole-row.
  ProjectOperator(std::unique_ptr<Operator> child, std::vector<ProjectionItem> items,
                  bool trim_annotations = true);

  /// Convenience: project child columns by (qualified) name.
  static Result<std::unique_ptr<ProjectOperator>> FromColumns(
      std::unique_ptr<Operator> child, const std::vector<std::string>& names,
      bool trim_annotations = true);

  const rel::Schema& OutputSchema() const override { return schema_; }
  std::string Name() const override;
  std::vector<Operator*> Children() override { return {child_.get()}; }
  size_t EstimatedRows() const override { return child_->EstimatedRows(); }
  /// With memo_fills: entries published by its tuples' settles so far.
  OperatorMetrics metrics() const override;

 protected:
  Status OpenImpl() override { return child_->Open(); }
  /// One child batch in, one (same-morsel) batch out.
  Result<bool> NextBatchImpl(core::AnnotatedBatch* out) override;

 private:
  /// Trims/remaps annotations and projects the data values of one tuple.
  Status ProjectTuple(core::AnnotatedTuple* in, core::AnnotatedTuple* out);
  /// The trim of scan output `in` through its row's memo.
  void TrimThroughMemo(core::AnnotatedTuple* in);

  std::unique_ptr<Operator> child_;
  std::vector<ProjectionItem> items_;
  rel::Schema schema_;
  // Child column -> output positions; the memo key of a trimming projection.
  std::shared_ptr<core::TrimKey> key_;
  bool trim_annotations_;
  bool identity_;  // Output column i is child column i, for every i.
};

}  // namespace insightnotes::exec

#endif  // INSIGHTNOTES_EXEC_PROJECTION_H_
