// Summary-based predicates (Section 2.1: "summary-based processing can be
// plugged in at any stage of the query plan, e.g., filtering, joining, or
// sorting the data tuples according to summary-based predicates").
//
// A SummaryCountSpec denotes SUMMARY_COUNT(instance[, 'label']) — the
// number of annotations a tuple's summary object of `instance` holds,
// optionally restricted to one component (a classifier label, a cluster
// group's label, a snippet title). SummaryFilterOperator, and SortOperator
// for a SUMMARY_COUNT ORDER BY key (exec/sort.h), evaluate it against the
// summary objects riding on each AnnotatedTuple — no raw-annotation
// access.

#ifndef INSIGHTNOTES_EXEC_SUMMARY_FILTER_H_
#define INSIGHTNOTES_EXEC_SUMMARY_FILTER_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "rel/expression.h"

namespace insightnotes::exec {

struct SummaryCountSpec {
  std::string instance;  // Summary instance name.
  std::string label;     // Component label; empty = all annotations.

  /// Evaluates the count against `tuple`'s summaries. A tuple without a
  /// summary object of `instance` counts 0 (e.g. after a join where only
  /// one side carries the instance); an unknown label counts 0.
  Result<int64_t> Evaluate(const core::AnnotatedTuple& tuple) const;

  std::string ToString() const;
};

/// Filters on SUMMARY_COUNT(spec) <op> threshold.
class SummaryFilterOperator final : public Operator {
 public:
  SummaryFilterOperator(std::unique_ptr<Operator> child, SummaryCountSpec spec,
                        rel::CompareOp op, int64_t threshold)
      : child_(std::move(child)), spec_(std::move(spec)), op_(op),
        threshold_(threshold) {}

  const rel::Schema& OutputSchema() const override { return child_->OutputSchema(); }
  std::string Name() const override;
  std::vector<Operator*> Children() override { return {child_.get()}; }
  size_t EstimatedRows() const override { return child_->EstimatedRows(); }

 protected:
  Status OpenImpl() override { return child_->Open(); }
  /// One child batch in, one (same-morsel) batch out; may be empty with a
  /// `true` return.
  Result<bool> NextBatchImpl(core::AnnotatedBatch* out) override;

 private:
  Result<bool> Passes(const core::AnnotatedTuple& tuple) const;

  std::unique_ptr<Operator> child_;
  SummaryCountSpec spec_;
  rel::CompareOp op_;
  int64_t threshold_;
};

}  // namespace insightnotes::exec

#endif  // INSIGHTNOTES_EXEC_SUMMARY_FILTER_H_
