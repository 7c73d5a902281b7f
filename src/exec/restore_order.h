// RestoreOrderOperator: re-establishes the canonical FROM-order output of
// a join-reordered plan. The leaf scans of a reordered plan stamp each
// tuple's order_ranks with their emission positions; joins concatenate
// them (probe side first), so a tuple reaching this operator carries one
// rank per base table in *join contribution* order. The canonical serial
// left-deep FROM-order plan emits tuples exactly in lexicographic order of
// the FROM-order rank vector (hash-join probe matches stream in build-scan
// order, filters preserve order, and each source-row combination appears
// at most once — rank vectors are unique). So sorting the reordered plan's
// output by the ranks permuted back into FROM order reproduces the
// canonical output byte for byte; the ranks are cleared once sorted.
//
// The planner places this operator above all per-tuple filters (residual
// and summary) and below aggregation / sort / distinct / final projection,
// and above the Gather in parallel plans.

#ifndef INSIGHTNOTES_EXEC_RESTORE_ORDER_H_
#define INSIGHTNOTES_EXEC_RESTORE_ORDER_H_

#include <memory>
#include <vector>

#include "exec/operator.h"

namespace insightnotes::exec {

class RestoreOrderOperator final : public Operator {
 public:
  /// `key_order[j]` = position within order_ranks of FROM-table j's rank:
  /// with join order pi (a permutation of FROM slots), key_order[j] is the
  /// index k such that pi[k] == j. Comparison is lexicographic over
  /// ranks[key_order[0]], ranks[key_order[1]], ...
  RestoreOrderOperator(std::unique_ptr<Operator> child, std::vector<size_t> key_order)
      : child_(std::move(child)), key_order_(std::move(key_order)) {}

  const rel::Schema& OutputSchema() const override { return child_->OutputSchema(); }
  std::string Name() const override { return "RestoreOrder"; }
  std::vector<Operator*> Children() override { return {child_.get()}; }
  size_t EstimatedRows() const override { return child_->EstimatedRows(); }

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(core::AnnotatedBatch* out) override {
    return EmitRows(&results_, &cursor_, out);
  }

 private:
  std::unique_ptr<Operator> child_;
  std::vector<size_t> key_order_;
  std::vector<core::AnnotatedTuple> results_;
  size_t cursor_ = 0;
};

}  // namespace insightnotes::exec

#endif  // INSIGHTNOTES_EXEC_RESTORE_ORDER_H_
