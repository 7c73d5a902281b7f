// Duplicate elimination: value-equal tuples collapse to one output whose
// summary objects merge the duplicates' summaries (shared annotations
// counted once).
//
// Like aggregation, every plan deduplicates in two steps, at any number of
// workers: a PartialDistinctOperator in each worker pipeline collapses each
// morsel locally and publishes its distinct set to a shared PartialSink;
// DistinctMergeOperator indexes the sets above the gather and finishes
// every distinct value as one job on the section's pool (inline with one
// worker), folding its entries in ascending morsel order. That
// re-associates one left-fold over the input, so the surviving tuples,
// their first-seen order, and their merged summaries are byte-identical at
// every P.

#ifndef INSIGHTNOTES_EXEC_DISTINCT_H_
#define INSIGHTNOTES_EXEC_DISTINCT_H_

#include <memory>
#include <vector>

#include "core/summary_manager.h"
#include "exec/operator.h"
#include "exec/parallel.h"

namespace insightnotes::exec {

/// One distinct value and the merged summaries of its duplicates. Unlike
/// aggregation, attachment metadata keeps its per-column coverage (the
/// output schema is the input schema).
struct DistinctEntry {
  rel::Tuple tuple;
  core::PartialSummaryState summary;
};

/// One morsel's distinct set, published by a PartialDistinctOperator and
/// folded in ascending morsel order by DistinctMergeOperator.
struct DistinctPartial {
  uint64_t morsel = 0;
  std::vector<DistinctEntry> entries;  // First-seen order within the morsel.
};

/// Per-worker duplicate elimination: collapses each morsel batch into a
/// local distinct set and publishes it to the shared sink; emits no
/// batches itself.
class PartialDistinctOperator final : public Operator {
 public:
  PartialDistinctOperator(std::unique_ptr<Operator> child,
                          std::shared_ptr<PartialSink<DistinctPartial>> sink)
      : child_(std::move(child)), sink_(std::move(sink)) {}

  const rel::Schema& OutputSchema() const override { return child_->OutputSchema(); }
  std::string Name() const override { return "PartialDistinct"; }
  std::vector<Operator*> Children() override { return {child_.get()}; }
  size_t EstimatedRows() const override { return child_->EstimatedRows(); }

 protected:
  Status OpenImpl() override {
    ReleaseMemory();  // Previous execution's distinct-set charges.
    return child_->Open();
  }
  Result<bool> NextBatchImpl(core::AnnotatedBatch* out) override;

 private:
  std::unique_ptr<Operator> child_;
  std::shared_ptr<PartialSink<DistinctPartial>> sink_;
};

/// Final merge above the gather: runs the section to exhaustion
/// (RunSection), indexes the per-morsel distinct sets under the global
/// first-seen-order values, then FinishGroups folds each value's entries in
/// ascending morsel order on `pool` (null: inline).
class DistinctMergeOperator final : public Operator {
 public:
  DistinctMergeOperator(std::unique_ptr<Operator> child,
                        std::shared_ptr<PartialSink<DistinctPartial>> source,
                        ThreadPool* pool)
      : child_(std::move(child)), source_(std::move(source)), pool_(pool) {}

  const rel::Schema& OutputSchema() const override { return child_->OutputSchema(); }
  std::string Name() const override { return "DistinctMerge"; }
  std::vector<Operator*> Children() override { return {child_.get()}; }
  size_t EstimatedRows() const override { return child_->EstimatedRows(); }

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(core::AnnotatedBatch* out) override;

 private:
  std::unique_ptr<Operator> child_;
  std::shared_ptr<PartialSink<DistinctPartial>> source_;
  ThreadPool* pool_;

  std::vector<core::AnnotatedTuple> rows_;  // Finished values, first-seen order.
  size_t cursor_ = 0;
};

}  // namespace insightnotes::exec

#endif  // INSIGHTNOTES_EXEC_DISTINCT_H_
