// Duplicate elimination: value-equal tuples collapse to one output whose
// summary objects merge the duplicates' summaries (shared annotations
// counted once).
//
// Like aggregation, distinct has a serial shape (DistinctOperator) and a
// parallel shape: per-worker PartialDistinctOperators collapse each morsel
// locally and publish the per-morsel distinct sets to a shared
// PartialDistinctState; DistinctMergeOperator folds them above the gather
// in ascending morsel order, re-associating the serial left-fold so the
// surviving tuples, their first-seen order, and their merged summaries are
// byte-identical to serial execution.

#ifndef INSIGHTNOTES_EXEC_DISTINCT_H_
#define INSIGHTNOTES_EXEC_DISTINCT_H_

#include <memory>
#include <mutex>
#include <vector>

#include "core/summary_manager.h"
#include "exec/operator.h"
#include "exec/parallel.h"

namespace insightnotes::exec {

class DistinctOperator final : public Operator {
 public:
  explicit DistinctOperator(std::unique_ptr<Operator> child)
      : child_(std::move(child)) {}

  const rel::Schema& OutputSchema() const override { return child_->OutputSchema(); }
  std::string Name() const override { return "Distinct"; }
  std::vector<Operator*> Children() override { return {child_.get()}; }
  size_t EstimatedRows() const override { return child_->EstimatedRows(); }

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(core::AnnotatedBatch* out) override {
    return EmitRows(&results_, &cursor_, out);
  }

 private:
  std::unique_ptr<Operator> child_;
  std::vector<core::AnnotatedTuple> results_;  // First-seen order.
  size_t cursor_ = 0;
};

/// Shared sink of the parallel distinct shape: one distinct set per
/// morsel. Unlike aggregation, attachment metadata keeps its per-column
/// coverage (the output schema is the input schema).
class PartialDistinctState final : public SharedPlanState {
 public:
  struct Entry {
    rel::Tuple tuple;
    core::PartialSummaryState summary;
  };
  struct MorselPartial {
    uint64_t morsel = 0;
    std::vector<Entry> entries;  // First-seen order within the morsel.
  };

  Status Reset() override;
  void Publish(MorselPartial&& partial);
  std::vector<MorselPartial> Take();

 private:
  std::mutex mutex_;
  std::vector<MorselPartial> partials_;
};

/// Per-worker duplicate elimination: collapses each morsel batch into a
/// local distinct set and publishes it to the shared sink; emits no
/// batches itself.
class PartialDistinctOperator final : public Operator {
 public:
  PartialDistinctOperator(std::unique_ptr<Operator> child,
                          std::shared_ptr<PartialDistinctState> sink)
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
  std::shared_ptr<PartialDistinctState> sink_;
};

/// Final merge above the gather: folds the per-morsel distinct sets in
/// ascending morsel order into the global first-seen-order result.
class DistinctMergeOperator final : public Operator {
 public:
  DistinctMergeOperator(std::unique_ptr<Operator> child,
                        std::shared_ptr<PartialDistinctState> source)
      : child_(std::move(child)), source_(std::move(source)) {}

  const rel::Schema& OutputSchema() const override { return child_->OutputSchema(); }
  std::string Name() const override { return "DistinctMerge"; }
  std::vector<Operator*> Children() override { return {child_.get()}; }
  size_t EstimatedRows() const override { return child_->EstimatedRows(); }

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(core::AnnotatedBatch* out) override;

 private:
  std::unique_ptr<Operator> child_;
  std::shared_ptr<PartialDistinctState> source_;

  std::vector<PartialDistinctState::Entry> results_;  // First-seen order.
  size_t cursor_ = 0;
};

}  // namespace insightnotes::exec

#endif  // INSIGHTNOTES_EXEC_DISTINCT_H_
