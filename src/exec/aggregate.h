// Group-by / aggregation with summary union: all tuples collapsing into a
// group contribute their summaries to the group's merged summary objects
// (shared annotations counted once). Attachment metadata degrades to
// whole-row coverage because the output schema no longer exposes the
// original columns.
//
// Every plan aggregates in two steps, at any number of workers:
// PartialAggregateOperator (in each worker pipeline, below the gather)
// folds each morsel into a partial group table and publishes it to a
// shared PartialSink; AggregateMergeOperator (above the gather) indexes
// each partial group under its final group and finishes every final group
// as one job on the section's pool (inline with one worker), folding its
// partials in ascending morsel order. That re-associates one left-fold over
// the whole input (summary merges, attachment unions, MIN/MAX picks)
// without reordering it, so groups are byte-identical at every P. Float
// SUM/AVG terms are recorded per tuple and replayed in morsel order at
// merge time, so even the non-associative double addition runs in input
// order.

#ifndef INSIGHTNOTES_EXEC_AGGREGATE_H_
#define INSIGHTNOTES_EXEC_AGGREGATE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/summary_manager.h"
#include "exec/operator.h"
#include "exec/parallel.h"
#include "rel/expression.h"

namespace insightnotes::exec {

enum class AggregateFunction { kCountStar, kCount, kSum, kMin, kMax, kAvg };

std::string_view AggregateFunctionToString(AggregateFunction fn);

struct AggregateItem {
  AggregateFunction fn = AggregateFunction::kCountStar;
  rel::ExprPtr arg;         // Null for COUNT(*).
  std::string output_name;  // e.g. "cnt".
};

/// Per-group accumulator of one aggregate item.
struct AggState {
  int64_t count = 0;
  double sum = 0.0;  // Float sum, replayed from `terms` by FoldAggTerms.
  bool sum_is_int = true;
  int64_t isum = 0;
  rel::Value min;
  rel::Value max;
  // Every SUM/AVG term in input order. The merge concatenates them in
  // morsel order and replays them into `sum`, so the non-associative double
  // addition happens in input order.
  std::vector<double> terms;
};

/// Folds one input tuple into `states` (parallel to `items`). SUM/AVG
/// terms are appended to AggState::terms for the deferred morsel-order
/// replay.
Status AccumulateAggregates(const std::vector<AggregateItem>& items,
                            const rel::Tuple& tuple, std::vector<AggState>* states);

/// Folds `other` (covering strictly later input tuples) into `into`.
/// Counts add, recorded terms concatenate, and MIN/MAX keep the earlier
/// value on ties — exactly what one per-tuple fold over the input would do.
Status MergeAggStates(AggState* into, AggState&& other);

/// Replays the recorded SUM/AVG terms into `sum` (after all merges).
void FoldAggTerms(AggState* state);

/// One group: its key, merged summaries and one accumulator per aggregate
/// item.
struct AggregateGroup {
  rel::Tuple key;  // Group key values.
  core::PartialSummaryState summary;
  std::vector<AggState> states;
};

/// Moves `group`'s output row onto `out`: the key values, then each
/// aggregate's final value, carrying the merged summaries.
Status FinalizeGroup(const std::vector<AggregateItem>& items, AggregateGroup* group,
                     core::AnnotatedTuple* out);

/// Final output value of one aggregate.
Result<rel::Value> FinalizeAggregate(const AggState& state, AggregateFunction fn);

/// Output schema of the aggregation: one column per group
/// expression (typed via Expression::InferType against `input` when
/// `group_columns` does not provide a type), then one per aggregate
/// (COUNT -> BIGINT, AVG -> DOUBLE, SUM/MIN/MAX typed from the argument).
rel::Schema MakeAggregateSchema(const rel::Schema& input,
                                const std::vector<rel::ExprPtr>& group_exprs,
                                const std::vector<rel::Column>& group_columns,
                                const std::vector<AggregateItem>& aggregates);

/// "<prefix>(group exprs | FNs)" — the partial's and the merge's names.
std::string FormatAggregateName(std::string_view prefix,
                                const std::vector<rel::ExprPtr>& group_exprs,
                                const std::vector<AggregateItem>& aggregates);

/// One morsel's partial group table, published by a
/// PartialAggregateOperator and folded in ascending morsel order by
/// AggregateMergeOperator.
struct AggregatePartial {
  uint64_t morsel = 0;
  std::vector<AggregateGroup> groups;  // First-seen order within the morsel.
};

/// Per-worker pre-aggregation: drains its child pipeline and folds each
/// morsel batch into a local group table, publishing one AggregatePartial
/// per morsel to the shared sink. Emits no batches itself — the merged
/// groups surface above the gather. OutputSchema passes the child schema
/// through (the gather never sees group rows).
class PartialAggregateOperator final : public Operator {
 public:
  PartialAggregateOperator(std::unique_ptr<Operator> child,
                           std::vector<rel::ExprPtr> group_exprs,
                           std::vector<AggregateItem> aggregates,
                           std::shared_ptr<PartialSink<AggregatePartial>> sink);

  const rel::Schema& OutputSchema() const override {
    return child_->OutputSchema();
  }
  std::string Name() const override;
  std::vector<Operator*> Children() override { return {child_.get()}; }
  size_t EstimatedRows() const override { return child_->EstimatedRows(); }

 protected:
  Status OpenImpl() override {
    ReleaseMemory();  // Previous execution's partial-table charges.
    return child_->Open();
  }
  Result<bool> NextBatchImpl(core::AnnotatedBatch* out) override;

 private:
  std::unique_ptr<Operator> child_;
  std::vector<rel::ExprPtr> group_exprs_;
  std::vector<AggregateItem> aggregates_;
  std::shared_ptr<PartialSink<AggregatePartial>> sink_;
};

/// Final merge above the gather: Open runs the section to exhaustion
/// (RunSection; the workers publish their partials). A serial pass then
/// sorts the partials by morsel and indexes every partial group under its
/// final group (first-seen order), and FinishGroups finishes the final
/// groups on `pool`: each folds its partials in ascending morsel order,
/// replays its float terms and is finalized. With no group expressions, a
/// single global group is produced (even over empty input for COUNT).
/// NextBatch emits the finished rows.
class AggregateMergeOperator final : public Operator {
 public:
  /// `pool` is the section's pool (null: the groups finish inline).
  AggregateMergeOperator(std::unique_ptr<Operator> child,
                         std::vector<rel::ExprPtr> group_exprs,
                         std::vector<rel::Column> group_columns,
                         std::vector<AggregateItem> aggregates,
                         std::shared_ptr<PartialSink<AggregatePartial>> source,
                         ThreadPool* pool);

  const rel::Schema& OutputSchema() const override { return schema_; }
  std::string Name() const override;
  std::vector<Operator*> Children() override { return {child_.get()}; }

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(core::AnnotatedBatch* out) override;

 private:
  std::unique_ptr<Operator> child_;
  std::vector<rel::ExprPtr> group_exprs_;
  std::vector<AggregateItem> aggregates_;
  std::shared_ptr<PartialSink<AggregatePartial>> source_;
  ThreadPool* pool_;
  rel::Schema schema_;

  std::vector<core::AnnotatedTuple> rows_;  // Finished groups, first-seen order.
  size_t cursor_ = 0;
};

}  // namespace insightnotes::exec

#endif  // INSIGHTNOTES_EXEC_AGGREGATE_H_
