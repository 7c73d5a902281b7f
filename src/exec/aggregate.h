// Group-by / aggregation with summary union: all tuples collapsing into a
// group contribute their summaries to the group's merged summary objects
// (shared annotations counted once). Attachment metadata degrades to
// whole-row coverage because the output schema no longer exposes the
// original columns.
//
// Two plan shapes share the same per-tuple fold (and therefore produce
// byte-identical groups):
//
//   * AggregateOperator — the serial shape: one hash table over the whole
//     input stream.
//   * PartialAggregateOperator (one per worker pipeline, below the gather)
//     + AggregateMergeOperator (above it) — the parallel shape: each
//     worker folds its morsels into per-morsel partial group tables and
//     publishes them to a shared PartialAggState; the merge operator folds
//     the partials in ascending morsel order, which re-associates the
//     serial left-fold (summary merges, attachment unions, MIN/MAX picks)
//     without reordering it. Float SUM/AVG terms are recorded per tuple
//     and replayed in morsel order at merge time, so even the
//     non-associative double addition reproduces the serial bit pattern.

#ifndef INSIGHTNOTES_EXEC_AGGREGATE_H_
#define INSIGHTNOTES_EXEC_AGGREGATE_H_

#include <memory>
#include <mutex>
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
  double sum = 0.0;  // Running float sum (serial fold only).
  bool sum_is_int = true;
  int64_t isum = 0;
  rel::Value min;
  rel::Value max;
  // Partial fold only: every SUM/AVG term in input order. The merge stage
  // concatenates them in morsel order and replays them into `sum`, so the
  // non-associative double addition happens in exactly the serial order.
  std::vector<double> terms;
};

/// Folds one input tuple into `states` (parallel to `items`). With
/// `record_terms`, SUM/AVG terms are appended to AggState::terms for the
/// deferred morsel-order replay instead of added to `sum` directly.
Status AccumulateAggregates(const std::vector<AggregateItem>& items,
                            const rel::Tuple& tuple, std::vector<AggState>* states,
                            bool record_terms);

/// Folds `other` (covering strictly later input tuples) into `into`.
/// Counts add, recorded terms concatenate, and MIN/MAX keep the earlier
/// value on ties — exactly what the serial per-tuple fold would do.
Status MergeAggStates(AggState* into, AggState&& other);

/// Replays the recorded SUM/AVG terms into `sum` (after all merges).
void FoldAggTerms(AggState* state);

/// One group of either aggregation shape: its key, merged summaries and
/// one accumulator per aggregate item.
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

/// Output schema shared by both aggregation shapes: one column per group
/// expression (typed via Expression::InferType against `input` when
/// `group_columns` does not provide a type), then one per aggregate
/// (COUNT -> BIGINT, AVG -> DOUBLE, SUM/MIN/MAX typed from the argument).
rel::Schema MakeAggregateSchema(const rel::Schema& input,
                                const std::vector<rel::ExprPtr>& group_exprs,
                                const std::vector<rel::Column>& group_columns,
                                const std::vector<AggregateItem>& aggregates);

/// "<prefix>(group exprs | FNs)" — the shared operator-name format.
std::string FormatAggregateName(std::string_view prefix,
                                const std::vector<rel::ExprPtr>& group_exprs,
                                const std::vector<AggregateItem>& aggregates);

class AggregateOperator final : public Operator {
 public:
  /// Output schema: one column per group expression (described by
  /// `group_columns`, parallel to `group_exprs`), then one per aggregate.
  /// With no group expressions, a single global group is produced (even
  /// over empty input for COUNT).
  AggregateOperator(std::unique_ptr<Operator> child,
                    std::vector<rel::ExprPtr> group_exprs,
                    std::vector<rel::Column> group_columns,
                    std::vector<AggregateItem> aggregates);

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
  rel::Schema schema_;

  std::vector<AggregateGroup> groups_;  // Deterministic: first-seen order.
  size_t cursor_ = 0;
};

/// Shared sink of the parallel aggregation shape: per-morsel partial group
/// tables, published by the PartialAggregateOperators as workers drain
/// their pipelines and folded in ascending morsel order by
/// AggregateMergeOperator.
class PartialAggState final : public SharedPlanState {
 public:
  struct MorselPartial {
    uint64_t morsel = 0;
    std::vector<AggregateGroup> groups;  // First-seen order within the morsel.
  };

  Status Reset() override;
  void Publish(MorselPartial&& partial);
  std::vector<MorselPartial> Take();

 private:
  std::mutex mutex_;
  std::vector<MorselPartial> partials_;
};

/// Per-worker pre-aggregation: drains its child pipeline and folds each
/// morsel batch into a local group table (the same per-tuple fold as the
/// serial operator), publishing one MorselPartial per morsel to the shared
/// sink. Emits no batches itself — the merged groups surface above the
/// gather. OutputSchema passes the child schema through (the gather never
/// sees group rows).
class PartialAggregateOperator final : public Operator {
 public:
  PartialAggregateOperator(std::unique_ptr<Operator> child,
                           std::vector<rel::ExprPtr> group_exprs,
                           std::vector<AggregateItem> aggregates,
                           std::shared_ptr<PartialAggState> sink);

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
  std::shared_ptr<PartialAggState> sink_;
};

/// Final merge above the gather: opening the child runs the parallel
/// section to exhaustion (workers publish their partials), then the
/// per-morsel partial tables are folded in ascending morsel order into the
/// final group table and finalized exactly like the serial operator.
class AggregateMergeOperator final : public Operator {
 public:
  AggregateMergeOperator(std::unique_ptr<Operator> child,
                         std::vector<rel::ExprPtr> group_exprs,
                         std::vector<rel::Column> group_columns,
                         std::vector<AggregateItem> aggregates,
                         std::shared_ptr<PartialAggState> source);

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
  std::shared_ptr<PartialAggState> source_;
  rel::Schema schema_;

  std::vector<AggregateGroup> groups_;  // First-seen order.
  size_t cursor_ = 0;
};

}  // namespace insightnotes::exec

#endif  // INSIGHTNOTES_EXEC_AGGREGATE_H_
