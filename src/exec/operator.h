// Pull interface over batches of AnnotatedTuples (after MonetDB/X100,
// Boncz et al., CIDR 2005, and morsel-driven execution, Leis et al.,
// SIGMOD 2014): NextBatch is an operator's only pull method, and the batch
// is the only unit of work. Streaming stages map one child batch to one
// output batch; materializing stages (the sort, distinct and aggregation
// merges) emit up to kDefaultBatchSize rows per call through EmitRows.
// Every operator implements the extended summary-propagation semantics of
// its relational counterpart (Section 2.1).
//
// The public Open/NextBatch/Close entry points are non-virtual wrappers
// (operators override OpenImpl/NextBatchImpl/CloseImpl): the wrapper layer
// polls the query context for cancellation, maintains the per-operator
// OperatorMetrics counters surfaced through EXPLAIN ANALYZE and, when
// metrics are enabled, per-call wall-clock time. Operators optionally
// report each emitted tuple to a trace sink — the demo's "under-the-hood
// execution" feature (Section 3, demonstration feature 3).

#ifndef INSIGHTNOTES_EXEC_OPERATOR_H_
#define INSIGHTNOTES_EXEC_OPERATOR_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/annotated_tuple.h"
#include "exec/query_context.h"
#include "rel/schema.h"

namespace insightnotes::exec {

/// Callback invoked per emitted tuple: (operator name, tuple).
using TraceSink = std::function<void(const std::string&, const core::AnnotatedTuple&)>;

/// Rows a materializing operator emits per NextBatch call.
inline constexpr size_t kDefaultBatchSize = 256;

/// Execution counters maintained by the Open/NextBatch wrappers and
/// the operators themselves. Counters are always on (plain increments);
/// wall-clock time is only accumulated while metrics are enabled (see
/// Operator::SetMetricsEnabled) to keep the hot path timer-free.
struct OperatorMetrics {
  uint64_t rows_out = 0;          // Tuples emitted through NextBatch.
  uint64_t batches_out = 0;       // Batches emitted through NextBatch.
  uint64_t wall_ns = 0;           // Inclusive time in Open/NextBatch.
  uint64_t morsels = 0;           // Morsel scans: morsels processed.
  uint64_t build_partitions = 0;  // Hash joins: partitions in the build.
  uint64_t partial_groups = 0;    // Partial agg/distinct/sort: local states built.
  uint64_t merge_ns = 0;          // Merge operators: time folding partial states.
  uint64_t rows_settled = 0;      // Gather: rows whose pending trim workers applied.
  uint64_t settle_ns = 0;         // Gather: time workers spent settling them.
  uint64_t memo_hits = 0;         // Trimming projection: trims taken from row memos.
  uint64_t memo_fills = 0;        // Trimming projection: trims published to them.
  uint64_t rows_pruned = 0;       // LIMIT pushdown: rows provably outside the
                                  // result, dropped before materialization.
  uint64_t bound_updates = 0;     // Top-k sort: shared k-th-candidate tightenings.
  uint64_t cancel_checks = 0;     // Cooperative interrupt polls at this operator.
  uint64_t mem_peak = 0;          // High-water bytes of materialized state.
};

class Operator {
 public:
  virtual ~Operator() = default;

  /// Prepares the operator (and its children) for iteration. Must be called
  /// before NextBatch; calling it again restarts the iteration.
  Status Open();

  /// Produces the next batch into `out` (cleared first). Returns false when
  /// exhausted. A returned batch may be *empty* (e.g. a fully filtered
  /// morsel): emptiness does not signal exhaustion, only `false` does.
  Result<bool> NextBatch(core::AnnotatedBatch* out);

  /// Releases execution-scoped resources: joins outstanding worker jobs
  /// (gather), returns memory reservations to the budget, closes children.
  /// Idempotent; safe mid-iteration (the cancellation path) and after
  /// exhaustion. The plan can be Open()ed again afterwards.
  Status Close();

  virtual const rel::Schema& OutputSchema() const = 0;
  virtual std::string Name() const = 0;

  /// Direct child operators, probe-side first. Drives trace/metrics
  /// propagation and EXPLAIN's plan rendering.
  virtual std::vector<Operator*> Children() { return {}; }

  /// Best-effort cardinality hint (0 = unknown); consumers use it to
  /// reserve materialization buffers (e.g. the hash-join build vector).
  virtual size_t EstimatedRows() const { return 0; }

  /// Cost-based planner's output-cardinality estimate for this operator.
  /// Stamped by the optimizer when it planned the query; EXPLAIN [ANALYZE]
  /// reads PlannerEstimate(), which falls back to the operator's own
  /// structural hint when the optimizer did not run.
  void SetPlannerEstimate(size_t rows) { planner_est_ = rows; }
  size_t PlannerEstimate() const {
    return planner_est_ != kNoPlannerEstimate ? planner_est_ : EstimatedRows();
  }
  bool HasPlannerEstimate() const { return planner_est_ != kNoPlannerEstimate; }

  /// Installs `sink` on this operator and its children.
  virtual void SetTraceSink(TraceSink sink) {
    for (Operator* child : Children()) child->SetTraceSink(sink);
    trace_ = std::move(sink);
  }

  /// Installs the per-statement lifecycle context (cancellation, deadline,
  /// memory budget) on this subtree. shared_ptr because retained plans
  /// (zoom-in re-execution) outlive the statement that created them.
  /// Operators that own sub-plans outside Children() (shared build states,
  /// worker pipelines) override to forward there too.
  virtual void SetQueryContext(std::shared_ptr<QueryContext> context) {
    for (Operator* child : Children()) child->SetQueryContext(context);
    context_ = std::move(context);
    reservation_.Attach(context_ != nullptr ? &context_->budget() : nullptr,
                        [this] { return Name(); });
  }

  QueryContext* query_context() const { return context_.get(); }

  /// The owning shared_ptr, so Engine::Execute can install a snapshot on a
  /// plan's existing context (or detect the plan has none yet).
  std::shared_ptr<QueryContext> shared_query_context() const { return context_; }

  /// Turns wall-clock accounting on/off for this subtree.
  void SetMetricsEnabled(bool enabled) {
    for (Operator* child : Children()) child->SetMetricsEnabled(enabled);
    metrics_enabled_ = enabled;
  }

  /// A copy of this operator's counters.
  virtual OperatorMetrics metrics() const { return metrics_; }

 protected:
  virtual Status OpenImpl() = 0;
  /// Fills `out` (already cleared) with the next batch; false = exhausted.
  virtual Result<bool> NextBatchImpl(core::AnnotatedBatch* out) = 0;
  /// Operator-specific teardown; the Close() wrapper handles children and
  /// the memory reservation.
  virtual Status CloseImpl() { return Status::OK(); }

  /// Polls the query context for cancellation / deadline expiry. The
  /// Open/NextBatch wrappers call this at every boundary.
  Status CheckInterrupt() {
    if (context_ == nullptr) return Status::OK();
    ++metrics_.cancel_checks;
    return context_->CheckInterrupt();
  }

  /// Records `bytes` of materialized state against the statement budget.
  /// kResourceExhausted (naming this operator) once the budget is blown.
  Status ChargeMemory(size_t bytes) {
    Status status = reservation_.Charge(bytes);
    if (reservation_.peak() > metrics_.mem_peak) {
      metrics_.mem_peak = reservation_.peak();
    }
    return status;
  }

  /// Returns every charged byte to the budget (state was dropped/reset).
  void ReleaseMemory() { reservation_.ReleaseAll(); }

  void Trace(const core::AnnotatedTuple& tuple) const {
    if (trace_) trace_(Name(), tuple);
  }

  /// The emit path of a materializing operator: turns up to
  /// kDefaultBatchSize held rows, from `*cursor` on, into `out` (each
  /// through `finish`, which moves a held row into its output tuple) and
  /// traces each. The batch's ordinal becomes its `morsel` tag, so a
  /// partial operator stacked above ranks and folds the rows in emission
  /// order. Returns false once every row was emitted.
  template <typename Row, typename Finish>
  Result<bool> EmitRows(std::vector<Row>* rows, size_t* cursor,
                        core::AnnotatedBatch* out, Finish finish) {
    if (*cursor >= rows->size()) return false;
    out->morsel = *cursor / kDefaultBatchSize;
    const size_t end = std::min(rows->size(), *cursor + kDefaultBatchSize);
    out->tuples.resize(end - *cursor);
    for (core::AnnotatedTuple& tuple : out->tuples) {
      INSIGHTNOTES_RETURN_IF_ERROR(finish(&(*rows)[(*cursor)++], &tuple));
      Trace(tuple);
    }
    return true;
  }

  /// EmitRows over rows that already are output tuples.
  Result<bool> EmitRows(std::vector<core::AnnotatedTuple>* rows, size_t* cursor,
                        core::AnnotatedBatch* out) {
    return EmitRows(rows, cursor, out,
                    [](core::AnnotatedTuple* row, core::AnnotatedTuple* tuple) {
                      *tuple = std::move(*row);
                      return Status::OK();
                    });
  }

  TraceSink trace_;
  OperatorMetrics metrics_;
  bool metrics_enabled_ = false;
  std::shared_ptr<QueryContext> context_;
  MemoryReservation reservation_;

 private:
  static constexpr size_t kNoPlannerEstimate = static_cast<size_t>(-1);
  size_t planner_est_ = kNoPlannerEstimate;
};

}  // namespace insightnotes::exec

#endif  // INSIGHTNOTES_EXEC_OPERATOR_H_
