// Hash equi-join with summary merge (Figure 2 step 3): for each matching
// pair, counterpart summary objects of the two inputs are combined without
// double counting shared annotations; objects without a counterpart
// propagate unchanged. A cross product is the same join keyed on one
// literal on both sides: every probe tuple matches every build row, in
// build-insertion order.
//
// The build side lives in a HashJoinBuildState: the input is materialized
// once in input order, then partitioned by hash(key) % P — each partition
// built by one worker, lock-free — and probed partition-wise. Because the
// partition maps store *indexes into the ordered row vector*, appended by
// a single worker scanning in input order, each key's match list is in
// build-insertion order regardless of P: probes produce the same output at
// every worker count. The planner shares one state across the P
// HashJoinProbeOperators of a section (see exec/parallel.h).
//
// Build rows arrive with their Theorem-1 trim pending (see
// core/annotated_tuple.h). A row is settled once, by whichever probe
// worker matches it first, under a per-row once-flag reset with the
// state: rows that never match never pay for the restriction, and a row
// matched by many probe tuples pays once. A row whose trim memo already
// holds the build's trim arrives settled, and its once-call is empty.

#ifndef INSIGHTNOTES_EXEC_HASH_JOIN_H_
#define INSIGHTNOTES_EXEC_HASH_JOIN_H_

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "exec/operator.h"
#include "exec/parallel.h"
#include "rel/expression.h"
#include "rel/value.h"

namespace insightnotes::exec {

/// Materialized, partitioned build side of a hash join. Reset drains the
/// build input (serially — it owns the buffer-pool access), then builds
/// the partitions, one pool job per partition when a pool is given.
/// Find/Row are safe for concurrent readers once Reset returned.
class HashJoinBuildState final : public SharedPlanState {
 public:
  /// `num_partitions` >= 1; `pool` may be null (partitions built inline).
  HashJoinBuildState(std::unique_ptr<Operator> input, rel::ExprPtr key,
                     size_t num_partitions, ThreadPool* pool);

  Status Reset() override;
  /// Forwards the context into the build input subtree and arms this
  /// state's memory reservation (label "HashJoinBuild(<key>)").
  void AttachQueryContext(std::shared_ptr<QueryContext> context) override;
  void Release() override;

  /// Match row indexes for `key` in build-input order; null when none.
  /// NULL keys never match.
  const std::vector<size_t>* Find(const rel::Value& key) const;

  /// Build row `index`, settled on the first call for it (concurrent
  /// callers wait for that one settle). Returns the settle's error, if
  /// any, to every caller.
  Result<const core::AnnotatedTuple*> SettledRow(size_t index);
  const rel::Schema& schema() const { return input_->OutputSchema(); }
  const std::string& key_name() const { return key_name_; }
  size_t num_partitions() const { return num_partitions_; }
  Operator* input() { return input_.get(); }

 private:
  using PartitionMap = std::unordered_map<rel::Value, std::vector<size_t>,
                                          rel::ValueHash, rel::ValueEq>;

  std::unique_ptr<Operator> input_;
  rel::ExprPtr key_;
  std::string key_name_;
  size_t num_partitions_;
  ThreadPool* pool_;

  std::shared_ptr<QueryContext> context_;  // Nullable.
  MemoryReservation build_reservation_;    // Charges rows_/keys_/partitions_.

  std::vector<core::AnnotatedTuple> rows_;  // Build input, input order.
  // Per row: settled once on first match; the settle's outcome is written
  // inside the once-call, so every later caller reads it race-free.
  std::unique_ptr<std::once_flag[]> settled_;
  std::vector<Status> settle_status_;
  std::vector<rel::Value> keys_;            // Key per row (may be NULL).
  std::vector<size_t> hashes_;              // ValueHash per row.
  std::vector<PartitionMap> partitions_;
};

/// Probe stage over a shared build state, one per worker pipeline. Open
/// does NOT reset the state (the GatherOperator resets each shared state
/// exactly once).
class HashJoinProbeOperator final : public Operator {
 public:
  /// `expose_build` lists the build input as a child (exactly one probe
  /// per shared state should, so trace/metrics visit the build once).
  HashJoinProbeOperator(std::unique_ptr<Operator> child,
                        std::shared_ptr<HashJoinBuildState> state,
                        rel::ExprPtr probe_key, bool expose_build);

  const rel::Schema& OutputSchema() const override { return schema_; }
  std::string Name() const override;
  std::vector<Operator*> Children() override;
  size_t EstimatedRows() const override { return child_->EstimatedRows(); }
  /// Also arms the shared build state when this probe exposes the build
  /// (exactly one probe per state does, so the state is attached once even
  /// when the gather does not know about it).
  void SetQueryContext(std::shared_ptr<QueryContext> context) override {
    Operator::SetQueryContext(context);
    if (expose_build_) state_->AttachQueryContext(context_);
  }

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(core::AnnotatedBatch* out) override;

 private:
  std::unique_ptr<Operator> child_;
  std::shared_ptr<HashJoinBuildState> state_;
  rel::ExprPtr probe_key_;
  bool expose_build_;
  rel::Schema schema_;
};

}  // namespace insightnotes::exec

#endif  // INSIGHTNOTES_EXEC_HASH_JOIN_H_
