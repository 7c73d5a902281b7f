#include "exec/restore_order.h"

#include <algorithm>

namespace insightnotes::exec {

Status RestoreOrderOperator::OpenImpl() {
  INSIGHTNOTES_RETURN_IF_ERROR(child_->Open());
  results_.clear();
  cursor_ = 0;
  ReleaseMemory();
  results_.reserve(child_->EstimatedRows());
  core::AnnotatedBatch batch;
  while (true) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&batch));
    if (!more) break;
    INSIGHTNOTES_RETURN_IF_ERROR(ChargeMemory(core::ApproxBytes(batch)));
    for (core::AnnotatedTuple& in : batch.tuples) {
      if (in.order_ranks.size() < key_order_.size()) {
        return Status::Internal("RestoreOrder: tuple carries " +
                                std::to_string(in.order_ranks.size()) +
                                " rank(s), expected " +
                                std::to_string(key_order_.size()));
      }
      results_.push_back(std::move(in));
    }
  }
  // Rank vectors are unique per tuple, so this comparator is a strict
  // total order: plain sort suffices and the result is deterministic.
  std::sort(results_.begin(), results_.end(),
            [this](const core::AnnotatedTuple& a, const core::AnnotatedTuple& b) {
              for (size_t k : key_order_) {
                if (a.order_ranks[k] != b.order_ranks[k]) {
                  return a.order_ranks[k] < b.order_ranks[k];
                }
              }
              return false;
            });
  // Canonical order restored; drop the keys.
  for (core::AnnotatedTuple& tuple : results_) tuple.order_ranks.clear();
  return Status::OK();
}

}  // namespace insightnotes::exec
