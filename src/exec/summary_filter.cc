#include "exec/summary_filter.h"

namespace insightnotes::exec {

Result<int64_t> SummaryCountSpec::Evaluate(core::AnnotatedTuple* tuple) const {
  INSIGHTNOTES_ASSIGN_OR_RETURN(const core::SummaryObject* object,
                                tuple->SettleSummary(instance));
  if (object == nullptr) return 0;
  if (label.empty()) return static_cast<int64_t>(object->NumAnnotations());
  int64_t count = 0;
  std::string component_label;
  for (size_t c = 0; c < object->NumComponents(); ++c) {
    component_label.clear();
    const size_t ids = object->AppendComponent(c, &component_label).size();
    if (component_label == label) count += static_cast<int64_t>(ids);
  }
  return count;
}

std::string SummaryCountSpec::ToString() const {
  return "SUMMARY_COUNT(" + instance + (label.empty() ? "" : ", '" + label + "'") +
         ")";
}

Result<bool> SummaryFilterOperator::Passes(core::AnnotatedTuple* tuple) const {
  INSIGHTNOTES_ASSIGN_OR_RETURN(int64_t count, spec_.Evaluate(tuple));
  switch (op_) {
    case rel::CompareOp::kEq:
      return count == threshold_;
    case rel::CompareOp::kNe:
      return count != threshold_;
    case rel::CompareOp::kLt:
      return count < threshold_;
    case rel::CompareOp::kLe:
      return count <= threshold_;
    case rel::CompareOp::kGt:
      return count > threshold_;
    case rel::CompareOp::kGe:
      return count >= threshold_;
  }
  return false;
}

Result<bool> SummaryFilterOperator::NextBatchImpl(core::AnnotatedBatch* out) {
  INSIGHTNOTES_ASSIGN_OR_RETURN(bool more, child_->NextBatch(out));
  if (!more) return false;
  size_t kept = 0;
  for (size_t i = 0; i < out->tuples.size(); ++i) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(bool pass, Passes(&out->tuples[i]));
    if (!pass) continue;
    if (kept != i) out->tuples[kept] = std::move(out->tuples[i]);
    Trace(out->tuples[kept]);
    ++kept;
  }
  out->tuples.resize(kept);
  return true;
}

std::string SummaryFilterOperator::Name() const {
  return "SummaryFilter(" + spec_.ToString() + " " +
         std::string(rel::CompareOpToString(op_)) + " " +
         std::to_string(threshold_) + ")";
}

}  // namespace insightnotes::exec
