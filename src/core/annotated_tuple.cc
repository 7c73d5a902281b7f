#include "core/annotated_tuple.h"

#include "common/coverage.h"

namespace insightnotes::core {

namespace {

SummaryObject* FindIn(const std::vector<std::unique_ptr<SummaryObject>>& list,
                      std::string_view name) {
  for (const auto& s : list) {
    if (s->instance_name() == name) return s.get();
  }
  return nullptr;
}

}  // namespace

Status MergeSummaryLists(std::vector<std::unique_ptr<SummaryObject>>* into,
                         const std::vector<std::unique_ptr<SummaryObject>>& incoming) {
  for (const auto& summary : incoming) {
    SummaryObject* counterpart = FindIn(*into, summary->instance_name());
    if (counterpart != nullptr) {
      // Counterpart objects combine (ClassBird2 / SimCluster in Figure 2).
      INSIGHTNOTES_RETURN_IF_ERROR(counterpart->MergeWith(*summary));
    } else {
      // Objects with no counterpart propagate unchanged (ClassBird1,
      // TextSummary1 in Figure 2).
      into->push_back(summary->Clone());
    }
  }
  return Status::OK();
}

AnnotatedTuple AnnotatedTuple::Clone() const {
  AnnotatedTuple copy(tuple);
  copy.summaries.reserve(summaries.size());
  for (const auto& s : summaries) copy.summaries.push_back(s->Clone());
  copy.attachments = attachments;
  copy.trimmed = trimmed;
  return copy;
}

Status AnnotatedTuple::Settle() {
  if (trimmed.empty()) return Status::OK();
  for (auto& s : summaries) INSIGHTNOTES_RETURN_IF_ERROR(s->Restrict(trimmed));
  trimmed.clear();
  return Status::OK();
}

Result<SummaryObject*> AnnotatedTuple::SettleSummary(std::string_view name) {
  SummaryObject* object = FindSummary(name);
  if (object != nullptr && !trimmed.empty()) {
    INSIGHTNOTES_RETURN_IF_ERROR(object->Restrict(trimmed));
  }
  return object;
}

Status CheckSettled(const AnnotatedTuple& tuple) {
  if (tuple.trimmed.empty()) return Status::OK();
  return Status::Internal("merge read a tuple with " +
                          std::to_string(tuple.trimmed.size()) +
                          " unsettled trimmed annotation(s)");
}

SummaryObject* AnnotatedTuple::FindSummary(std::string_view name) const {
  for (const auto& s : summaries) {
    if (s->instance_name() == name) return s.get();
  }
  return nullptr;
}

Status MergeAnnotatedTuples(AnnotatedTuple* left, const AnnotatedTuple& right) {
  INSIGHTNOTES_RETURN_IF_ERROR(CheckSettled(right));
  INSIGHTNOTES_RETURN_IF_ERROR(left->Settle());
  size_t left_width = left->tuple.NumValues();
  left->tuple = rel::Tuple::Concat(left->tuple, right.tuple);
  INSIGHTNOTES_RETURN_IF_ERROR(MergeSummaryLists(&left->summaries, right.summaries));
  UnionAttachments(&left->attachments, right.attachments, left_width);
  return Status::OK();
}

Status MergeForGrouping(AnnotatedTuple* into, const AnnotatedTuple& other) {
  INSIGHTNOTES_RETURN_IF_ERROR(CheckSettled(other));
  INSIGHTNOTES_RETURN_IF_ERROR(into->Settle());
  INSIGHTNOTES_RETURN_IF_ERROR(MergeSummaryLists(&into->summaries, other.summaries));
  UnionAttachments(&into->attachments, other.attachments);
  return Status::OK();
}

namespace {
// Flat per-summary-object figure: a SummaryObject carries an instance
// name, aggregate state and (for cluster summaries) representative text.
constexpr size_t kSummaryObjectApproxBytes = 192;
}  // namespace

size_t ApproxBytes(const rel::Tuple& tuple) {
  size_t bytes = sizeof(rel::Tuple) + tuple.NumValues() * sizeof(rel::Value);
  for (size_t i = 0; i < tuple.NumValues(); ++i) {
    const rel::Value& v = tuple.ValueAt(i);
    if (v.type() == rel::ValueType::kString) bytes += v.AsString().capacity();
  }
  return bytes;
}

size_t ApproxBytes(const AnnotatedTuple& tuple) {
  size_t bytes = ApproxBytes(tuple.tuple) +
                 tuple.summaries.size() * kSummaryObjectApproxBytes;
  for (const AttachmentInfo& att : tuple.attachments) {
    bytes += sizeof(AttachmentInfo) + att.columns.capacity() * sizeof(size_t);
  }
  bytes += tuple.trimmed.capacity() * sizeof(ann::AnnotationId);
  return bytes;
}

size_t ApproxBytes(const AnnotatedBatch& batch) {
  size_t bytes = sizeof(AnnotatedBatch);
  for (const AnnotatedTuple& tuple : batch.tuples) bytes += ApproxBytes(tuple);
  return bytes;
}

}  // namespace insightnotes::core
