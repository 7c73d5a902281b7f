#include "exec/projection.h"

#include <utility>

namespace insightnotes::exec {

ProjectOperator::ProjectOperator(std::unique_ptr<Operator> child,
                                 std::vector<ProjectionItem> items,
                                 bool trim_annotations)
    : child_(std::move(child)),
      items_(std::move(items)),
      key_(std::make_shared<core::TrimKey>()),
      trim_annotations_(trim_annotations) {
  const size_t in_columns = child_->OutputSchema().NumColumns();
  std::vector<std::vector<size_t>> refs(items_.size());
  identity_ = items_.size() == in_columns;
  for (size_t item = 0; item < items_.size(); ++item) {
    items_[item].expr->CollectColumnRefs(&refs[item]);
    identity_ = identity_ && refs[item] == std::vector<size_t>{item};
    schema_.AddColumn(
        rel::Column{items_[item].output_name, items_[item].type, items_[item].qualifier});
  }
  key_->map = core::ColumnMap::Of(in_columns, refs);
}

Result<std::unique_ptr<ProjectOperator>> ProjectOperator::FromColumns(
    std::unique_ptr<Operator> child, const std::vector<std::string>& names,
    bool trim_annotations) {
  const rel::Schema& in = child->OutputSchema();
  std::vector<ProjectionItem> items;
  items.reserve(names.size());
  for (const std::string& name : names) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(size_t index, in.IndexOf(name));
    const rel::Column& column = in.ColumnAt(index);
    ProjectionItem item;
    item.expr = rel::MakeColumn(index, column.QualifiedName());
    item.output_name = column.name;
    item.qualifier = column.qualifier;
    item.type = column.type;
    items.push_back(std::move(item));
  }
  return std::make_unique<ProjectOperator>(std::move(child), std::move(items),
                                           trim_annotations);
}

Status ProjectOperator::ProjectTuple(core::AnnotatedTuple* in_ptr,
                                     core::AnnotatedTuple* out) {
  core::AnnotatedTuple& in = *in_ptr;
  // 1. Trim (Theorem 1): annotations attached only to projected-out
  //    columns leave the attachment list here and their ids join the
  //    tuple's pending trim; the summaries are restricted by the tuple's
  //    first Settle(), which comes before any merge. Surviving
  //    attachments are remapped to output positions in a new list. A
  //    projection that keeps every column where it is changes neither,
  //    and its output is still scan output.
  if (!identity_) {
    // Whole-row coverage survives every projection: no work to memoize.
    if (trim_annotations_ && in.memo != nullptr && in.attachments != nullptr &&
        in.attachments->words() > 0) {
      TrimThroughMemo(&in);
    } else {
      const size_t pending = in.trimmed.size();
      in.attachments = core::AttachmentList::Project(in.attachments, key_->map,
                                                     trim_annotations_, &in.trimmed);
      // A fill holds the trim of the projection that armed it, no more.
      if (in.trimmed.size() != pending) in.fill.reset();
      in.memo = nullptr;
    }
  }

  // 2. Project the data values.
  rel::Tuple projected;
  for (const ProjectionItem& item : items_) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(rel::Value v, item.expr->Evaluate(in.tuple));
    projected.Append(std::move(v));
  }

  out->tuple = std::move(projected);
  out->summaries = std::move(in.summaries);
  out->attachments = std::move(in.attachments);
  out->trimmed = std::move(in.trimmed);
  out->memo = in.memo;
  out->fill = std::move(in.fill);
  return Status::OK();
}

void ProjectOperator::TrimThroughMemo(core::AnnotatedTuple* in) {
  core::TrimMemo* memo = std::exchange(in->memo, nullptr);
  if (std::shared_ptr<const core::TrimMemo::Entry> hit = memo->Find(key_->map)) {
    ++metrics_.memo_hits;
    in->attachments = hit->attachments;
    in->summaries = hit->summaries;
    return;
  }
  in->attachments =
      core::AttachmentList::Project(in->attachments, key_->map, /*trim=*/true, &in->trimmed);
  if (!memo->Admits(in->trimmed.size())) return;
  if (in->trimmed.empty()) {
    memo->Publish(key_, 0, in->attachments, in->summaries);  // Only remapped.
    return;
  }
  in->fill = std::make_unique<core::TrimFill>(core::TrimFill{memo, key_, in->attachments});
}

OperatorMetrics ProjectOperator::metrics() const {
  OperatorMetrics metrics = metrics_;
  metrics.memo_fills = key_->fills.load(std::memory_order_relaxed);
  return metrics;
}

Result<bool> ProjectOperator::NextBatchImpl(core::AnnotatedBatch* out) {
  core::AnnotatedBatch in;
  INSIGHTNOTES_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&in));
  if (!more) return false;
  out->tuples.resize(in.tuples.size());
  out->morsel = in.morsel;
  for (size_t i = 0; i < in.tuples.size(); ++i) {
    INSIGHTNOTES_RETURN_IF_ERROR(ProjectTuple(&in.tuples[i], &out->tuples[i]));
    Trace(out->tuples[i]);
  }
  return true;
}

std::string ProjectOperator::Name() const {
  std::string name = "Project(";
  for (size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) name += ", ";
    name += items_[i].expr->ToString();
  }
  name += ")";
  return name;
}

}  // namespace insightnotes::exec
