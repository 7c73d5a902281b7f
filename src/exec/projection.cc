#include "exec/projection.h"

#include <algorithm>

namespace insightnotes::exec {

ProjectOperator::ProjectOperator(std::unique_ptr<Operator> child,
                                 std::vector<ProjectionItem> items,
                                 bool trim_annotations)
    : child_(std::move(child)),
      items_(std::move(items)),
      trim_annotations_(trim_annotations) {
  const rel::Schema& in = child_->OutputSchema();
  kept_positions_.resize(in.NumColumns());
  for (size_t item = 0; item < items_.size(); ++item) {
    std::vector<size_t> refs;
    items_[item].expr->CollectColumnRefs(&refs);
    for (size_t c : refs) {
      if (c < kept_positions_.size()) kept_positions_[c].push_back(item);
    }
    schema_.AddColumn(
        rel::Column{items_[item].output_name, items_[item].type, items_[item].qualifier});
  }
  for (size_t c = 0; c < kept_positions_.size(); ++c) {
    if (!kept_positions_[c].empty()) kept_columns_.push_back(c);
  }
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
                                     core::AnnotatedTuple* out) const {
  core::AnnotatedTuple& in = *in_ptr;
  // 1. Trim: eliminate the effect of annotations attached only to
  //    projected-out columns (before any downstream merge — Theorem 1).
  std::vector<core::AttachmentInfo> surviving;
  surviving.reserve(in.attachments.size());
  for (core::AttachmentInfo& att : in.attachments) {
    bool survives =
        !trim_annotations_ || att.columns.empty() ||
        std::any_of(att.columns.begin(), att.columns.end(), [&](size_t c) {
          return c < kept_positions_.size() && !kept_positions_[c].empty();
        });
    if (!survives) {
      for (auto& summary : in.summaries) {
        if (summary->Contains(att.id)) {
          INSIGHTNOTES_RETURN_IF_ERROR(summary->RemoveAnnotation(att.id));
        }
      }
      continue;
    }
    // 2. Remap covered columns to output positions.
    core::AttachmentInfo remapped;
    remapped.id = att.id;
    for (size_t c : att.columns) {
      if (c < kept_positions_.size()) {
        remapped.columns.insert(remapped.columns.end(), kept_positions_[c].begin(),
                                kept_positions_[c].end());
      }
    }
    std::sort(remapped.columns.begin(), remapped.columns.end());
    remapped.columns.erase(
        std::unique(remapped.columns.begin(), remapped.columns.end()),
        remapped.columns.end());
    surviving.push_back(std::move(remapped));
  }

  // 3. Project the data values.
  rel::Tuple projected;
  for (const ProjectionItem& item : items_) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(rel::Value v, item.expr->Evaluate(in.tuple));
    projected.Append(std::move(v));
  }

  out->tuple = std::move(projected);
  out->summaries = std::move(in.summaries);
  out->attachments = std::move(surviving);
  // Per-table Theorem-1 projections sit below the joins of a reordered
  // plan; carry the order keys through to the RestoreOrder above.
  out->order_ranks = std::move(in.order_ranks);
  return Status::OK();
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
