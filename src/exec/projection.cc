#include "exec/projection.h"

#include <algorithm>

#include "common/coverage.h"

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
  identity_ = items_.size() == kept_positions_.size();
  single_position_ = true;
  ordered_ = true;
  size_t next = 0;  // Lowest position the next kept column may map to.
  for (size_t c = 0; c < kept_positions_.size(); ++c) {
    const std::vector<size_t>& positions = kept_positions_[c];
    identity_ = identity_ && positions.size() == 1 && positions.front() == c;
    if (positions.empty()) continue;
    single_position_ = single_position_ && positions.size() == 1;
    ordered_ = ordered_ && positions.front() >= next;
    next = positions.back() + 1;
  }
  ordered_ = ordered_ && single_position_;
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

void ProjectOperator::RemapColumns(std::vector<size_t>* columns) const {
  if (single_position_) {
    // Each column maps to at most one output position: compact in place.
    size_t n = 0;
    for (size_t i = 0; i < columns->size(); ++i) {
      const size_t c = (*columns)[i];
      if (c < kept_positions_.size() && !kept_positions_[c].empty()) {
        (*columns)[n++] = kept_positions_[c].front();
      }
    }
    columns->resize(n);
  } else {
    // A column feeding several items: append the output positions behind
    // the input ones, then drop the input ones.
    const size_t n = columns->size();
    for (size_t i = 0; i < n; ++i) {
      const size_t c = (*columns)[i];
      if (c < kept_positions_.size()) {
        columns->insert(columns->end(), kept_positions_[c].begin(),
                        kept_positions_[c].end());
      }
    }
    columns->erase(columns->begin(), columns->begin() + static_cast<std::ptrdiff_t>(n));
  }
  // An order-preserving one-to-one map keeps the set ascending and unique.
  if (!ordered_ && columns->size() > 1) NormalizeCoverage(columns);
}

void ProjectOperator::TrimAttachments(core::AnnotatedTuple* tuple) const {
  // Ids trimmed by an earlier projection already left the attachment list,
  // so the ones appended here are disjoint from them; both runs ascend.
  const size_t pending = tuple->trimmed.size();
  std::vector<core::AttachmentInfo>& attachments = tuple->attachments;
  size_t kept = 0;
  for (size_t i = 0; i < attachments.size(); ++i) {
    core::AttachmentInfo& att = attachments[i];
    // Whole-row coverage (empty set) survives every projection unchanged.
    if (!att.columns.empty()) {
      RemapColumns(&att.columns);
      // Every covered column was dropped. A plumbing projection keeps the
      // annotation, degraded to whole-row coverage.
      if (att.columns.empty() && trim_annotations_) {
        tuple->trimmed.push_back(att.id);
        continue;
      }
    }
    if (kept != i) attachments[kept] = std::move(att);
    ++kept;
  }
  attachments.resize(kept);
  if (pending > 0 && tuple->trimmed.size() > pending) {
    std::inplace_merge(tuple->trimmed.begin(),
                       tuple->trimmed.begin() + static_cast<std::ptrdiff_t>(pending),
                       tuple->trimmed.end());
  }
}

Status ProjectOperator::ProjectTuple(core::AnnotatedTuple* in_ptr,
                                     core::AnnotatedTuple* out) const {
  core::AnnotatedTuple& in = *in_ptr;
  // 1. Trim (Theorem 1): annotations attached only to projected-out
  //    columns leave the attachment list here and their ids join the
  //    tuple's pending trim; the summaries are restricted by the tuple's
  //    first Settle(), which comes before any merge. Surviving
  //    attachments are remapped to output positions in place. A projection
  //    that keeps every column where it is changes neither.
  if (!identity_) TrimAttachments(&in);

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
