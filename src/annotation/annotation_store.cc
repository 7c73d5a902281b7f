#include "annotation/annotation_store.h"

#include <algorithm>

#include "common/coverage.h"

namespace insightnotes::ann {

namespace {

const std::vector<Attachment> kNoAttachments;

}  // namespace

Result<AnnotationId> AnnotationStore::Add(Annotation note, const CellRegion& region) {
  if (region.row == rel::kInvalidRowId) {
    return Status::InvalidArgument("annotation region has no row");
  }
  INSIGHTNOTES_ASSIGN_OR_RETURN(storage::RecordId body_rid, bodies_.Append(note.body));
  std::unique_lock<std::shared_mutex> lock(meta_latch_);
  AnnotationId id = metas_.size();
  Meta meta;
  meta.kind = note.kind;
  meta.author = std::move(note.author);
  meta.timestamp = note.timestamp;
  meta.title = std::move(note.title);
  meta.body = body_rid;
  metas_.push_back(std::move(meta));
  num_annotations_.store(metas_.size(), std::memory_order_release);
  INSIGHTNOTES_RETURN_IF_ERROR(AttachImpl(id, region, /*recovery=*/false));
  return id;
}

Status AnnotationStore::Attach(AnnotationId id, const CellRegion& region) {
  std::unique_lock<std::shared_mutex> lock(meta_latch_);
  return AttachImpl(id, region, /*recovery=*/false);
}

// Called with meta_latch_ held exclusively, except on the recovery path
// (disjoint pre-created slots, no concurrent readers).
Status AnnotationStore::AttachImpl(AnnotationId id, const CellRegion& region,
                                   bool recovery) {
  if (id >= metas_.size()) {
    return Status::NotFound("annotation " + std::to_string(id) + " does not exist");
  }
  if (region.row == rel::kInvalidRowId) {
    return Status::InvalidArgument("annotation region has no row");
  }
  CellRegion normalized = region;
  NormalizeCoverage(&normalized.columns);

  Meta& meta = metas_[id];
  RowKey key{normalized.table, normalized.row};
  std::vector<Attachment>* attachments_ptr;
  if (recovery) {
    // Pre-created by BeginParallelRecovery: concurrent chains must never
    // insert (a rehash would race with chains reading other rows).
    auto it = by_row_.find(key);
    if (it == by_row_.end()) {
      return Status::Internal("recovery row (" + std::to_string(key.first) + ", " +
                              std::to_string(key.second) + ") was not pre-created");
    }
    attachments_ptr = &it->second;
  } else {
    attachments_ptr = &by_row_[key];
  }
  auto& attachments = *attachments_ptr;
  // Re-attachment to the same row unions the coverage (idempotent). The
  // annotation's own region list tells a re-attachment apart, so a new
  // attachment never walks the row; a re-attachment then updates its entry
  // in place, keeping the row's insertion order.
  for (CellRegion& r : meta.regions) {
    if (r.table != normalized.table || r.row != normalized.row) continue;
    UnionCoverage(&r.columns, normalized.columns);
    for (Attachment& a : attachments) {
      if (a.annotation != id) continue;
      a.columns = r.columns;
      break;
    }
    return Status::OK();
  }
  attachments.push_back(Attachment{id, normalized.columns});
  meta.regions.push_back(std::move(normalized));
  ++num_attachments_;
  return Status::OK();
}

Status AnnotationStore::BeginParallelRecovery(
    uint64_t num_annotations,
    const std::vector<std::pair<rel::TableId, rel::RowId>>& rows) {
  if (!metas_.empty() || !by_row_.empty() || NumAttachments() != 0) {
    return Status::Internal("parallel recovery requires an empty store");
  }
  if (in_recovery_) {
    return Status::Internal("parallel recovery already in progress");
  }
  // Pre-size the id-indexed structures and pre-create every row key so the
  // replay chains never mutate shared container structure: a chain only
  // writes the meta slots of its own ids and the attachment vectors of its
  // own rows.
  metas_.resize(num_annotations);
  num_annotations_.store(num_annotations, std::memory_order_release);
  recovered_.assign(num_annotations, 0);
  by_row_.reserve(rows.size());
  for (const auto& [table, row] : rows) {
    by_row_.try_emplace(RowKey{table, row});
  }
  in_recovery_ = true;
  return Status::OK();
}

Status AnnotationStore::RecoverAdd(AnnotationId id, Annotation note,
                                   const CellRegion& region) {
  if (!in_recovery_) return Status::Internal("RecoverAdd outside recovery");
  if (id >= metas_.size()) {
    return Status::Corruption("recovered annotation id " + std::to_string(id) +
                              " out of range");
  }
  if (recovered_[id]) {
    return Status::Corruption("annotation " + std::to_string(id) +
                              " added twice in the log");
  }
  if (region.row == rel::kInvalidRowId) {
    return Status::Corruption("recovered annotation region has no row");
  }
  // The heap file's own latch serializes concurrent chain appends.
  INSIGHTNOTES_ASSIGN_OR_RETURN(storage::RecordId body_rid, bodies_.Append(note.body));
  Meta& meta = metas_[id];
  meta.kind = note.kind;
  meta.author = std::move(note.author);
  meta.timestamp = note.timestamp;
  meta.title = std::move(note.title);
  meta.body = body_rid;
  recovered_[id] = 1;
  return AttachImpl(id, region, /*recovery=*/true);
}

Status AnnotationStore::RecoverAttach(AnnotationId id, const CellRegion& region) {
  if (!in_recovery_) return Status::Internal("RecoverAttach outside recovery");
  if (id >= metas_.size() || !recovered_[id]) {
    return Status::Corruption("log attaches annotation " + std::to_string(id) +
                              " before adding it");
  }
  return AttachImpl(id, region, /*recovery=*/true);
}

Status AnnotationStore::RecoverArchive(AnnotationId id) {
  if (!in_recovery_) return Status::Internal("RecoverArchive outside recovery");
  if (id >= metas_.size() || !recovered_[id]) {
    return Status::Corruption("log archives annotation " + std::to_string(id) +
                              " before adding it");
  }
  metas_[id].archived = true;
  return Status::OK();
}

Status AnnotationStore::EndParallelRecovery() {
  if (!in_recovery_) return Status::Internal("EndParallelRecovery outside recovery");
  in_recovery_ = false;
  for (size_t id = 0; id < recovered_.size(); ++id) {
    if (!recovered_[id]) {
      return Status::Corruption("annotation " + std::to_string(id) +
                                " was never added during replay");
    }
  }
  recovered_.clear();
  return Status::OK();
}

Result<Annotation> AnnotationStore::Get(AnnotationId id) const {
  Annotation note;
  storage::RecordId body_rid;
  {
    std::shared_lock<std::shared_mutex> lock(meta_latch_);
    if (id >= metas_.size()) {
      return Status::NotFound("annotation " + std::to_string(id) + " does not exist");
    }
    const Meta& meta = metas_[id];
    note.id = id;
    note.kind = meta.kind;
    note.author = meta.author;
    note.timestamp = meta.timestamp;
    note.title = meta.title;
    note.archived = meta.archived;
    body_rid = meta.body;
  }
  // Body fetch outside the metadata latch; the heap file latches itself.
  INSIGHTNOTES_ASSIGN_OR_RETURN(note.body, bodies_.Get(body_rid));
  return note;
}

const std::vector<Attachment>& AnnotationStore::OnRow(rel::TableId table,
                                                      rel::RowId row) const {
  std::shared_lock<std::shared_mutex> lock(meta_latch_);
  auto it = by_row_.find(RowKey{table, row});
  return it == by_row_.end() ? kNoAttachments : it->second;
}

std::vector<AnnotationId> AnnotationStore::OnCell(rel::TableId table, rel::RowId row,
                                                  size_t column) const {
  std::shared_lock<std::shared_mutex> lock(meta_latch_);
  std::vector<AnnotationId> out;
  auto it = by_row_.find(RowKey{table, row});
  if (it == by_row_.end()) return out;
  for (const Attachment& a : it->second) {
    if (a.columns.empty() ||
        std::find(a.columns.begin(), a.columns.end(), column) != a.columns.end()) {
      out.push_back(a.annotation);
    }
  }
  return out;
}

Result<std::vector<CellRegion>> AnnotationStore::RegionsOf(AnnotationId id) const {
  std::shared_lock<std::shared_mutex> lock(meta_latch_);
  if (id >= metas_.size()) {
    return Status::NotFound("annotation " + std::to_string(id) + " does not exist");
  }
  return metas_[id].regions;
}

Status AnnotationStore::Archive(AnnotationId id) {
  std::unique_lock<std::shared_mutex> lock(meta_latch_);
  if (id >= metas_.size()) {
    return Status::NotFound("annotation " + std::to_string(id) + " does not exist");
  }
  metas_[id].archived = true;
  return Status::OK();
}

bool AnnotationStore::IsArchived(AnnotationId id) const {
  std::shared_lock<std::shared_mutex> lock(meta_latch_);
  return id < metas_.size() && metas_[id].archived;
}

void AnnotationStore::ScanTable(
    rel::TableId table,
    const std::function<bool(rel::RowId, const Attachment&)>& fn) const {
  std::shared_lock<std::shared_mutex> lock(meta_latch_);
  // Deterministic order: collect row keys for this table, sorted by row.
  std::vector<rel::RowId> rows;
  for (const auto& [key, attachments] : by_row_) {
    if (key.first == table && !attachments.empty()) rows.push_back(key.second);
  }
  std::sort(rows.begin(), rows.end());
  for (rel::RowId row : rows) {
    for (const Attachment& a : by_row_.at(RowKey{table, row})) {
      if (!fn(row, a)) return;
    }
  }
}

void AnnotationStore::ForEachRow(
    const std::function<void(rel::TableId, rel::RowId,
                             const std::vector<Attachment>&)>& fn) const {
  std::shared_lock<std::shared_mutex> lock(meta_latch_);
  for (const auto& [key, attachments] : by_row_) {
    if (!attachments.empty()) fn(key.first, key.second, attachments);
  }
}

}  // namespace insightnotes::ann
