#include "rel/table.h"

namespace insightnotes::rel {

void TableIndex::Insert(const Value& key, RowId row) {
  if (!broken_.ok()) return;  // Already diverged; reopen heals it.
  Status s = tree_->InsertForRow(key, row);
  if (!s.ok()) broken_ = s;
}

void TableIndex::Remove(const Value& key, RowId row) {
  if (!broken_.ok()) return;
  Status s = tree_->RemoveForRow(key, row);
  // Any failure — NotFound included: a missing covered entry means the
  // tree diverged from the heap — breaks the index rather than the row
  // mutation.
  if (!s.ok()) broken_ = s;
}

Status TableIndex::LookupInto(const Value& key, std::vector<RowId>* out) const {
  if (!broken_.ok()) return broken_;
  return tree_->LookupInto(key, out);
}

Status TableIndex::RangeInto(const Value* lo, const Value* hi,
                             std::vector<RowId>* out) const {
  if (!broken_.ok()) return broken_;
  return tree_->RangeInto(lo, hi, out);
}

Status Table::CheckTuple(const Tuple& tuple) const {
  if (tuple.NumValues() != schema_.NumColumns()) {
    return Status::InvalidArgument(
        "tuple arity " + std::to_string(tuple.NumValues()) + " does not match " +
        name_ + "'s schema " + schema_.ToString());
  }
  for (size_t i = 0; i < tuple.NumValues(); ++i) {
    const Value& v = tuple.ValueAt(i);
    if (v.is_null()) continue;
    if (v.type() != schema_.ColumnAt(i).type) {
      return Status::TypeError("column '" + schema_.ColumnAt(i).QualifiedName() +
                               "' expects " +
                               std::string(ValueTypeToString(schema_.ColumnAt(i).type)) +
                               " but got " + std::string(ValueTypeToString(v.type())));
    }
  }
  return Status::OK();
}

Result<RowId> Table::Insert(const Tuple& tuple) {
  INSIGHTNOTES_RETURN_IF_ERROR(CheckTuple(tuple));
  std::string bytes;
  tuple.Serialize(&bytes);
  std::unique_lock<std::shared_mutex> lock(latch_);
  INSIGHTNOTES_ASSIGN_OR_RETURN(storage::RecordId rid, heap_.Append(bytes));
  RowId row = rows_.size();
  rows_.push_back(rid);
  num_live_.fetch_add(1, std::memory_order_relaxed);
  for (auto& [column, index] : indexes_) {
    index.Insert(tuple.ValueAt(column), row);
  }
  return row;
}

Result<Tuple> Table::GetLocked(RowId row) const {
  if (row >= rows_.size() || !rows_[row].valid()) {
    return Status::NotFound("row " + std::to_string(row) + " not found in table '" +
                            name_ + "'");
  }
  INSIGHTNOTES_ASSIGN_OR_RETURN(std::string bytes, heap_.Get(rows_[row]));
  return Tuple::Deserialize(bytes);
}

Result<Tuple> Table::Get(RowId row) const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  return GetLocked(row);
}

Status Table::Delete(RowId row) {
  std::unique_lock<std::shared_mutex> lock(latch_);
  if (row >= rows_.size() || !rows_[row].valid()) {
    return Status::NotFound("row " + std::to_string(row) + " not found in table '" +
                            name_ + "'");
  }
  if (!indexes_.empty()) {
    // Fetch the keys before the heap record goes away.
    INSIGHTNOTES_ASSIGN_OR_RETURN(Tuple tuple, GetLocked(row));
    for (auto& [column, index] : indexes_) {
      index.Remove(tuple.ValueAt(column), row);
    }
  }
  INSIGHTNOTES_RETURN_IF_ERROR(heap_.Delete(rows_[row]));
  rows_[row] = storage::RecordId{};
  num_live_.fetch_sub(1, std::memory_order_relaxed);
  return Status::OK();
}

bool Table::IsLive(RowId row) const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  return row < rows_.size() && rows_[row].valid();
}

std::unique_ptr<BTree> Table::SwapIndex(size_t column,
                                        std::unique_ptr<BTree> tree) {
  std::unique_lock<std::shared_mutex> lock(latch_);
  auto [it, inserted] = indexes_.try_emplace(column, std::move(tree));
  if (inserted) return nullptr;
  // Hand the previous tree back for page reclamation.
  std::unique_ptr<BTree> replaced = it->second.ReleaseTree();
  it->second = TableIndex(std::move(tree));
  return replaced;
}

std::vector<PersistentIndexInfo> Table::PersistentIndexes() const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  std::vector<PersistentIndexInfo> out;
  for (const auto& [column, index] : indexes_) {
    out.push_back(PersistentIndexInfo{column, index.tree()->meta(),
                                      index.usable()});
  }
  return out;
}

Status Table::Scan(const std::function<bool(RowId, const Tuple&)>& fn) const {
  for (RowId row = 0; row < rows_.size(); ++row) {
    if (!rows_[row].valid()) continue;
    INSIGHTNOTES_ASSIGN_OR_RETURN(std::string bytes, heap_.Get(rows_[row]));
    INSIGHTNOTES_ASSIGN_OR_RETURN(Tuple tuple, Tuple::Deserialize(bytes));
    if (!fn(row, tuple)) return Status::OK();
  }
  return Status::OK();
}

}  // namespace insightnotes::rel
