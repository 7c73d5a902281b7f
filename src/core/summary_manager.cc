#include "core/summary_manager.h"

#include <algorithm>
#include <future>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace insightnotes::core {

namespace {

// Folds `incoming` into the accumulator `into`: counterpart objects (same
// instance) combine via MergeWith (ClassBird2 / SimCluster in Figure 2);
// objects without one are copied in unchanged (ClassBird1, TextSummary1).
template <typename List>
Status MergeInto(std::vector<std::unique_ptr<SummaryObject>>* into, const List& incoming) {
  for (const auto& summary : incoming) {
    auto counterpart = std::find_if(into->begin(), into->end(), [&](const auto& s) {
      return s->instance_name() == summary->instance_name();
    });
    if (counterpart != into->end()) {
      INSIGHTNOTES_RETURN_IF_ERROR((*counterpart)->MergeWith(*summary));
    } else {
      into->push_back(summary->Clone());
    }
  }
  return Status::OK();
}

}  // namespace

Status PartialSummaryState::Seed(AnnotatedTuple* first) {
  INSIGHTNOTES_RETURN_IF_ERROR(first->Settle());
  INSIGHTNOTES_RETURN_IF_ERROR(MergeInto(&summaries_, first->summaries));
  if (first->attachments != nullptr) runs_.push_back(std::move(first->attachments));
  return Status::OK();
}

Status PartialSummaryState::Fold(const AnnotatedTuple& dup) {
  INSIGHTNOTES_RETURN_IF_ERROR(CheckSettled(dup));
  INSIGHTNOTES_RETURN_IF_ERROR(MergeInto(&summaries_, dup.summaries));
  if (dup.attachments != nullptr) runs_.push_back(dup.attachments);
  return Status::OK();
}

Status PartialSummaryState::Combine(PartialSummaryState&& other) {
  INSIGHTNOTES_RETURN_IF_ERROR(MergeInto(&summaries_, other.summaries_));
  runs_.insert(runs_.end(), std::make_move_iterator(other.runs_.begin()),
               std::make_move_iterator(other.runs_.end()));
  return Status::OK();
}

void PartialSummaryState::Release(AnnotatedTuple* out) {
  out->summaries.assign(std::make_move_iterator(summaries_.begin()),
                        std::make_move_iterator(summaries_.end()));
  summaries_.clear();
  out->attachments = AttachmentList::UnionAll(runs_);
  runs_.clear();
}

Status SummaryManager::RegisterInstance(std::unique_ptr<SummaryInstance> instance) {
  const std::string& name = instance->name();
  if (instances_.contains(name)) {
    return Status::AlreadyExists("summary instance '" + name + "' already registered");
  }
  INSIGHTNOTES_RETURN_IF_ERROR(instance->BindAnalyzer(analyzer_));
  instances_.emplace(name, std::move(instance));
  return Status::OK();
}

Result<SummaryInstance*> SummaryManager::GetInstance(const std::string& name) const {
  auto it = instances_.find(name);
  if (it == instances_.end()) {
    return Status::NotFound("summary instance '" + name + "' not registered");
  }
  return it->second.get();
}

std::vector<std::string> SummaryManager::InstanceNames() const {
  std::vector<std::string> names;
  names.reserve(instances_.size());
  for (const auto& [name, instance] : instances_) names.push_back(name);
  return names;
}

Status SummaryManager::Link(const std::string& instance_name, rel::TableId table) {
  INSIGHTNOTES_ASSIGN_OR_RETURN(SummaryInstance * instance, GetInstance(instance_name));
  auto& linked = links_[table];
  if (std::find(linked.begin(), linked.end(), instance) != linked.end()) {
    return Status::AlreadyExists("instance '" + instance_name +
                                 "' already linked to table " + std::to_string(table));
  }
  linked.push_back(instance);
  // Summarize the table's existing annotations under the new instance.
  Status status = Status::OK();
  store_->ScanTable(table, [&](rel::RowId row, const ann::Attachment& att) {
    if (store_->IsArchived(att.annotation)) return true;
    auto note = store_->Get(att.annotation);
    if (!note.ok()) {
      status = note.status();
      return false;
    }
    const RowKey key{table, row};
    FoldIntoObject(key, GetOrCreateObject(key, instance), instance, *note, nullptr);
    return true;
  });
  return status;
}

Status SummaryManager::Unlink(const std::string& instance_name, rel::TableId table) {
  INSIGHTNOTES_ASSIGN_OR_RETURN(SummaryInstance * instance, GetInstance(instance_name));
  auto it = links_.find(table);
  if (it == links_.end()) {
    return Status::NotFound("instance '" + instance_name + "' not linked to table " +
                            std::to_string(table));
  }
  auto pos = std::find(it->second.begin(), it->second.end(), instance);
  if (pos == it->second.end()) {
    return Status::NotFound("instance '" + instance_name + "' not linked to table " +
                            std::to_string(table));
  }
  it->second.erase(pos);
  // Drop this instance's objects on the table.
  for (auto& [key, objects] : objects_) {
    if (key.first != table) continue;
    objects.erase(std::remove_if(objects.begin(), objects.end(),
                                 [&](const std::unique_ptr<SummaryObject>& o) {
                                   return o->instance() == instance;
                                 }),
                  objects.end());
  }
  return Status::OK();
}

std::vector<SummaryInstance*> SummaryManager::LinkedTo(rel::TableId table) const {
  auto it = links_.find(table);
  return it == links_.end() ? std::vector<SummaryInstance*>{} : it->second;
}

bool SummaryManager::IsLinked(const std::string& instance_name,
                              rel::TableId table) const {
  auto instance = GetInstance(instance_name);
  if (!instance.ok()) return false;
  auto it = links_.find(table);
  if (it == links_.end()) return false;
  return std::find(it->second.begin(), it->second.end(), *instance) != it->second.end();
}

Status SummaryManager::ApplyToObject(SummaryObject* object, SummaryInstance* instance,
                                     const ann::Annotation& note,
                                     const txt::Analysis* body) {
  if (fault_hook_) {
    INSIGHTNOTES_RETURN_IF_ERROR(fault_hook_(instance->name(), note));
  }
  return object->AddAnnotation(note, body);
}

void SummaryManager::FoldIntoObject(const RowKey& key, SummaryObject* object,
                                    SummaryInstance* instance,
                                    const ann::Annotation& note,
                                    const txt::Analysis* body) {
  Status s = ApplyToObject(object, instance, note, body);
  if (s.ok() || s.IsAlreadyExists()) return;
  MarkStale(key);  // Mutex-guarded: shards call this concurrently.
  INSIGHTNOTES_LOG(Warning) << "summarizer '" << instance->name()
                            << "' failed on annotation " << note.id << "; row ("
                            << key.first << ", " << key.second
                            << ") marked stale: " << s.ToString();
}

void SummaryManager::MarkStale(const RowKey& key) {
  std::lock_guard<std::mutex> lock(stale_mutex_);
  stale_rows_.insert(key);
}

bool SummaryManager::IsStale(rel::TableId table, rel::RowId row) const {
  std::lock_guard<std::mutex> lock(stale_mutex_);
  return stale_rows_.contains(RowKey{table, row});
}

std::vector<std::pair<rel::TableId, rel::RowId>> SummaryManager::StaleRows() const {
  std::lock_guard<std::mutex> lock(stale_mutex_);
  return {stale_rows_.begin(), stale_rows_.end()};
}

Result<size_t> SummaryManager::RepairStale() {
  std::vector<RowKey> rows;
  {
    std::lock_guard<std::mutex> lock(stale_mutex_);
    rows.assign(stale_rows_.begin(), stale_rows_.end());
  }
  size_t repaired = 0;
  Status first_error = Status::OK();
  for (const RowKey& key : rows) {
    Status s = RebuildRow(key.first, key.second);
    if (s.ok()) {
      std::lock_guard<std::mutex> lock(stale_mutex_);
      stale_rows_.erase(key);
      ++repaired;
    } else if (first_error.ok()) {
      first_error = s;  // Row stays stale for the next repair attempt.
    }
  }
  if (!first_error.ok()) return first_error;
  return repaired;
}

namespace {

/// Runs `task(0) … task(n - 1)`, one pool task each, or inline in order
/// without a pool. Returns the first error.
Status RunShards(ThreadPool* pool, size_t n, const std::function<Status(size_t)>& task) {
  Status result = Status::OK();
  if (pool == nullptr) {
    for (size_t s = 0; s < n && result.ok(); ++s) result = task(s);
    return result;
  }
  std::vector<std::future<Status>> done;
  done.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    done.push_back(pool->Submit([&task, s] { return task(s); }));
  }
  for (auto& f : done) {
    Status s = f.get();
    if (result.ok() && !s.ok()) result = s;
  }
  return result;
}

}  // namespace

Status SummaryManager::ApplyAnnotationBatch(std::span<const BatchAnnotation> batch,
                                            ThreadPool* pool) {
  // Per-item ingest plan: the instances maintaining the target table (null
  // to skip the item) and the analysed body.
  struct ItemPlan {
    const std::vector<SummaryInstance*>* linked = nullptr;
    txt::Analysis body;
  };
  std::vector<ItemPlan> plans(batch.size());
  for (const auto& [name, instance] : instances_) instance->Compile();

  // Serial phase, in batch order. Analysing here is the only way ingest
  // grows the analyzer, so term ids are the same at every shard count. The
  // vectorize-once store is warm before the fold, so a data-invariant
  // cluster instance's fold finds its vector; and object creation leaves
  // the objects_ map structurally frozen while shards mutate disjoint
  // rows' objects.
  for (size_t i = 0; i < batch.size(); ++i) {
    const BatchAnnotation& item = batch[i];
    auto linked = links_.find(item.region.table);
    if (linked == links_.end() || linked->second.empty() || item.note.archived ||
        store_->IsArchived(item.note.id)) {
      continue;
    }
    ItemPlan& plan = plans[i];
    plan.linked = &linked->second;
    plan.body = analyzer_->Analyze(item.note.body);
    const RowKey key{item.region.table, item.region.row};
    for (SummaryInstance* instance : linked->second) {
      if (instance->type() == SummaryTypeKind::kCluster) {
        instance->CommitVector(item.note.id, plan.body);
      }
      GetOrCreateObject(key, instance);
    }
  }

  // Sharded fold. Shard ownership is by row id, so every object is mutated
  // by exactly one shard, and each shard folds its rows' annotations in
  // batch order — the same per-row order at every shard count.
  const size_t num_shards = pool != nullptr ? pool->num_threads() : 1;
  return RunShards(pool, num_shards, [&](size_t s) -> Status {
    for (size_t i = 0; i < batch.size(); ++i) {
      if (plans[i].linked == nullptr) continue;
      if (batch[i].region.row % num_shards != s) continue;
      const RowKey key{batch[i].region.table, batch[i].region.row};
      auto it = objects_.find(key);
      if (it == objects_.end()) {
        return Status::Internal("batch ingest: row objects missing");
      }
      for (SummaryInstance* instance : *plans[i].linked) {
        SummaryObject* object = nullptr;
        for (const auto& candidate : it->second) {
          if (candidate->instance() == instance) {
            object = candidate.get();
            break;
          }
        }
        if (object == nullptr) {
          return Status::Internal("batch ingest: object missing for instance '" +
                                  instance->name() + "'");
        }
        FoldIntoObject(key, object, instance, batch[i].note, &plans[i].body);
      }
    }
    return Status::OK();
  });
}

Status SummaryManager::RebuildRow(rel::TableId table, rel::RowId row) {
  RowKey key{table, row};
  objects_.erase(key);
  const std::vector<SummaryInstance*> linked = LinkedTo(table);
  for (SummaryInstance* instance : linked) instance->Compile();
  for (const ann::Attachment& att : store_->OnRow(table, row)) {
    if (store_->IsArchived(att.annotation)) continue;
    INSIGHTNOTES_ASSIGN_OR_RETURN(ann::Annotation note, store_->Get(att.annotation));
    const txt::Analysis body = analyzer_->Analyze(note.body);
    for (SummaryInstance* instance : linked) {
      SummaryObject* object = GetOrCreateObject(key, instance);
      // Rebuild propagates summarizer errors (no degradation): RepairStale
      // relies on it to tell a repaired row from one that is still failing.
      Status s = ApplyToObject(object, instance, note, &body);
      if (!s.ok() && !s.IsAlreadyExists()) return s;
    }
  }
  return Status::OK();
}

Status SummaryManager::RebuildTable(rel::TableId table) {
  std::vector<rel::RowId> rows;
  store_->ScanTable(table, [&](rel::RowId row, const ann::Attachment&) {
    if (rows.empty() || rows.back() != row) rows.push_back(row);
    return true;
  });
  // Also clear rows whose objects exist but no longer have annotations.
  for (auto it = objects_.begin(); it != objects_.end();) {
    if (it->first.first == table &&
        !std::binary_search(rows.begin(), rows.end(), it->first.second)) {
      it = objects_.erase(it);
    } else {
      ++it;
    }
  }
  for (rel::RowId row : rows) {
    INSIGHTNOTES_RETURN_IF_ERROR(RebuildRow(table, row));
  }
  return Status::OK();
}

const std::vector<std::unique_ptr<SummaryObject>>* SummaryManager::RowObjects(
    rel::TableId table, rel::RowId row) const {
  auto it = objects_.find(RowKey{table, row});
  return it == objects_.end() ? nullptr : &it->second;
}

SummaryObject* SummaryManager::GetOrCreateObject(const RowKey& key,
                                                 SummaryInstance* instance) {
  auto& objects = objects_[key];
  for (const auto& object : objects) {
    if (object->instance() == instance) return object.get();
  }
  objects.push_back(instance->NewObject());
  return objects.back().get();
}

}  // namespace insightnotes::core
