#include "core/engine_snapshot.h"

#include <algorithm>

#include "core/summary_manager.h"

namespace insightnotes::core {

EngineSnapshot::~EngineSnapshot() {
  if (retired_ != nullptr) retired_->fetch_add(1, std::memory_order_relaxed);
}

const EngineSnapshot::RowState* EngineSnapshot::FindRow(rel::TableId table,
                                                        rel::RowId row) const {
  const RowKey key{table, row};
  const Shard* shard = shards_[ShardOf(key)].get();
  if (shard == nullptr) return nullptr;
  auto it = shard->rows.find(key);
  return it == shard->rows.end() ? nullptr : it->second.get();
}

size_t EngineSnapshot::TrimMemoBytes() const {
  size_t bytes = 0;
  for (const auto& shard : shards_) {
    if (shard == nullptr) continue;
    for (const auto& [key, row] : shard->rows) bytes += row->memo.ApproxBytes(row->summaries);
  }
  return bytes;
}

const SummaryList& EngineSnapshot::SummariesFor(rel::TableId table, rel::RowId row) const {
  return SummariesOf(table, FindRow(table, row));
}

const SummaryList& EngineSnapshot::SummariesOf(rel::TableId table,
                                               const RowState* state) const {
  if (state != nullptr) return state->summaries;
  static const SummaryList kNone;
  auto it = empty_objects_->find(table);
  return it == empty_objects_->end() ? kNone : it->second;
}

std::shared_ptr<const EngineSnapshot::RowState> EngineSnapshot::ReadRowState(
    const Sources& src, const RowKey& key) const {
  const std::vector<ann::Attachment>& atts = src.store->OnRow(key.first, key.second);
  const std::vector<std::unique_ptr<SummaryObject>>* objects =
      src.manager->RowObjects(key.first, key.second);
  if (atts.empty() && objects == nullptr) return nullptr;
  auto state = std::make_shared<RowState>();
  // The store keeps the row's insertion order; the pipeline reads its
  // attachments id-sorted and without the ids this epoch's bitmap archives.
  // Insertion order is id order except where an older annotation was
  // attached later, so the kept attachments are sorted only then.
  std::vector<const ann::Attachment*> kept;
  kept.reserve(atts.size());
  for (const ann::Attachment& att : atts) {
    if (!IsArchived(att.annotation)) kept.push_back(&att);
  }
  const auto by_id = [](const ann::Attachment* a, const ann::Attachment* b) {
    return a->annotation < b->annotation;
  };
  if (!std::is_sorted(kept.begin(), kept.end(), by_id)) {
    std::sort(kept.begin(), kept.end(), by_id);
  }
  state->attachments = AttachmentList::Build(kept);
  if (objects == nullptr) {
    state->summaries = SummariesOf(key.first, nullptr);  // Never summarized.
  } else {
    state->summaries.reserve(objects->size());
    for (const auto& object : *objects) {
      // Clone() is O(1): the copy shares the object's COW payload; the
      // maintainer's next fold detaches via Own() without touching this one.
      state->summaries.push_back(
          std::shared_ptr<const SummaryObject>(object->Clone()));
    }
  }
  return state;
}

void EngineSnapshot::CaptureGlobals(const Sources& src) {
  num_annotations_ = src.store->NumAnnotations();
  std::map<rel::TableId, SummaryList> empty_objects;
  for (const auto& [table, instances] : src.manager->AllLinks()) {
    SummaryList& objects = empty_objects[table];
    for (SummaryInstance* instance : instances) objects.push_back(instance->NewObject());
  }
  empty_objects_ =
      std::make_shared<const std::map<rel::TableId, SummaryList>>(std::move(empty_objects));
  bool any_archived = false;
  std::vector<uint8_t> archived(num_annotations_, 0);
  for (uint64_t id = 0; id < num_annotations_; ++id) {
    if (src.store->IsArchived(id)) {
      archived[id] = 1;
      any_archived = true;
    }
  }
  if (any_archived) {
    archived_ = std::make_shared<const std::vector<uint8_t>>(std::move(archived));
  } else {
    archived_ = nullptr;
  }
}

std::shared_ptr<const EngineSnapshot> EngineSnapshot::BuildFull(
    const Sources& src, std::unordered_map<rel::TableId, rel::RowId> bounds,
    uint64_t epoch, std::shared_ptr<std::atomic<uint64_t>> retire_counter) {
  auto snap = std::shared_ptr<EngineSnapshot>(new EngineSnapshot());
  snap->epoch_ = epoch;
  snap->bounds_ = std::move(bounds);
  snap->retired_ = std::move(retire_counter);
  snap->CaptureGlobals(src);

  std::array<std::shared_ptr<Shard>, kNumShards> building;
  // Every row with maintained objects also has attachments (folds only run
  // on annotated rows), so the store's row index enumerates all row state.
  // Keys are collected first so ReadRowState never re-enters the store's
  // latch from inside the ForEachRow callback.
  std::vector<RowKey> keys;
  src.store->ForEachRow([&](rel::TableId table, rel::RowId row,
                            const std::vector<ann::Attachment>&) {
    keys.emplace_back(table, row);
  });
  for (const RowKey& key : keys) {
    std::shared_ptr<const RowState> state = snap->ReadRowState(src, key);
    if (state == nullptr) continue;
    std::shared_ptr<Shard>& shard = building[ShardOf(key)];
    if (shard == nullptr) shard = std::make_shared<Shard>();
    shard->rows.emplace(key, std::move(state));
  }
  for (size_t i = 0; i < kNumShards; ++i) snap->shards_[i] = std::move(building[i]);
  return snap;
}

std::shared_ptr<const EngineSnapshot> EngineSnapshot::BuildDelta(
    const EngineSnapshot& prev, const Sources& src,
    const std::vector<RowKey>& dirty,
    const std::vector<ann::AnnotationId>& newly_archived,
    std::unordered_map<rel::TableId, rel::RowId> bounds, uint64_t epoch,
    std::shared_ptr<std::atomic<uint64_t>> retire_counter) {
  auto snap = std::shared_ptr<EngineSnapshot>(new EngineSnapshot());
  snap->epoch_ = epoch;
  snap->bounds_ = std::move(bounds);
  snap->retired_ = std::move(retire_counter);
  snap->num_annotations_ = src.store->NumAnnotations();
  snap->empty_objects_ = prev.empty_objects_;
  snap->shards_ = prev.shards_;  // Structural sharing; dirty shards replaced below.

  if (newly_archived.empty()) {
    snap->archived_ = prev.archived_;
  } else {
    std::vector<uint8_t> archived(snap->num_annotations_, 0);
    if (prev.archived_ != nullptr) {
      std::copy(prev.archived_->begin(), prev.archived_->end(), archived.begin());
    }
    for (ann::AnnotationId id : newly_archived) {
      if (id < archived.size()) archived[id] = 1;
    }
    snap->archived_ = std::make_shared<const std::vector<uint8_t>>(std::move(archived));
  }

  std::array<std::shared_ptr<Shard>, kNumShards> copied;
  for (const RowKey& key : dirty) {
    const size_t idx = ShardOf(key);
    if (copied[idx] == nullptr) {
      copied[idx] = prev.shards_[idx] != nullptr
                        ? std::make_shared<Shard>(*prev.shards_[idx])
                        : std::make_shared<Shard>();
    }
    std::shared_ptr<const RowState> state = snap->ReadRowState(src, key);
    if (state != nullptr) {
      copied[idx]->rows[key] = std::move(state);
    } else {
      copied[idx]->rows.erase(key);
    }
  }
  for (size_t i = 0; i < kNumShards; ++i) {
    if (copied[i] != nullptr) snap->shards_[i] = std::move(copied[i]);
  }
  return snap;
}

}  // namespace insightnotes::core
