#include "core/rco_cache.h"

#include <algorithm>
#include <cstdio>

namespace insightnotes::core {

std::string_view CachePolicyToString(CachePolicy policy) {
  switch (policy) {
    case CachePolicy::kNone:
      return "none";
    case CachePolicy::kLru:
      return "lru";
    case CachePolicy::kLfu:
      return "lfu";
    case CachePolicy::kRco:
      return "rco";
  }
  return "?";
}

ZoomInCache::ZoomInCache(CachePolicy policy, size_t budget_bytes,
                         const std::string& path, RcoWeights weights)
    : policy_(policy), budget_(budget_bytes), weights_(weights), path_(path) {}

ZoomInCache::~ZoomInCache() {
  heap_.reset();
  pool_.reset();
  Status s = disk_.Close();
  (void)s;
  if (!path_.empty()) std::remove(path_.c_str());
}

Status ZoomInCache::Init() {
  INSIGHTNOTES_RETURN_IF_ERROR(disk_.Open(path_));
  // A small frame pool: cache entries stream through rather than reside.
  pool_ = std::make_unique<storage::BufferPool>(&disk_, 64);
  heap_ = std::make_unique<storage::HeapFile>(pool_.get());
  return Status::OK();
}

std::array<std::unique_lock<std::mutex>, ZoomInCache::kNumShards>
ZoomInCache::LockAll() const {
  std::array<std::unique_lock<std::mutex>, kNumShards> locks;
  for (size_t i = 0; i < kNumShards; ++i) {
    locks[i] = std::unique_lock<std::mutex>(shards_[i].mutex);
  }
  return locks;
}

size_t ZoomInCache::NumEntriesLocked() const {
  size_t n = 0;
  for (const Shard& shard : shards_) n += shard.entries.size();
  return n;
}

Status ZoomInCache::Put(QueryId qid, std::string_view record, double cost_seconds) {
  if (policy_ != CachePolicy::kNone && heap_ == nullptr) {
    return Status::Internal("cache not initialized");
  }
  if (!Admits(record.size())) {
    Reject();
    return Status::OK();  // Larger than the whole cache: never admitted.
  }
  // Insertion needs the global directory view (eviction scans every shard),
  // so it takes all shard mutexes; concurrent Gets on other shards proceed.
  auto locks = LockAll();
  Shard& home = shards_[ShardOf(qid)];
  // An existing entry for the same qid is replaced, but it must stay
  // readable until the replacement has fully succeeded: it is pinned
  // against eviction (MakeRoom skips it) and its bytes are discounted from
  // the room calculation since they are reclaimed below.
  auto existing = home.entries.find(qid);
  size_t reclaimable = existing != home.entries.end() ? existing->second.size : 0;
  const QueryId* pinned = existing != home.entries.end() ? &qid : nullptr;
  if (!MakeRoom(record.size(), reclaimable, pinned)) {
    Reject();
    return Status::OK();  // Old snapshot (if any) remains readable.
  }
  INSIGHTNOTES_ASSIGN_OR_RETURN(storage::RecordId rid, heap_->Append(record));
  if (existing != home.entries.end()) {
    // The replacement is durable; now drop the old backing record.
    Status s = heap_->Delete(existing->second.record);
    bytes_used_.fetch_sub(existing->second.size, std::memory_order_relaxed);
    home.entries.erase(existing);
    if (!s.ok()) return s;
  }
  Entry entry;
  entry.record = rid;
  entry.size = record.size();
  entry.cost = cost_seconds;
  entry.last_ref = tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  entry.ref_count = 1;
  home.entries[qid] = entry;
  bytes_used_.fetch_add(entry.size, std::memory_order_relaxed);
  insertions_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Result<ResultSnapshot> ZoomInCache::Get(QueryId qid) {
  Shard& home = shards_[ShardOf(qid)];
  // The shard mutex is held across the backing read: Put/eviction take all
  // shard mutexes, so the record cannot be deleted from under us.
  std::unique_lock<std::mutex> lock(home.mutex);
  auto it = home.entries.find(qid);
  if (it == home.entries.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return Status::NotFound("result " + std::to_string(qid) + " not cached");
  }
  // Read first: the hit is counted and recency/frequency bumped only for a
  // snapshot the caller actually receives. A failed backing read (or a
  // corrupt snapshot) is a miss and leaves the entry's metadata untouched.
  auto bytes = heap_->Get(it->second.record);
  if (!bytes.ok()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return bytes.status();
  }
  auto snapshot = ResultSnapshot::Deserialize(*bytes);
  if (!snapshot.ok()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return snapshot.status();
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  it->second.last_ref = tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  ++it->second.ref_count;
  return snapshot;
}

Status ZoomInCache::CorruptBackingRecordForTest(QueryId qid) {
  Shard& home = shards_[ShardOf(qid)];
  std::unique_lock<std::mutex> lock(home.mutex);
  auto it = home.entries.find(qid);
  if (it == home.entries.end()) {
    return Status::NotFound("result " + std::to_string(qid) + " not cached");
  }
  return heap_->Delete(it->second.record);
}

bool ZoomInCache::Contains(QueryId qid) const {
  const Shard& home = shards_[ShardOf(qid)];
  std::unique_lock<std::mutex> lock(home.mutex);
  return home.entries.contains(qid);
}

CacheStats ZoomInCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.bytes_used = bytes_used_.load(std::memory_order_relaxed);
  return s;
}

bool ZoomInCache::MakeRoom(size_t needed, size_t reclaimable, const QueryId* exclude) {
  while (bytes_used_.load(std::memory_order_relaxed) - reclaimable + needed >
         budget_) {
    // The pinned entry (the one being replaced) is not an eviction
    // candidate.
    if (NumEntriesLocked() <= (exclude != nullptr ? 1u : 0u)) return false;
    QueryId victim = PickVictim(exclude);
    Shard& shard = shards_[ShardOf(victim)];
    auto it = shard.entries.find(victim);
    Status s = heap_->Delete(it->second.record);
    if (!s.ok()) return false;
    bytes_used_.fetch_sub(it->second.size, std::memory_order_relaxed);
    shard.entries.erase(it);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

QueryId ZoomInCache::PickVictim(const QueryId* exclude) const {
  // Hoisted normalization pre-pass: one O(n) scan per eviction instead of
  // one per candidate (PickVictim used to be O(n^2) under kRco).
  double max_cost = 1e-9;
  size_t max_size = 1;
  if (policy_ == CachePolicy::kRco) {
    for (const Shard& shard : shards_) {
      for (const auto& [qid, e] : shard.entries) {
        max_cost = std::max(max_cost, e.cost);
        max_size = std::max(max_size, e.size);
      }
    }
  }
  // Ties break toward the smaller qid: shards are iterated out of qid
  // order, so the tie-break must be explicit to keep victim selection
  // deterministic (and identical to the pre-sharding single-map scan).
  bool have_victim = false;
  QueryId victim = 0;
  uint64_t best_tick = 0;
  double best_score = 0.0;
  for (const Shard& shard : shards_) {
    for (const auto& [qid, e] : shard.entries) {
      if (exclude != nullptr && qid == *exclude) continue;
      switch (policy_) {
        case CachePolicy::kLru:
          if (!have_victim || e.last_ref < best_tick ||
              (e.last_ref == best_tick && qid < victim)) {
            best_tick = e.last_ref;
            victim = qid;
          }
          break;
        case CachePolicy::kLfu:
          if (!have_victim || e.ref_count < best_tick ||
              (e.ref_count == best_tick && qid < victim)) {
            best_tick = e.ref_count;
            victim = qid;
          }
          break;
        case CachePolicy::kRco: {
          double score = RcoScore(e, max_cost, max_size);
          if (!have_victim || score < best_score ||
              (score == best_score && qid < victim)) {
            best_score = score;
            victim = qid;
          }
          break;
        }
        case CachePolicy::kNone:
          if (!have_victim || qid < victim) victim = qid;
          break;
      }
      have_victim = true;
    }
  }
  return victim;
}

double ZoomInCache::RcoScore(const Entry& e, double max_cost, size_t max_size) const {
  // Recency in (0, 1]: 1 for the most recent reference.
  double age =
      static_cast<double>(tick_.load(std::memory_order_relaxed) - e.last_ref);
  double recency = 1.0 / (1.0 + age);
  double complexity = e.cost / max_cost;
  double overhead = static_cast<double>(e.size) / static_cast<double>(max_size);
  return weights_.recency * recency + weights_.complexity * complexity -
         weights_.overhead * overhead;
}

}  // namespace insightnotes::core
