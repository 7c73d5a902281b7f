// The zoom-in result cache (Section 2.2): recent query-result snapshots
// compete for a limited disk-backed budget. Eviction is governed by the
// paper's RCO policy — Recency, Complexity (cost to recompute the result),
// Overhead (result size) — with LRU and LFU available as ablation baselines
// and kNone disabling caching entirely.
//
// Thread-safe: the directory is sharded by QID, each shard behind its own
// mutex, so concurrent sessions probing distinct results do not serialize
// on one lock. Get takes only its shard's mutex (and holds it across the
// backing heap read, so an eviction can never delete the record mid-read);
// Put / eviction need the global directory view and take every shard mutex
// in ascending index order. Statistics are atomic counters read without any
// lock via the by-value stats() snapshot.

#ifndef INSIGHTNOTES_CORE_RCO_CACHE_H_
#define INSIGHTNOTES_CORE_RCO_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/result.h"
#include "core/zoom_in.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"

namespace insightnotes::core {

enum class CachePolicy : uint8_t { kNone = 0, kLru = 1, kLfu = 2, kRco = 3 };

std::string_view CachePolicyToString(CachePolicy policy);

/// Point-in-time snapshot of the cache's atomic counters. Consistent per
/// counter (each is a single atomic load), not across counters — two
/// counters may straddle a concurrent operation.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t rejected = 0;  // Entries larger than the whole budget.
  size_t bytes_used = 0;
};

/// Weights of the RCO score. score(e) = wr*recency(e) + wc*complexity(e)
/// - wo*overhead(e); the entry with the lowest score is evicted first.
struct RcoWeights {
  double recency = 1.0;
  double complexity = 1.0;
  double overhead = 0.5;
};

class ZoomInCache {
 public:
  /// `budget_bytes` caps the sum of serialized snapshot sizes. `path` backs
  /// the cache file ("" = in-memory backing, still exercising the same
  /// page/heap path).
  ZoomInCache(CachePolicy policy, size_t budget_bytes, const std::string& path = "",
              RcoWeights weights = {});
  ~ZoomInCache();

  ZoomInCache(const ZoomInCache&) = delete;
  ZoomInCache& operator=(const ZoomInCache&) = delete;

  Status Init();

  /// Admits `record`, the ResultSnapshot::Serialize bytes of the result of
  /// `qid`, with recompute cost `cost_seconds`. Records that cannot fit
  /// even an empty cache are rejected (counted in stats().rejected); under
  /// kNone everything is rejected. Replacing an existing qid is atomic from
  /// the reader's perspective: the old snapshot stays readable until the
  /// replacement has fully succeeded, and a failed or rejected replacement
  /// keeps it.
  Status Put(QueryId qid, std::string_view record, double cost_seconds);

  /// The admission rule Put applies: true iff a record of `record_bytes`
  /// could be admitted (the policy caches at all and the record fits the
  /// whole budget). Callers that know a lower bound of a record's size ask
  /// before encoding it.
  bool Admits(size_t record_bytes) const {
    return policy_ != CachePolicy::kNone && record_bytes <= budget_;
  }

  /// Counts a result rejected before it was encoded (Admits was false for
  /// a lower bound of its size, or its encoding passed the budget), exactly
  /// as Put counts a rejected record.
  void Reject() { rejected_.fetch_add(1, std::memory_order_relaxed); }

  /// Fetches the snapshot for `qid`, bumping its recency/frequency. NotFound
  /// on miss (evicted, rejected or never inserted). A QID names one result
  /// computed at one epoch, so the QID alone is the key. Hit/recency
  /// accounting happens only once the snapshot has actually been read
  /// back: a failed backing read counts as a miss and leaves the entry's
  /// metadata alone.
  Result<ResultSnapshot> Get(QueryId qid);

  /// Test-only fault injection: tombstones the backing heap record of `qid`
  /// while keeping its directory entry, simulating a torn cache file. Later
  /// reads of (and evictions targeting) the entry fail at the heap layer.
  Status CorruptBackingRecordForTest(QueryId qid);

  bool Contains(QueryId qid) const;

  CacheStats stats() const;
  /// Pages of the backing file (tombstoned records' overflow pages are
  /// reused, so this plateaus under a steady stream of Puts).
  uint32_t backing_pages() const { return disk_.num_pages(); }
  CachePolicy policy() const { return policy_; }
  size_t budget_bytes() const { return budget_; }

 private:
  static constexpr size_t kNumShards = 8;

  struct Entry {
    storage::RecordId record;
    size_t size = 0;
    double cost = 0.0;
    uint64_t last_ref = 0;  // Logical tick.
    uint64_t ref_count = 0;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::map<QueryId, Entry> entries;
  };

  static size_t ShardOf(QueryId qid) { return qid % kNumShards; }

  /// Acquires every shard mutex in ascending index order (the global lock
  /// order; Get holds a single shard mutex and never a second one).
  std::array<std::unique_lock<std::mutex>, kNumShards> LockAll() const;

  /// Evicts entries until `needed` bytes fit, where `reclaimable` bytes of
  /// the current usage will be freed by the caller on success (the entry
  /// being replaced) and `exclude`, when non-null, must never be picked as
  /// a victim. Returns false if impossible. All shard mutexes held.
  bool MakeRoom(size_t needed, size_t reclaimable = 0, const QueryId* exclude = nullptr);
  /// Picks the eviction victim under the configured policy, skipping
  /// `exclude`. Must not be called when no candidate exists. All shard
  /// mutexes held.
  QueryId PickVictim(const QueryId* exclude) const;
  /// RCO score against pre-computed normalization maxima (hoisted out of
  /// the candidate loop: one pre-pass per eviction, not one per candidate).
  double RcoScore(const Entry& e, double max_cost, size_t max_size) const;

  size_t NumEntriesLocked() const;

  CachePolicy policy_;
  size_t budget_;
  RcoWeights weights_;
  std::string path_;
  storage::DiskManager disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<storage::HeapFile> heap_;
  std::array<Shard, kNumShards> shards_;
  std::atomic<uint64_t> tick_{0};
  // Atomic so stats() never takes a lock and concurrent bumps cannot be
  // lost (the pre-sharding counters were plain uint64_t).
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<size_t> bytes_used_{0};
};

}  // namespace insightnotes::core

#endif  // INSIGHTNOTES_CORE_RCO_CACHE_H_
