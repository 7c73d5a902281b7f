#include "core/rco_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace insightnotes::core {
namespace {

/// A snapshot of roughly `bytes` serialized size.
ResultSnapshot SnapshotOfSize(size_t bytes) {
  ResultSnapshot snapshot;
  snapshot.column_names = {"pad"};
  RowSnapshot row;
  row.tuple = rel::Tuple({rel::Value(std::string(bytes, 'x'))});
  snapshot.rows.push_back(std::move(row));
  return snapshot;
}

/// The cache record of `snapshot`: its serialized bytes.
std::string Record(const ResultSnapshot& snapshot) {
  std::string bytes;
  snapshot.Serialize(&bytes);
  return bytes;
}

TEST(ZoomInCacheTest, PutGetRoundTrip) {
  ZoomInCache cache(CachePolicy::kLru, 1 << 20);
  ASSERT_TRUE(cache.Init().ok());
  ResultSnapshot snapshot;
  snapshot.column_names = {"r.a", "r.b"};
  RowSnapshot row;
  row.tuple = rel::Tuple({rel::Value(static_cast<int64_t>(1))});
  SummarySnapshot s;
  s.instance = "ClassBird1";
  s.rendered = "[(Behavior, 2)]";
  s.components.push_back(ComponentSnapshot{"Behavior", {10, 20}});
  row.summaries.push_back(s);
  snapshot.rows.push_back(std::move(row));

  ASSERT_TRUE(cache.Put(7, Record(snapshot), 0.5).ok());
  auto back = cache.Get(7);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->column_names, snapshot.column_names);
  ASSERT_EQ(back->rows.size(), 1u);
  ASSERT_EQ(back->rows[0].summaries.size(), 1u);
  EXPECT_EQ(back->rows[0].summaries[0].rendered, "[(Behavior, 2)]");
  EXPECT_EQ(back->rows[0].summaries[0].components[0].ids,
            (std::vector<ann::AnnotationId>{10, 20}));
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ZoomInCacheTest, MissCounts) {
  ZoomInCache cache(CachePolicy::kLru, 1 << 20);
  ASSERT_TRUE(cache.Init().ok());
  EXPECT_TRUE(cache.Get(1).status().IsNotFound());
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ZoomInCacheTest, NonePolicyRejectsEverything) {
  ZoomInCache cache(CachePolicy::kNone, 1 << 20);
  ASSERT_TRUE(cache.Init().ok());
  ASSERT_TRUE(cache.Put(1, Record(SnapshotOfSize(100)), 1.0).ok());
  EXPECT_TRUE(cache.Get(1).status().IsNotFound());
  EXPECT_EQ(cache.stats().rejected, 1u);
  EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(ZoomInCacheTest, OversizeSnapshotRejected) {
  ZoomInCache cache(CachePolicy::kLru, 512);
  ASSERT_TRUE(cache.Init().ok());
  ASSERT_TRUE(cache.Put(1, Record(SnapshotOfSize(4096)), 1.0).ok());
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_EQ(cache.stats().rejected, 1u);
}

TEST(ZoomInCacheTest, LruEvictsOldest) {
  // Budget fits ~2 entries of ~400B.
  ZoomInCache cache(CachePolicy::kLru, 800);
  ASSERT_TRUE(cache.Init().ok());
  ASSERT_TRUE(cache.Put(1, Record(SnapshotOfSize(300)), 1.0).ok());
  ASSERT_TRUE(cache.Put(2, Record(SnapshotOfSize(300)), 1.0).ok());
  ASSERT_TRUE(cache.Get(1).ok());  // Touch 1 so 2 is LRU.
  ASSERT_TRUE(cache.Put(3, Record(SnapshotOfSize(300)), 1.0).ok());
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ZoomInCacheTest, LfuEvictsLeastFrequent) {
  ZoomInCache cache(CachePolicy::kLfu, 800);
  ASSERT_TRUE(cache.Init().ok());
  ASSERT_TRUE(cache.Put(1, Record(SnapshotOfSize(300)), 1.0).ok());
  ASSERT_TRUE(cache.Put(2, Record(SnapshotOfSize(300)), 1.0).ok());
  ASSERT_TRUE(cache.Get(1).ok());
  ASSERT_TRUE(cache.Get(1).ok());  // qid 1 referenced more.
  ASSERT_TRUE(cache.Put(3, Record(SnapshotOfSize(300)), 1.0).ok());
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
}

TEST(ZoomInCacheTest, RcoKeepsExpensiveResults) {
  // Two cold entries, same size and recency: RCO must evict the cheap one.
  ZoomInCache cache(CachePolicy::kRco, 800);
  ASSERT_TRUE(cache.Init().ok());
  ASSERT_TRUE(cache.Put(1, Record(SnapshotOfSize(300)), /*cost=*/10.0).ok());  // Expensive.
  ASSERT_TRUE(cache.Put(2, Record(SnapshotOfSize(300)), /*cost=*/0.01).ok());  // Cheap.
  ASSERT_TRUE(cache.Put(3, Record(SnapshotOfSize(300)), /*cost=*/5.0).ok());
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
}

TEST(ZoomInCacheTest, RcoPenalizesLargeResults) {
  RcoWeights weights;
  weights.recency = 0.0;  // Isolate the overhead factor.
  weights.complexity = 0.0;
  weights.overhead = 1.0;
  ZoomInCache cache(CachePolicy::kRco, 1000, "", weights);
  ASSERT_TRUE(cache.Init().ok());
  ASSERT_TRUE(cache.Put(1, Record(SnapshotOfSize(500)), 1.0).ok());  // Large.
  ASSERT_TRUE(cache.Put(2, Record(SnapshotOfSize(100)), 1.0).ok());  // Small.
  ASSERT_TRUE(cache.Put(3, Record(SnapshotOfSize(400)), 1.0).ok());
  EXPECT_FALSE(cache.Contains(1));  // The big entry went first.
  EXPECT_TRUE(cache.Contains(2));
}

TEST(ZoomInCacheTest, ReplacingSameQidUpdates) {
  ZoomInCache cache(CachePolicy::kLru, 1 << 20);
  ASSERT_TRUE(cache.Init().ok());
  ASSERT_TRUE(cache.Put(1, Record(SnapshotOfSize(100)), 1.0).ok());
  size_t used_before = cache.stats().bytes_used;
  ASSERT_TRUE(cache.Put(1, Record(SnapshotOfSize(200)), 1.0).ok());
  EXPECT_GT(cache.stats().bytes_used, used_before);
  auto back = cache.Get(1);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->rows[0].tuple.ValueAt(0).AsString().size(), 200u);
}

TEST(ZoomInCacheTest, FileBackedCache) {
  std::string path = ::testing::TempDir() + "/insightnotes_cache_test.db";
  {
    ZoomInCache cache(CachePolicy::kRco, 1 << 20, path);
    ASSERT_TRUE(cache.Init().ok());
    ASSERT_TRUE(cache.Put(1, Record(SnapshotOfSize(5000)), 1.0).ok());
    auto back = cache.Get(1);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->rows[0].tuple.ValueAt(0).AsString().size(), 5000u);
  }
  // Destructor removed the backing file.
  FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_EQ(f, nullptr);
  if (f != nullptr) std::fclose(f);
}

TEST(ZoomInCacheTest, HeapReadFailureCountsMissNotHit) {
  // A torn backing record must surface as a miss: no hit is counted and the
  // snapshot is not returned. (Previously the hit was counted and recency
  // bumped before the heap read, so a failed read still looked like a hit.)
  ZoomInCache cache(CachePolicy::kLru, 1 << 20);
  ASSERT_TRUE(cache.Init().ok());
  ASSERT_TRUE(cache.Put(1, Record(SnapshotOfSize(100)), 1.0).ok());
  ASSERT_TRUE(cache.CorruptBackingRecordForTest(1).ok());
  auto back = cache.Get(1);
  EXPECT_FALSE(back.ok());
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  // The directory entry survives; only the backing read failed.
  EXPECT_TRUE(cache.Contains(1));
}

TEST(ZoomInCacheTest, FailedReplacementKeepsOldSnapshotReadable) {
  // Replacing qid 1 with a bigger snapshot needs an eviction; the only
  // victim candidate (qid 2, since the replaced entry is pinned) has a torn
  // backing record, so eviction — and with it the replacement — fails.
  // The old snapshot of qid 1 must remain readable. (Previously Put erased
  // the old entry before MakeRoom, losing it on a failed replacement.)
  ZoomInCache cache(CachePolicy::kLru, 800);
  ASSERT_TRUE(cache.Init().ok());
  ASSERT_TRUE(cache.Put(1, Record(SnapshotOfSize(300)), 1.0).ok());
  ASSERT_TRUE(cache.Put(2, Record(SnapshotOfSize(300)), 1.0).ok());
  ASSERT_TRUE(cache.CorruptBackingRecordForTest(2).ok());

  uint64_t rejected_before = cache.stats().rejected;
  ASSERT_TRUE(cache.Put(1, Record(SnapshotOfSize(600)), 1.0).ok());
  EXPECT_EQ(cache.stats().rejected, rejected_before + 1);

  auto back = cache.Get(1);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->rows[0].tuple.ValueAt(0).AsString().size(), 300u);
}

TEST(ZoomInCacheTest, OversizedReplacementKeepsOldEntry) {
  ZoomInCache cache(CachePolicy::kLru, 512);
  ASSERT_TRUE(cache.Init().ok());
  ASSERT_TRUE(cache.Put(1, Record(SnapshotOfSize(100)), 1.0).ok());
  // Larger than the whole budget: rejected, old snapshot untouched.
  ASSERT_TRUE(cache.Put(1, Record(SnapshotOfSize(4096)), 1.0).ok());
  EXPECT_EQ(cache.stats().rejected, 1u);
  auto back = cache.Get(1);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->rows[0].tuple.ValueAt(0).AsString().size(), 100u);
}

TEST(ZoomInCacheTest, ReplacementNeverEvictsItself) {
  // The entry being replaced is pinned: growing it within budget must not
  // pick it as its own victim even when it is the eviction-policy favorite.
  ZoomInCache cache(CachePolicy::kLru, 800);
  ASSERT_TRUE(cache.Init().ok());
  ASSERT_TRUE(cache.Put(1, Record(SnapshotOfSize(300)), 1.0).ok());  // LRU favorite.
  ASSERT_TRUE(cache.Put(2, Record(SnapshotOfSize(300)), 1.0).ok());
  ASSERT_TRUE(cache.Put(1, Record(SnapshotOfSize(600)), 1.0).ok());  // Needs room.
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));  // 2 evicted, not the pinned 1.
  auto back = cache.Get(1);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->rows[0].tuple.ValueAt(0).AsString().size(), 600u);
}

/// Brute-force reference model of the cache's bookkeeping: same tick,
/// recency/frequency and RCO-score semantics, victim picked by exhaustive
/// scan. Drives an eviction-heavy random workload and cross-checks contents
/// and stats after every operation.
class CacheOracle {
 public:
  CacheOracle(CachePolicy policy, size_t budget, RcoWeights weights)
      : policy_(policy), budget_(budget), weights_(weights) {}

  void Put(QueryId qid, size_t bytes, double cost) {
    if (bytes > budget_) {
      ++stats_.rejected;
      return;
    }
    auto existing = entries_.find(qid);
    size_t reclaimable = existing != entries_.end() ? existing->second.size : 0;
    bool pinned = existing != entries_.end();
    while (stats_.bytes_used - reclaimable + bytes > budget_) {
      if (entries_.size() <= (pinned ? 1u : 0u)) {
        ++stats_.rejected;
        return;
      }
      QueryId victim = PickVictim(pinned ? &qid : nullptr);
      stats_.bytes_used -= entries_[victim].size;
      entries_.erase(victim);
      ++stats_.evictions;
    }
    if (existing != entries_.end()) {
      stats_.bytes_used -= existing->second.size;
      entries_.erase(existing);
    }
    Entry e;
    e.size = bytes;
    e.cost = cost;
    e.last_ref = ++tick_;
    e.ref_count = 1;
    entries_[qid] = e;
    stats_.bytes_used += bytes;
    ++stats_.insertions;
  }

  void Get(QueryId qid) {
    auto it = entries_.find(qid);
    if (it == entries_.end()) {
      ++stats_.misses;
      return;
    }
    ++stats_.hits;
    it->second.last_ref = ++tick_;
    ++it->second.ref_count;
  }

  bool Contains(QueryId qid) const { return entries_.contains(qid); }
  const CacheStats& stats() const { return stats_; }

 private:
  struct Entry {
    size_t size = 0;
    double cost = 0.0;
    uint64_t last_ref = 0;
    uint64_t ref_count = 0;
  };

  QueryId PickVictim(const QueryId* exclude) const {
    double max_cost = 1e-9;
    size_t max_size = 1;
    for (const auto& [qid, e] : entries_) {
      max_cost = std::max(max_cost, e.cost);
      max_size = std::max(max_size, e.size);
    }
    bool have = false;
    QueryId victim = 0;
    uint64_t best_tick = 0;
    double best_score = 0.0;
    for (const auto& [qid, e] : entries_) {
      if (exclude != nullptr && qid == *exclude) continue;
      double score = 0.0;
      uint64_t key = 0;
      switch (policy_) {
        case CachePolicy::kLru:
          key = e.last_ref;
          if (!have || key < best_tick) { best_tick = key; victim = qid; }
          break;
        case CachePolicy::kLfu:
          key = e.ref_count;
          if (!have || key < best_tick) { best_tick = key; victim = qid; }
          break;
        case CachePolicy::kRco: {
          double age = static_cast<double>(tick_ - e.last_ref);
          double recency = 1.0 / (1.0 + age);
          double complexity = e.cost / max_cost;
          double overhead =
              static_cast<double>(e.size) / static_cast<double>(max_size);
          score = weights_.recency * recency + weights_.complexity * complexity -
                  weights_.overhead * overhead;
          if (!have || score < best_score) { best_score = score; victim = qid; }
          break;
        }
        case CachePolicy::kNone:
          if (!have) victim = qid;
          break;
      }
      have = true;
    }
    return victim;
  }

  CachePolicy policy_;
  size_t budget_;
  RcoWeights weights_;
  std::map<QueryId, Entry> entries_;
  uint64_t tick_ = 0;
  CacheStats stats_;
};

TEST(ZoomInCacheTest, EvictionHeavyRunMatchesBruteForceOracle) {
  for (CachePolicy policy :
       {CachePolicy::kLru, CachePolicy::kLfu, CachePolicy::kRco}) {
    RcoWeights weights;  // Defaults, as the cache uses them.
    const size_t kBudget = 1500;
    ZoomInCache cache(policy, kBudget, "", weights);
    ASSERT_TRUE(cache.Init().ok());
    CacheOracle oracle(policy, kBudget, weights);

    uint64_t rng = 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(policy);
    auto next = [&rng]() {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return rng;
    };
    constexpr QueryId kQids = 12;
    for (int op = 0; op < 400; ++op) {
      QueryId qid = next() % kQids;
      if (next() % 4 == 0) {
        (void)cache.Get(qid);
        oracle.Get(qid);
      } else {
        size_t payload = 100 + next() % 500;
        double cost = 0.01 * static_cast<double>(1 + next() % 1000);
        ResultSnapshot snapshot = SnapshotOfSize(payload);
        std::string bytes;
        snapshot.Serialize(&bytes);
        ASSERT_TRUE(cache.Put(qid, bytes, cost).ok());
        oracle.Put(qid, bytes.size(), cost);
      }
      for (QueryId q = 0; q < kQids; ++q) {
        ASSERT_EQ(cache.Contains(q), oracle.Contains(q))
            << "policy=" << CachePolicyToString(policy) << " op=" << op
            << " qid=" << q;
      }
      ASSERT_EQ(cache.stats().hits, oracle.stats().hits) << "op=" << op;
      ASSERT_EQ(cache.stats().misses, oracle.stats().misses) << "op=" << op;
      ASSERT_EQ(cache.stats().evictions, oracle.stats().evictions)
          << "policy=" << CachePolicyToString(policy) << " op=" << op;
      ASSERT_EQ(cache.stats().insertions, oracle.stats().insertions)
          << "op=" << op;
      ASSERT_EQ(cache.stats().rejected, oracle.stats().rejected) << "op=" << op;
      ASSERT_EQ(cache.stats().bytes_used, oracle.stats().bytes_used)
          << "op=" << op;
    }
  }
}

TEST(SnapshotTest, SerializationRoundTripsEmpty) {
  ResultSnapshot empty;
  std::string bytes;
  empty.Serialize(&bytes);
  auto back = ResultSnapshot::Deserialize(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->rows.empty());
  EXPECT_TRUE(back->column_names.empty());
}

TEST(SnapshotTest, DeserializeRejectsTruncation) {
  ResultSnapshot snapshot = SnapshotOfSize(100);
  std::string bytes;
  snapshot.Serialize(&bytes);
  for (size_t cut : {bytes.size() - 1, bytes.size() / 2, size_t{3}}) {
    auto back = ResultSnapshot::Deserialize(std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(back.ok()) << "cut=" << cut;
  }
}

// Counter conservation under the sharded-lock path: counters are atomics
// bumped from many threads, and every operation lands in exactly one
// bucket, so the totals must reconcile exactly after the threads join.
TEST(ZoomInCacheTest, ConcurrentCountersConserve) {
  ZoomInCache cache(CachePolicy::kLru, 1 << 20);  // Roomy: no evictions.
  ASSERT_TRUE(cache.Init().ok());
  constexpr int kThreads = 8;
  constexpr int kQidsPerThread = 16;
  constexpr int kGetsPerQid = 4;
  const size_t entry_payload = 64;

  std::string serialized;
  SnapshotOfSize(entry_payload).Serialize(&serialized);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Disjoint qid ranges spread across every shard (qid % kThreads == t).
      for (int i = 0; i < kQidsPerThread; ++i) {
        QueryId qid = static_cast<QueryId>(t + i * kThreads);
        // Miss first, then insert, then hit.
        EXPECT_TRUE(cache.Get(qid).status().IsNotFound());
        EXPECT_TRUE(cache.Put(qid, Record(SnapshotOfSize(entry_payload)), 1.0).ok());
        for (int g = 0; g < kGetsPerQid; ++g) {
          EXPECT_TRUE(cache.Get(qid).ok());
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  CacheStats stats = cache.stats();
  constexpr uint64_t kEntries = kThreads * kQidsPerThread;
  EXPECT_EQ(stats.insertions, kEntries);
  EXPECT_EQ(stats.hits, kEntries * kGetsPerQid);
  EXPECT_EQ(stats.misses, kEntries);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.bytes_used, kEntries * serialized.size());
  for (QueryId qid = 0; qid < kEntries; ++qid) {
    EXPECT_TRUE(cache.Contains(qid)) << qid;
  }
}

// Conservation with evictions: insertions == evictions + live entries,
// and bytes_used equals the live entries' total serialized size.
TEST(ZoomInCacheTest, ConcurrentEvictionConservation) {
  std::string serialized;
  SnapshotOfSize(64).Serialize(&serialized);
  // Budget fits ~20 entries, so concurrent inserts of 128 distinct qids
  // must evict; the directory totals still have to reconcile.
  ZoomInCache cache(CachePolicy::kLru, serialized.size() * 20);
  ASSERT_TRUE(cache.Init().ok());
  constexpr int kThreads = 8;
  constexpr int kQidsPerThread = 16;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kQidsPerThread; ++i) {
        QueryId qid = static_cast<QueryId>(t + i * kThreads);
        EXPECT_TRUE(cache.Put(qid, Record(SnapshotOfSize(64)), 1.0).ok());
        (void)cache.Get(qid);  // May hit or miss (already evicted).
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  CacheStats stats = cache.stats();
  uint64_t live = 0;
  for (QueryId qid = 0; qid < kThreads * kQidsPerThread; ++qid) {
    if (cache.Contains(qid)) ++live;
  }
  EXPECT_EQ(stats.insertions, static_cast<uint64_t>(kThreads * kQidsPerThread));
  EXPECT_EQ(stats.insertions, stats.evictions + live);
  EXPECT_EQ(stats.bytes_used, live * serialized.size());
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads * kQidsPerThread));
}

}  // namespace
}  // namespace insightnotes::core
