// SegmentedWal unit tests: rotation + manifest bookkeeping, liveness
// accounting, incremental compaction (rewrite and fully-dead erase),
// legacy single-file migration, orphan cleanup, and a crash-point sweep
// that kills the log at every scripted op of its fault schedule and
// checks the surviving files still replay to a consistent history.

#include "storage/wal_segments.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "storage/wal.h"

namespace insightnotes::storage {
namespace {

namespace fs = std::filesystem;

class WalSegmentsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = ::testing::TempDir() + "/inwal_seg_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".wal";
    RemoveAll();
  }
  void TearDown() override { RemoveAll(); }

  void RemoveAll() {
    std::error_code ec;
    fs::path dir = fs::path(base_).parent_path();
    const std::string stem = fs::path(base_).filename().string();
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
      if (it->path().filename().string().rfind(stem, 0) == 0) {
        std::error_code remove_ec;
        fs::remove(it->path(), remove_ec);
      }
    }
  }

  static SegmentedWal::Options SmallSegments() {
    SegmentedWal::Options options;
    options.segment_bytes = 128;  // ~3 records of 40 payload bytes each.
    return options;
  }

  /// 40-byte unique payload; size chosen so 3 records cross the 128-byte
  /// rotation threshold.
  static std::string Payload(size_t i) {
    std::string p = "crash-sweep-record-" + std::to_string(i) + "-";
    p.resize(40, 'x');
    return p;
  }

  /// Replays every segment the manifest lists, in order.
  std::vector<std::string> ReplayAll() {
    auto manifest = SegmentedWal::LoadForReplay(base_);
    EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
    std::vector<std::string> replayed;
    if (!manifest.ok()) return replayed;
    for (const SegmentedWal::SegmentRef& ref : manifest->segments) {
      auto stats = WriteAheadLog::Replay(ref.path, [&](std::string_view payload) {
        replayed.emplace_back(payload);
        return Status::OK();
      });
      EXPECT_TRUE(stats.ok()) << ref.path << ": " << stats.status().ToString();
    }
    return replayed;
  }

  std::string base_;
};

TEST_F(WalSegmentsTest, AppendRotateAndReplayPreserveOrder) {
  std::vector<std::string> appended;
  {
    SegmentedWal wal;
    ASSERT_TRUE(wal.Open(base_, /*truncate=*/true, UINT64_MAX, 0, SmallSegments()).ok());
    for (size_t i = 0; i < 12; ++i) {
      auto pos = wal.Append(Payload(i));
      ASSERT_TRUE(pos.ok());
      ASSERT_TRUE(wal.Sync().ok());
      appended.push_back(Payload(i));
      ASSERT_TRUE(wal.MaybeRotate().ok());
    }
    EXPECT_GE(wal.num_segments(), 3u) << "rotation never fired";
    EXPECT_EQ(wal.num_appended(), 12u);
    ASSERT_TRUE(wal.Close().ok());
  }
  EXPECT_EQ(ReplayAll(), appended);
}

TEST_F(WalSegmentsTest, ReopenResumesTheActiveSegment) {
  {
    SegmentedWal wal;
    ASSERT_TRUE(wal.Open(base_, /*truncate=*/true, UINT64_MAX, 0, SmallSegments()).ok());
    ASSERT_TRUE(wal.Append(Payload(0)).ok());
    ASSERT_TRUE(wal.Append(Payload(1)).ok());
    ASSERT_TRUE(wal.Sync().ok());
  }
  {
    SegmentedWal wal;
    // active_records seeds positions: the next record is index 2.
    ASSERT_TRUE(wal.Open(base_, /*truncate=*/false, UINT64_MAX, /*active_records=*/2,
                         SmallSegments())
                    .ok());
    auto pos = wal.Append(Payload(2));
    ASSERT_TRUE(pos.ok());
    EXPECT_EQ(pos->record_index, 2u);
    ASSERT_TRUE(wal.Sync().ok());
  }
  EXPECT_EQ(ReplayAll(), (std::vector<std::string>{Payload(0), Payload(1), Payload(2)}));
}

TEST_F(WalSegmentsTest, TruncateToRollsBackUnacknowledgedRecords) {
  SegmentedWal wal;
  ASSERT_TRUE(wal.Open(base_, /*truncate=*/true, UINT64_MAX, 0, SmallSegments()).ok());
  ASSERT_TRUE(wal.Append(Payload(0)).ok());
  ASSERT_TRUE(wal.Sync().ok());
  auto mark = wal.MarkPos();
  ASSERT_TRUE(mark.ok());
  ASSERT_TRUE(wal.Append(Payload(1)).ok());
  ASSERT_TRUE(wal.Append(Payload(2)).ok());
  ASSERT_TRUE(wal.TruncateTo(*mark).ok());
  // The rolled-back positions are reused by the next append.
  auto pos = wal.Append(Payload(3));
  ASSERT_TRUE(pos.ok());
  EXPECT_EQ(pos->record_index, 1u);
  ASSERT_TRUE(wal.Sync().ok());
  ASSERT_TRUE(wal.Close().ok());
  EXPECT_EQ(ReplayAll(), (std::vector<std::string>{Payload(0), Payload(3)}));
}

TEST_F(WalSegmentsTest, CompactOnceRewritesOnlyLiveRecords) {
  SegmentedWal wal;
  ASSERT_TRUE(wal.Open(base_, /*truncate=*/true, UINT64_MAX, 0, SmallSegments()).ok());
  std::vector<WalRecordPos> positions;
  for (size_t i = 0; i < 12; ++i) {
    auto pos = wal.Append(Payload(i));
    ASSERT_TRUE(pos.ok());
    positions.push_back(*pos);
    ASSERT_TRUE(wal.Sync().ok());
    ASSERT_TRUE(wal.MaybeRotate().ok());
  }
  // Records 1 and 2 share sealed segment 1 with live record 0.
  wal.MarkDead(positions[1]);
  wal.MarkDead(positions[2]);
  auto result = wal.CompactOnce();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->compacted);
  EXPECT_EQ(result->live_records, 1u);
  EXPECT_EQ(result->dead_records, 2u);
  EXPECT_NE(result->new_segment_id, 0u);
  // The retired file is gone; the replacement holds the live record.
  EXPECT_FALSE(fs::exists(SegmentedWal::SegmentPathFor(base_, result->segment_id)));
  EXPECT_TRUE(fs::exists(SegmentedWal::SegmentPathFor(base_, result->new_segment_id)));
  // No further candidate passes the threshold.
  auto again = wal.CompactOnce();
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->compacted);
  ASSERT_TRUE(wal.Close().ok());

  std::vector<std::string> expected;
  for (size_t i = 0; i < 12; ++i) {
    if (i != 1 && i != 2) expected.push_back(Payload(i));
  }
  EXPECT_EQ(ReplayAll(), expected);
}

TEST_F(WalSegmentsTest, FullyDeadSegmentIsErasedWithoutReplacement) {
  SegmentedWal wal;
  ASSERT_TRUE(wal.Open(base_, /*truncate=*/true, UINT64_MAX, 0, SmallSegments()).ok());
  std::vector<WalRecordPos> positions;
  for (size_t i = 0; i < 6; ++i) {
    auto pos = wal.Append(Payload(i));
    ASSERT_TRUE(pos.ok());
    positions.push_back(*pos);
    ASSERT_TRUE(wal.Sync().ok());
    ASSERT_TRUE(wal.MaybeRotate().ok());
  }
  const size_t segments_before = wal.num_segments();
  // All of sealed segment 1 dies.
  for (size_t i = 0; i < 3; ++i) wal.MarkDead(positions[i]);
  auto result = wal.CompactOnce();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->compacted);
  EXPECT_EQ(result->live_records, 0u);
  EXPECT_EQ(result->new_segment_id, 0u);  // Erased, not replaced.
  EXPECT_EQ(wal.num_segments(), segments_before - 1);
  EXPECT_FALSE(fs::exists(SegmentedWal::SegmentPathFor(base_, result->segment_id)));
  ASSERT_TRUE(wal.Close().ok());
  EXPECT_EQ(ReplayAll(), (std::vector<std::string>{Payload(3), Payload(4), Payload(5)}));
}

TEST_F(WalSegmentsTest, BelowThresholdSegmentIsLeftAlone) {
  SegmentedWal::Options options = SmallSegments();
  options.segment_bytes = 512;  // ~10 records per segment.
  SegmentedWal wal;
  ASSERT_TRUE(wal.Open(base_, /*truncate=*/true, UINT64_MAX, 0, options).ok());
  std::vector<WalRecordPos> positions;
  for (size_t i = 0; i < 20; ++i) {
    auto pos = wal.Append(Payload(i));
    ASSERT_TRUE(pos.ok());
    positions.push_back(*pos);
    ASSERT_TRUE(wal.Sync().ok());
    ASSERT_TRUE(wal.MaybeRotate().ok());
  }
  ASSERT_GE(wal.num_segments(), 2u);
  // One dead record out of ~10 stays under the 0.25 ratio.
  wal.MarkDead(positions[1]);
  auto result = wal.CompactOnce();
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->compacted);
}

TEST_F(WalSegmentsTest, LegacySingleFileLogIsMigratedToSegmentOne) {
  {
    WriteAheadLog legacy;
    ASSERT_TRUE(legacy.Open(base_, /*truncate=*/true).ok());
    for (size_t i = 0; i < 3; ++i) ASSERT_TRUE(legacy.Append(Payload(i)).ok());
    ASSERT_TRUE(legacy.Sync().ok());
    ASSERT_TRUE(legacy.Close().ok());
  }
  auto manifest = SegmentedWal::LoadForReplay(base_);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_EQ(manifest->segments.size(), 1u);
  EXPECT_EQ(manifest->segments[0].id, 1u);
  EXPECT_EQ(manifest->next_segment_id, 2u);
  EXPECT_FALSE(fs::exists(base_)) << "legacy file must be renamed, not copied";
  EXPECT_TRUE(fs::exists(SegmentedWal::SegmentPathFor(base_, 1)));
  EXPECT_TRUE(fs::exists(SegmentedWal::ManifestPathFor(base_)));
  EXPECT_EQ(ReplayAll(), (std::vector<std::string>{Payload(0), Payload(1), Payload(2)}));
}

TEST_F(WalSegmentsTest, OrphanedSegmentFilesAreRemovedAtLoad) {
  {
    SegmentedWal wal;
    ASSERT_TRUE(wal.Open(base_, /*truncate=*/true, UINT64_MAX, 0, SmallSegments()).ok());
    ASSERT_TRUE(wal.Append(Payload(0)).ok());
    ASSERT_TRUE(wal.Sync().ok());
  }
  // A segment file the manifest never committed (crash mid-rotation).
  const std::string orphan = SegmentedWal::SegmentPathFor(base_, 99);
  {
    WriteAheadLog stray;
    ASSERT_TRUE(stray.Open(orphan, /*truncate=*/true).ok());
    ASSERT_TRUE(stray.Close().ok());
  }
  // And a half-written manifest swap.
  { std::ofstream(SegmentedWal::ManifestPathFor(base_) + ".tmp") << "junk"; }
  auto manifest = SegmentedWal::LoadForReplay(base_);
  ASSERT_TRUE(manifest.ok());
  EXPECT_FALSE(fs::exists(orphan));
  EXPECT_FALSE(fs::exists(SegmentedWal::ManifestPathFor(base_) + ".tmp"));
  EXPECT_EQ(ReplayAll(), (std::vector<std::string>{Payload(0)}));
}

// The crash sweep: one deterministic workload — fresh open, 12 appends
// with rotation, a liveness pattern that makes segment 2 fully dead and
// segments 1 and 3 two-thirds dead, then compaction drained to a
// fixpoint — is killed at every scripted fault-op index in turn. After
// each kill the surviving files must load and replay to a consistent
// history: a subsequence of the acknowledged records that still contains
// every live one.
TEST_F(WalSegmentsTest, CrashSweepAtEveryScriptedOp) {
  struct WorkloadRun {
    std::vector<std::string> acked;  // Payloads acknowledged, in order.
    std::set<std::string> dead;      // Subset marked superseded.
  };
  auto run_workload = [&](SegmentedWal::FaultHook hook) {
    WorkloadRun out;
    SegmentedWal wal;
    wal.SetFaultHook(std::move(hook));  // Before Open: its manifest write is scripted too.
    if (!wal.Open(base_, /*truncate=*/true, UINT64_MAX, 0, SmallSegments()).ok()) {
      return out;
    }
    std::vector<WalRecordPos> positions;
    std::vector<size_t> acked_index;
    for (size_t i = 0; i < 12; ++i) {
      auto pos = wal.Append(Payload(i));
      if (pos.ok() && wal.Sync().ok()) {
        out.acked.push_back(Payload(i));
        positions.push_back(*pos);
        acked_index.push_back(i);
      }
      wal.MaybeRotate().ok();  // Fails after the kill fires; expected.
    }
    // Records 1,2 (segment 1), 3,4,5 (all of segment 2) and 7,8 (segment 3)
    // die; 0, 6 and 9..11 stay live.
    for (size_t j = 0; j < positions.size(); ++j) {
      const size_t i = acked_index[j];
      if (i >= 1 && i <= 5) {
        wal.MarkDead(positions[j]);
        out.dead.insert(Payload(i));
      } else if (i == 7 || i == 8) {
        wal.MarkDead(positions[j]);
        out.dead.insert(Payload(i));
      }
    }
    // Drain compaction to a fixpoint, like the engine's background pass.
    while (true) {
      auto result = wal.CompactOnce();
      if (!result.ok() || !result->compacted) break;
    }
    wal.Close().ok();
    return out;
  };

  // Probe: record the full op schedule with a hook that never fails.
  RemoveAll();
  std::vector<std::string> op_names;
  WorkloadRun probe = run_workload([&op_names](const char* op) {
    op_names.emplace_back(op);
    return Status::OK();
  });
  ASSERT_EQ(probe.acked.size(), 12u);
  auto seen = [&](const char* name) {
    return std::find(op_names.begin(), op_names.end(), name) != op_names.end();
  };
  for (const char* required :
       {"rotate_sync", "rotate_create", "rotate_seg_fsync", "rotate_dir_fsync",
        "manifest_temp", "manifest_fsync", "manifest_rename", "manifest_dir_fsync",
        "compact_read", "compact_create", "compact_write", "compact_fsync",
        "compact_dir_fsync", "retire_remove", "retire_dir_fsync"}) {
    EXPECT_TRUE(seen(required)) << "op '" << required << "' never fired";
  }
  // The probe run itself must have compacted everything marked dead.
  {
    std::vector<std::string> replayed = ReplayAll();
    std::vector<std::string> expected;
    for (const std::string& p : probe.acked) {
      if (probe.dead.find(p) == probe.dead.end()) expected.push_back(p);
    }
    EXPECT_EQ(replayed, expected);
  }

  for (size_t kill = 0; kill < op_names.size(); ++kill) {
    SCOPED_TRACE("kill at scripted op " + std::to_string(kill) + " (" +
                 op_names[kill] + ")");
    RemoveAll();
    size_t fired = 0;
    WorkloadRun run = run_workload([&fired, kill](const char* op) -> Status {
      if (fired++ == kill) {
        return Status::IoError(std::string("simulated crash at ") + op);
      }
      return Status::OK();
    });

    std::vector<std::string> replayed = ReplayAll();
    // (a) No invention, duplication or reordering: the surviving history is
    // a subsequence of the acknowledged one.
    size_t cursor = 0;
    for (const std::string& payload : replayed) {
      while (cursor < run.acked.size() && run.acked[cursor] != payload) ++cursor;
      ASSERT_LT(cursor, run.acked.size())
          << "replayed record out of order or never acknowledged: " << payload;
      ++cursor;
    }
    // (b) No acknowledged live record may be lost, whatever the crash point.
    std::set<std::string> survived(replayed.begin(), replayed.end());
    for (const std::string& payload : run.acked) {
      if (run.dead.find(payload) == run.dead.end()) {
        EXPECT_TRUE(survived.count(payload) > 0)
            << "live acknowledged record lost: " << payload;
      }
    }
  }
}

}  // namespace
}  // namespace insightnotes::storage
