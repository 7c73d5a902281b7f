// SegmentedWal: the write-ahead log split into fixed-size segment files
// (`<base>.000001`, `<base>.000002`, …) listed by a manifest (`<base>.manifest`).
// Appends go to the last listed segment (the *active* one); MaybeRotate
// seals it and opens a fresh segment once it crosses the size threshold.
//
// Each record has a position (segment id, index within the segment). The
// caller marks positions *dead* as newer mutations supersede them (see
// ann::WalLivenessTracker); CompactOnce picks the sealed segment with the
// highest dead fraction and rewrites only its live records into a fresh
// segment that takes the retired segment's place in the manifest — replay
// order is preserved minus the proven-dead records. Compaction runs on a
// background thread while the owner keeps appending to the active segment:
// the two touch disjoint files, and the shared metadata (segment list,
// dead sets, manifest writes) is guarded by an internal mutex.
//
// Durability of every swap follows the temp+fsync+rename protocol plus a
// parent-directory fsync: a new segment file is synced (file, then
// directory) before the manifest references it, and the manifest itself is
// replaced via `<base>.manifest.tmp` → fsync → rename → directory fsync.
// A crash between any two steps leaves either the old manifest (new file
// is an unreferenced orphan, removed at the next open) or the new one
// (retired file is the orphan) — never a state replay cannot read.
//
// Individual segment files use the WriteAheadLog frame format; torn tails
// are only legal in the active segment (sealed segments were fsynced
// before the manifest sealed them).

#ifndef INSIGHTNOTES_STORAGE_WAL_SEGMENTS_H_
#define INSIGHTNOTES_STORAGE_WAL_SEGMENTS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/wal.h"

namespace insightnotes::storage {

/// Position of one record in the segmented log.
struct WalRecordPos {
  uint64_t segment_id = 0;
  uint32_t record_index = 0;  // 0-based, in segment append order.
};

class SegmentedWal {
 public:
  struct Options {
    /// MaybeRotate seals the active segment once it holds at least this
    /// many bytes.
    uint64_t segment_bytes = 1 << 20;
  };

  /// One segment as listed by the manifest, in replay order.
  struct SegmentRef {
    uint64_t id = 0;
    std::string path;
    uint64_t records = 0;  // Sealed record count; 0 for the active segment.
  };

  /// Manifest snapshot returned by LoadForReplay.
  struct Manifest {
    uint64_t next_segment_id = 1;
    std::vector<SegmentRef> segments;  // Replay order; back() is active.
  };

  /// Rollback mark captured before an append (see TruncateTo).
  struct Mark {
    uint64_t offset = 0;    // Byte offset in the active segment.
    uint64_t records = 0;   // Record count of the active segment.
  };

  struct SegmentStats {
    uint64_t id = 0;
    uint64_t records = 0;
    uint64_t dead = 0;
    bool active = false;
  };

  struct CompactionResult {
    bool compacted = false;       // False: no candidate passed the threshold.
    uint64_t segment_id = 0;      // Retired segment.
    uint64_t new_segment_id = 0;  // Replacement; 0 when fully dead (no file).
    uint64_t live_records = 0;    // Records rewritten into the replacement.
    uint64_t dead_records = 0;    // Records eliminated.
  };

  SegmentedWal() = default;
  ~SegmentedWal();

  SegmentedWal(const SegmentedWal&) = delete;
  SegmentedWal& operator=(const SegmentedWal&) = delete;

  /// Reads the manifest for `base` and returns the segments to replay in
  /// order. Prepares the directory for recovery: a legacy single-file log
  /// at `base` is migrated to segment 1 + a manifest; unreferenced segment
  /// files and stale temp files (crash leftovers) are removed. An empty
  /// directory yields an empty segment list.
  static Result<Manifest> LoadForReplay(const std::string& base);

  /// Opens the segmented log rooted at `base`. With `truncate` any existing
  /// segments are deleted and a fresh segment 1 is created. Otherwise the
  /// manifest's last segment becomes the active one, `active_keep_bytes`
  /// (from replay) cuts its torn tail, and `active_records` seeds its
  /// record count.
  Status Open(const std::string& base, bool truncate, uint64_t active_keep_bytes,
              uint64_t active_records, Options options);
  Status Open(const std::string& base, bool truncate,
              uint64_t active_keep_bytes = UINT64_MAX,
              uint64_t active_records = 0) {
    return Open(base, truncate, active_keep_bytes, active_records, Options());
  }

  /// Appends one record to the active segment and returns its position.
  /// Buffered; the record only counts as committed once Sync() returns OK.
  Result<WalRecordPos> Append(std::string_view payload);

  /// Flushes and fsyncs the active segment.
  Status Sync();

  /// Captures the active segment's append position for rollback.
  Result<Mark> MarkPos();

  /// Rolls every byte and record at or past `mark` back out of the active
  /// segment (durable, see WriteAheadLog::TruncateTo). Only valid if no
  /// rotation happened since the mark was captured — the engine rotates
  /// only between mutations, never inside one.
  Status TruncateTo(const Mark& mark);

  /// Seals the active segment and opens a fresh one when the size
  /// threshold is crossed: syncs the old segment, creates + syncs the new
  /// file (file, then directory), then swaps the manifest. No-op below the
  /// threshold.
  Status MaybeRotate();

  /// Marks one record superseded. Unknown segment ids (already retired by
  /// compaction) are ignored — stale marks only make compaction
  /// conservative, never wrong.
  void MarkDead(uint64_t segment_id, uint32_t record_index);
  void MarkDead(WalRecordPos pos) { MarkDead(pos.segment_id, pos.record_index); }

  /// One incremental compaction step, safe to call from a background
  /// thread concurrently with Append/Sync/MaybeRotate: picks the sealed
  /// segment with the highest dead fraction (at least a quarter dead),
  /// rewrites its live records into a fresh segment occupying the same
  /// manifest position, and retires the old file. Returns
  /// {compacted = false} when no segment qualifies. On failure the segment
  /// list is unchanged, so the next call retries the same candidate.
  Result<CompactionResult> CompactOnce();

  /// Test seam: invoked before each scripted step of MaybeRotate,
  /// CompactOnce and manifest swaps ("rotate_sync", "rotate_create",
  /// "rotate_seg_fsync", "rotate_dir_fsync", "compact_read",
  /// "compact_create", "compact_write" per record, "compact_fsync",
  /// "compact_dir_fsync", "manifest_temp", "manifest_fsync",
  /// "manifest_rename", "manifest_dir_fsync", "retire_remove",
  /// "retire_dir_fsync"). A non-OK return simulates a process kill at that
  /// point: on-disk state is abandoned exactly as is and the log reports
  /// failed, for the next reopen-and-replay to sort out. Install or clear
  /// the hook only while no rotation or background compaction is in
  /// flight — the hook itself is invoked without the internal lock.
  using FaultHook = std::function<Status(const char* op)>;
  void SetFaultHook(FaultHook hook);

  Status Close();

  bool is_open() const;
  /// True after a simulated crash or an unrecovered partial append.
  bool failed() const;
  /// Successful Append calls since Open.
  uint64_t num_appended() const;
  size_t num_segments() const;
  /// Live + dead record counts per segment, in manifest order.
  std::vector<SegmentStats> Segments() const;
  /// Sum of all segment file sizes plus the manifest, in bytes.
  Result<uint64_t> TotalBytes() const;
  const std::string& base_path() const { return base_; }

  /// Segment file path for `id` under `base` ("<base>.<6-digit id>").
  static std::string SegmentPathFor(const std::string& base, uint64_t id);
  static std::string ManifestPathFor(const std::string& base);

 private:
  struct Segment {
    uint64_t id = 0;
    std::string path;
    uint64_t records = 0;
    std::unordered_set<uint32_t> dead;
  };

  Status Fault(const char* op);
  /// Writes the manifest via temp+fsync+rename+dir-fsync. Caller holds
  /// `mutex_`.
  Status WriteManifestLocked();

  mutable std::mutex mutex_;
  std::string base_;
  Options options_;
  std::vector<Segment> segments_;  // Manifest order; back() is active.
  uint64_t next_segment_id_ = 1;
  std::unique_ptr<WriteAheadLog> active_;  // Open on segments_.back().path.
  uint64_t num_appended_ = 0;
  // Simulated crash: all further ops refused. Atomic because Fault() flips
  // it from both locked contexts (manifest swaps) and unlocked ones
  // (rotation / compaction file I/O), racing with locked readers.
  std::atomic<bool> crashed_{false};
  FaultHook fault_hook_;
};

}  // namespace insightnotes::storage

#endif  // INSIGHTNOTES_STORAGE_WAL_SEGMENTS_H_
