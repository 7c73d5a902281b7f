// WAL replay over the segmented log. Recovery runs in three phases:
//
//   1. Decode. Every segment file is read and decoded independently, one
//      task per segment on the replay thread pool. A torn tail is only legal in the last — active —
//      segment; sealed segments were fsynced before the manifest sealed
//      them, so a short one is Corruption.
//   2. Verify & partition (serial). The decoded records are walked in log
//      order: checkpoint markers are checked arithmetically (the add
//      records before a marker must number exactly what it asserts), add
//      ids are checked dense, the liveness tracker observes every record,
//      and a union-find over chain keys (annotation id, (table, row))
//      partitions the mutation records into chains. Two records that touch
//      the same annotation or the same row always land in the same chain,
//      so records in different chains commute (see ann::ChainKeyOf).
//   3. Apply. Each chain is one task on the same pool, replaying its
//      records in log order through the store's recovery surface
//      (BeginParallelRecovery, Recover*, EndParallelRecovery). The chain
//      partition and the resulting logical store state are the same at
//      every thread count (heap-file placement of bodies may differ, which
//      nothing observes).

#ifndef INSIGHTNOTES_CORE_RECOVERY_H_
#define INSIGHTNOTES_CORE_RECOVERY_H_

#include <cstdint>

#include "annotation/annotation_store.h"
#include "annotation/wal_records.h"
#include "common/result.h"
#include "storage/wal_segments.h"

namespace insightnotes::core {

struct WalReplayOptions {
  /// Replay pool workers (0 = one per hardware thread).
  size_t threads = 0;
};

/// What ReplaySegmentedWal did, including what the engine needs to reopen
/// the log (active-segment cut point) and to report recovery.
struct WalReplayStats {
  uint64_t mutation_records = 0;   // Add/attach/archive records applied.
  uint64_t checkpoints = 0;        // Markers seen (and verified).
  uint64_t records_since_checkpoint = 0;  // Mutations after the last marker.
  uint64_t active_valid_bytes = UINT64_MAX;  // keep_bytes for the active segment.
  uint64_t active_truncated_bytes = 0;       // Torn tail cut off the active segment.
  uint64_t active_records = 0;     // Record count of the active segment.
  uint64_t chains = 0;             // Independent replay chains.
  size_t threads_used = 1;
  // Persistent-index records (markers, not mutations): create intents are
  // counted but ignored — only a committed index checkpoint makes an index
  // real — and the *last* index checkpoint wins wholesale (it snapshots
  // every index root plus the shared allocator state).
  uint64_t index_creates = 0;
  uint64_t index_checkpoints = 0;
  bool has_index_checkpoint = false;
  ann::WalIndexCheckpointRecord latest_index_checkpoint;
};

/// Rebuilds `store` (which must be empty) from the segments listed by
/// `manifest` (see storage::SegmentedWal::LoadForReplay). When `tracker`
/// is non-null it observes every record in log order, reporting superseded
/// positions through its sink — the engine forwards them to the reopened
/// log's per-segment liveness accounting. On any error the store is left
/// half-built; the caller discards it (Engine::Init restores the parked
/// page file and fails).
Result<WalReplayStats> ReplaySegmentedWal(
    const storage::SegmentedWal::Manifest& manifest, ann::AnnotationStore* store,
    ann::WalLivenessTracker* tracker, const WalReplayOptions& options = {});

}  // namespace insightnotes::core

#endif  // INSIGHTNOTES_CORE_RECOVERY_H_
