#include "core/engine.h"

#include <filesystem>
#include <map>
#include <utility>

#include "common/clock.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/recovery.h"
#include "exec/parallel.h"
#include "rel/stats.h"
#include "storage/wal.h"  // storage::FsyncDirOf

namespace insightnotes::core {

Engine::Engine(EngineOptions options) : options_(std::move(options)) {}

Engine::~Engine() {
  if (pool_ != nullptr) {
    Status s = Checkpoint();
    if (!s.ok()) {
      INSIGHTNOTES_LOG(Error) << "checkpoint on shutdown failed: " << s.ToString();
    }
  }
  StopWalCompactor();
}

namespace {

/// Where the pre-recovery page file is parked while WAL replay rebuilds a
/// fresh one (see Engine::InitStorage).
std::string ParkedPathFor(const std::string& db_path) {
  return db_path + ".recovering";
}

}  // namespace

Status Engine::Init() {
  Status status = InitStorage();
  if (!status.ok() && !parked_page_file_.empty()) {
    // Recovery failed after the old page file was parked aside. Put it
    // back: it is the only other copy of the annotation bodies, and it
    // must survive a failed recovery (e.g. a corrupt WAL) intact.
    RestoreParkedPageFile();
  }
  return status;
}

Status Engine::InitStorage() {
  StopWalCompactor();
  recovery_required_ = Status::OK();
  poisoned_.store(false, std::memory_order_release);
  disk_ = options_.disk != nullptr ? options_.disk
                                   : std::make_shared<storage::DiskManager>();
  const bool file_backed = !options_.db_path.empty();
  std::error_code ec;
  if (options_.open_existing && file_backed &&
      std::filesystem::exists(ParkedPathFor(options_.db_path), ec)) {
    // A parked page file means an earlier recovery was interrupted. The
    // parked copy is the pre-recovery original; whatever sits at db_path
    // is at best a partial rebuild. Adopt the original and recover from it
    // (the WAL, untouched by the interrupted attempt, replays either way).
    std::filesystem::remove(options_.db_path, ec);
    std::error_code rename_ec;
    std::filesystem::rename(ParkedPathFor(options_.db_path), options_.db_path,
                            rename_ec);
    if (rename_ec) {
      return Status::IoError("cannot adopt page file '" +
                             ParkedPathFor(options_.db_path) +
                             "' parked by an interrupted recovery: " +
                             rename_ec.message());
    }
    // The adoption must survive a power loss: sync the directory entry, or
    // a crash here could resurrect the parked name and re-run this branch
    // against a half-written rename.
    INSIGHTNOTES_RETURN_IF_ERROR(FsyncParentDir(options_.db_path));
  }
  const bool recover = options_.open_existing && file_backed &&
                       std::filesystem::exists(options_.db_path, ec);

  if (recover) {
    // Audit the old page file: count pages whose checksum no longer
    // verifies (torn writes from the crash). The page file is only a cache
    // of annotation bodies — the WAL is the source of truth — so it is
    // rebuilt by replay; but it is parked aside, not destroyed, until
    // replay has actually succeeded.
    INSIGHTNOTES_RETURN_IF_ERROR(
        disk_->Open(options_.db_path, storage::DiskOpenMode::kOpenExisting));
    recovery_.performed = true;
    recovery_.pages_scanned = disk_->num_pages();
    auto page = std::make_unique<char[]>(storage::kPageSize);
    for (storage::PageId id = 0; id < recovery_.pages_scanned; ++id) {
      Status read = storage::RetryIo(options_.io_retry,
                                     [&] { return disk_->ReadPage(id, page.get()); });
      if (read.IsCorruption()) {
        ++recovery_.corrupt_pages;
        INSIGHTNOTES_LOG(Warning) << "recovery: " << read.ToString();
      } else if (!read.ok()) {
        return read;
      }
    }
    INSIGHTNOTES_RETURN_IF_ERROR(disk_->Close());
    std::error_code rename_ec;
    std::filesystem::rename(options_.db_path, ParkedPathFor(options_.db_path),
                            rename_ec);
    if (rename_ec) {
      return Status::IoError("cannot park page file '" + options_.db_path +
                             "' for recovery: " + rename_ec.message());
    }
    // Record the park before syncing it: if the directory fsync fails, the
    // rename already happened, and Init() must rename the file back rather
    // than strand it at the parked name.
    parked_page_file_ = ParkedPathFor(options_.db_path);
    // Durable park: a crash mid-recovery must find the parked name on
    // disk, or the interrupted-recovery adoption above cannot fire.
    INSIGHTNOTES_RETURN_IF_ERROR(FsyncParentDir(options_.db_path));
  }
  INSIGHTNOTES_RETURN_IF_ERROR(
      disk_->Open(options_.db_path, storage::DiskOpenMode::kTruncate));

  pool_ = std::make_unique<storage::BufferPool>(disk_.get(), options_.buffer_pool_pages,
                                                options_.io_retry);
  catalog_ = std::make_unique<rel::Catalog>(pool_.get());
  store_ = std::make_unique<ann::AnnotationStore>(pool_.get());
  manager_ = std::make_unique<SummaryManager>(store_.get());
  cache_ = std::make_unique<ZoomInCache>(options_.cache_policy,
                                         options_.cache_budget_bytes,
                                         options_.cache_path, options_.rco_weights);
  INSIGHTNOTES_RETURN_IF_ERROR(cache_->Init());

  bool adopt_index_checkpoint = false;
  ann::WalIndexCheckpointRecord index_checkpoint;
  if (file_backed) {
    const std::string wal_path = options_.db_path + ".wal";
    uint64_t keep_bytes = UINT64_MAX;
    uint64_t active_records = 0;
    // Replay observes records before the log is reopened, so dead
    // positions are parked here and forwarded once it is.
    std::vector<storage::WalRecordPos> replay_dead;
    tracker_ = ann::WalLivenessTracker();
    if (recover) {
      INSIGHTNOTES_ASSIGN_OR_RETURN(storage::SegmentedWal::Manifest manifest,
                                    storage::SegmentedWal::LoadForReplay(wal_path));
      tracker_.set_on_dead([&replay_dead](uint64_t segment_id, uint32_t record_index) {
        replay_dead.push_back({segment_id, record_index});
      });
      WalReplayOptions replay_options;
      replay_options.threads = options_.recovery_threads;
      INSIGHTNOTES_ASSIGN_OR_RETURN(
          WalReplayStats replayed,
          ReplaySegmentedWal(manifest, store_.get(), &tracker_, replay_options));
      recovery_.wal_records_replayed = replayed.mutation_records;
      recovery_.wal_bytes_truncated = replayed.active_truncated_bytes;
      recovery_.checkpoints_replayed = replayed.checkpoints;
      recovery_.records_since_checkpoint = replayed.records_since_checkpoint;
      recovery_.replay_chains = replayed.chains;
      recovery_.replay_threads = replayed.threads_used;
      keep_bytes = replayed.active_valid_bytes;
      active_records = replayed.active_records;
      recovery_.index_checkpoints_replayed = replayed.index_checkpoints;
      adopt_index_checkpoint = replayed.has_index_checkpoint;
      index_checkpoint = std::move(replayed.latest_index_checkpoint);
      if (replayed.active_truncated_bytes > 0) {
        INSIGHTNOTES_LOG(Warning)
            << "recovery: dropped " << replayed.active_truncated_bytes
            << " torn-tail byte(s) from the active segment of '" << wal_path << "'";
      }
    }
    wal_ = std::make_unique<storage::SegmentedWal>();
    storage::SegmentedWal::Options wal_options;
    wal_options.segment_bytes = options_.wal_segment_bytes;
    wal_options.compact_min_dead_ratio = options_.wal_compact_min_dead_ratio;
    INSIGHTNOTES_RETURN_IF_ERROR(wal_->Open(wal_path, /*truncate=*/!recover,
                                            keep_bytes, active_records, wal_options));
    // From here on superseded records feed the live log's per-segment
    // accounting directly; first flush what replay collected.
    tracker_.set_on_dead([this](uint64_t segment_id, uint32_t record_index) {
      if (wal_ != nullptr) wal_->MarkDead(segment_id, record_index);
    });
    for (const storage::WalRecordPos& pos : replay_dead) wal_->MarkDead(pos);
  }
  if (!parked_page_file_.empty()) {
    // Replay succeeded; the parked pre-recovery page file is obsolete.
    std::filesystem::remove(parked_page_file_, ec);
    if (ec) {
      INSIGHTNOTES_LOG(Warning) << "cannot remove parked page file '"
                                << parked_page_file_ << "': " << ec.message();
    } else {
      Status synced = FsyncParentDir(options_.db_path);
      if (!synced.ok()) {
        INSIGHTNOTES_LOG(Warning) << "cannot sync unlink of parked page file: "
                                  << synced.ToString();
      }
    }
    parked_page_file_.clear();
  }
  INSIGHTNOTES_RETURN_IF_ERROR(
      InitIndexStorage(adopt_index_checkpoint, index_checkpoint));
  {
    // First epoch: recovered row states (attachments only — summary links
    // are configuration, re-established after Init).
    std::lock_guard<std::mutex> writer(writer_mutex_);
    PublishFull();
  }
  return Status::OK();
}

Status Engine::InitIndexStorage(bool adopt,
                                const ann::WalIndexCheckpointRecord& checkpoint) {
  index_store_.reset();
  index_pool_.reset();
  pending_indexes_.clear();
  index_disk_ = options_.index_disk != nullptr
                    ? options_.index_disk
                    : std::make_shared<storage::DiskManager>();
  const std::string idx_path =
      options_.db_path.empty() ? "" : options_.db_path + ".idx";
  // Sanity-check the checkpoint against itself before trusting it; a record
  // that fails here (or an index file shorter than its page count) means
  // the idx file and the log disagree — drop the indexes rather than the
  // open. Queries fall back to scans and CREATE INDEX can be re-run.
  auto checkpoint_valid = [&checkpoint]() {
    for (storage::PageId id : checkpoint.free_pages) {
      if (id >= checkpoint.page_count) return false;
    }
    for (const ann::WalIndexCheckpointEntry& e : checkpoint.indexes) {
      if (e.root != storage::kInvalidPageId && e.root >= checkpoint.page_count) {
        return false;
      }
    }
    return true;
  };
  bool adopted = false;
  if (adopt && !idx_path.empty()) {
    std::error_code ec;
    if (!checkpoint_valid()) {
      INSIGHTNOTES_LOG(Warning)
          << "index checkpoint is self-inconsistent; dropping persistent "
             "indexes (re-run CREATE INDEX)";
    } else if (!std::filesystem::exists(idx_path, ec)) {
      INSIGHTNOTES_LOG(Warning)
          << "index file '" << idx_path
          << "' is missing; dropping persistent indexes (re-run CREATE INDEX)";
    } else {
      Status opened =
          index_disk_->Open(idx_path, storage::DiskOpenMode::kOpenExisting);
      if (!opened.ok()) return opened;
      if (index_disk_->num_pages() < checkpoint.page_count) {
        INSIGHTNOTES_LOG(Warning)
            << "index file '" << idx_path << "' holds "
            << index_disk_->num_pages() << " page(s), checkpoint expects "
            << checkpoint.page_count
            << "; dropping persistent indexes (re-run CREATE INDEX)";
        INSIGHTNOTES_RETURN_IF_ERROR(index_disk_->Close());
        INSIGHTNOTES_RETURN_IF_ERROR(
            index_disk_->Open(idx_path, storage::DiskOpenMode::kTruncate));
      } else {
        adopted = true;
      }
    }
  }
  if (!adopted) {
    if (!index_disk_->is_open()) {
      INSIGHTNOTES_RETURN_IF_ERROR(
          index_disk_->Open(idx_path, storage::DiskOpenMode::kTruncate));
    }
  }
  const size_t frames = options_.index_pool_pages != 0
                            ? options_.index_pool_pages
                            : options_.buffer_pool_pages;
  index_pool_ = std::make_unique<storage::BufferPool>(index_disk_.get(), frames,
                                                      options_.io_retry);
  rel::BTreeStoreMeta store_meta;
  if (adopted) {
    store_meta.page_count = checkpoint.page_count;
    store_meta.next_stamp = checkpoint.next_stamp;
    store_meta.free_pages.assign(checkpoint.free_pages.begin(),
                                 checkpoint.free_pages.end());
    for (const ann::WalIndexCheckpointEntry& e : checkpoint.indexes) {
      rel::BTreeMeta meta;
      meta.root = e.root;
      meta.height = e.height;
      meta.entries = e.entries;
      meta.covered_rows = e.covered_rows;
      pending_indexes_[e.table][static_cast<size_t>(e.column)] = meta;
      ++recovery_.indexes_recovered;
    }
  }
  index_store_ = std::make_unique<rel::BTreeStore>(
      index_pool_.get(), std::move(store_meta), options_.index_max_node_entries);
  return Status::OK();
}

Status Engine::FsyncParentDir(const std::string& path) {
  const std::string dir = std::filesystem::path(path).parent_path().string();
  if (disk_ != nullptr) return disk_->FsyncDir(dir.empty() ? "." : dir);
  return storage::FsyncDir(dir.empty() ? "." : dir);
}

void Engine::RestoreParkedPageFile() {
  // Tear down in reverse construction order: catalog/store/manager hold
  // raw pointers into the pool, the pool into the disk.
  cache_.reset();
  manager_.reset();
  store_.reset();
  catalog_.reset();  // Tables' B+-trees die before the index store/pool.
  index_store_.reset();
  index_pool_.reset();
  if (index_disk_ != nullptr && index_disk_->is_open()) {
    Status closed = index_disk_->Close();
    if (!closed.ok()) {
      INSIGHTNOTES_LOG(Error) << "closing index file after failed recovery: "
                              << closed.ToString();
    }
  }
  pool_.reset();
  wal_.reset();
  if (disk_ != nullptr && disk_->is_open()) {
    Status closed = disk_->Close();
    if (!closed.ok()) {
      INSIGHTNOTES_LOG(Error) << "closing page file after failed recovery: "
                              << closed.ToString();
    }
  }
  std::error_code ec;
  std::filesystem::remove(options_.db_path, ec);  // The partial rebuild.
  std::error_code rename_ec;
  std::filesystem::rename(parked_page_file_, options_.db_path, rename_ec);
  if (rename_ec) {
    // The original survives at the parked path; the next open_existing
    // Init adopts it from there.
    INSIGHTNOTES_LOG(Error) << "cannot restore parked page file '"
                            << parked_page_file_
                            << "' after failed recovery: " << rename_ec.message();
  } else {
    Status synced = FsyncParentDir(options_.db_path);
    if (!synced.ok()) {
      INSIGHTNOTES_LOG(Warning) << "cannot sync restore of parked page file: "
                                << synced.ToString();
    }
    parked_page_file_.clear();
  }
}

Status Engine::LogWalEntry(const ann::WalEntry& entry) {
  if (wal_ == nullptr) return Status::OK();
  INSIGHTNOTES_ASSIGN_OR_RETURN(storage::WalRecordPos pos,
                                wal_->Append(ann::EncodeWalEntry(entry)));
  INSIGHTNOTES_RETURN_IF_ERROR(wal_->Sync());
  // Only acknowledged records count for liveness: a record rewound by
  // RewindWal must never have marked an earlier one dead.
  tracker_.Observe(entry, pos.segment_id, pos.record_index);
  return Status::OK();
}

Status Engine::MaybeRotateWal() {
  if (wal_ == nullptr) return Status::OK();
  return wal_->MaybeRotate();
}

Status Engine::CheckMutable() const {
  if (recovery_required_.ok()) return Status::OK();
  return Status::Internal(
      "engine requires recovery (reopen with open_existing to replay the "
      "WAL); mutations refused after: " +
      recovery_required_.ToString());
}

void Engine::MarkRecoveryRequired(const Status& cause) {
  if (recovery_required_.ok()) recovery_required_ = cause;
  // New snapshot pins are refused from here on; already-pinned readers
  // drain against their (pre-failure) epoch undisturbed.
  poisoned_.store(true, std::memory_order_release);
  INSIGHTNOTES_LOG(Error)
      << "a WAL-committed record failed to apply; engine requires recovery: "
      << cause.ToString();
}

Result<ReadSnapshot> Engine::PinSnapshot() const {
  if (poisoned_.load(std::memory_order_acquire)) {
    return Status::Internal(
        "engine requires recovery: new snapshots are refused (pinned "
        "readers may finish)");
  }
  std::shared_ptr<const EngineSnapshot> snap =
      published_.load(std::memory_order_acquire);
  if (snap == nullptr) {
    return Status::Internal("no published snapshot (engine not initialized)");
  }
  return snap;
}

uint64_t Engine::CurrentEpoch() const {
  std::shared_ptr<const EngineSnapshot> snap =
      published_.load(std::memory_order_acquire);
  return snap == nullptr ? 0 : snap->epoch();
}

std::unordered_map<rel::TableId, rel::RowId> Engine::CurrentBounds() const {
  std::unordered_map<rel::TableId, rel::RowId> bounds;
  if (catalog_ == nullptr) return bounds;
  for (const std::string& name : catalog_->TableNames()) {
    Result<rel::Table*> table = catalog_->GetTable(name);
    if (table.ok()) bounds[(*table)->id()] = (*table)->RowBound();
  }
  return bounds;
}

// Writer mutex held: epoch_counter_ and the load/build/store sequence are
// single-writer; readers only ever acquire-load published_.
void Engine::PublishFull() {
  EngineSnapshot::Sources src{store_.get(), manager_.get()};
  published_.store(EngineSnapshot::BuildFull(src, CurrentBounds(), ++epoch_counter_,
                                             epochs_retired_),
                   std::memory_order_release);
}

void Engine::PublishDelta(const std::vector<EngineSnapshot::RowKey>& dirty,
                          const std::vector<ann::AnnotationId>& newly_archived) {
  std::shared_ptr<const EngineSnapshot> prev =
      published_.load(std::memory_order_acquire);
  if (prev == nullptr) {
    PublishFull();
    return;
  }
  EngineSnapshot::Sources src{store_.get(), manager_.get()};
  published_.store(EngineSnapshot::BuildDelta(*prev, src, dirty, newly_archived,
                                              CurrentBounds(), ++epoch_counter_,
                                              epochs_retired_),
                   std::memory_order_release);
}

Result<storage::SegmentedWal::Mark> Engine::WalMark() {
  if (wal_ == nullptr) return storage::SegmentedWal::Mark{};
  return wal_->MarkPos();
}

void Engine::RewindWal(const storage::SegmentedWal::Mark& mark) {
  if (wal_ == nullptr) return;
  Status s = wal_->TruncateTo(mark);
  if (!s.ok()) {
    // The WAL is now failed and refuses appends, so the stray record can
    // never be followed by one that collides with its id at replay.
    INSIGHTNOTES_LOG(Error) << "WAL rewind failed: " << s.ToString();
  }
}

Status Engine::Checkpoint() {
  // Serialized with the other mutators: the durability point must not
  // interleave with a half-applied mutation. No epoch is published — a
  // checkpoint changes nothing readers can see.
  std::lock_guard<std::mutex> writer(writer_mutex_);
  Status first_error = Status::OK();
  auto keep_first = [&first_error](Status s) {
    if (first_error.ok() && !s.ok()) first_error = std::move(s);
  };
  if (pool_ != nullptr) keep_first(pool_->FlushAll());
  if (disk_ != nullptr && disk_->is_open()) keep_first(disk_->Fsync());
  if (wal_ != nullptr && wal_->is_open()) keep_first(wal_->Sync());
  // Commit the persistent indexes first: a failed index flush must
  // suppress the annotation checkpoint marker below too, or replay could
  // pair a new annotation count with a stale index epoch.
  if (first_error.ok() && recovery_required_.ok()) {
    keep_first(CommitIndexCheckpoint());
  }
  // Mark the durability point in the log. Skipped when the flush failed or
  // the engine is in the recovery-required state (the store would disagree
  // with the log). The marker supersedes the previous one (the liveness
  // tracker reports it dead), and with compaction enabled a background
  // pass is scheduled to retire mostly-dead sealed segments — Checkpoint
  // itself never blocks on the rewrite.
  if (first_error.ok() && recovery_required_.ok() && wal_ != nullptr &&
      wal_->is_open()) {
    keep_first(MaybeRotateWal());
    keep_first(LogWalEntry(ann::WalCheckpointRecord{store_->NumAnnotations()}));
    if (options_.compact_wal_on_checkpoint) ScheduleWalCompaction();
  }
  return first_error;
}

Status Engine::CommitIndexCheckpoint() {
  if (index_store_ == nullptr) return Status::OK();
  ann::WalIndexCheckpointRecord record;
  for (const std::string& name : catalog_->TableNames()) {
    Result<rel::Table*> table = catalog_->GetTable(name);
    if (!table.ok()) continue;
    for (const rel::PersistentIndexInfo& info : (*table)->PersistentIndexes()) {
      if (!info.usable) {
        // A broken tree may be half-mutated; committing its root would make
        // the damage durable. Keep the previous committed checkpoint live
        // instead — replay heals the index on reopen.
        INSIGHTNOTES_LOG(Warning)
            << "skipping index checkpoint: index on '" << name << "' column "
            << info.column << " is broken";
        return Status::OK();
      }
      ann::WalIndexCheckpointEntry entry;
      entry.table = name;
      entry.column = info.column;
      entry.root = info.meta.root;
      entry.height = info.meta.height;
      entry.entries = info.meta.entries;
      entry.covered_rows = info.meta.covered_rows;
      record.indexes.push_back(std::move(entry));
    }
  }
  // Indexes whose tables were never re-created this run are still live on
  // disk; carry them forward or the new checkpoint would silently drop them.
  for (const auto& [name, columns] : pending_indexes_) {
    for (const auto& [column, meta] : columns) {
      ann::WalIndexCheckpointEntry entry;
      entry.table = name;
      entry.column = column;
      entry.root = meta.root;
      entry.height = meta.height;
      entry.entries = meta.entries;
      entry.covered_rows = meta.covered_rows;
      record.indexes.push_back(std::move(entry));
    }
  }
  rel::BTreeStoreMeta meta = index_store_->CommitMeta();
  if (record.indexes.empty() && meta.page_count == 0) {
    return Status::OK();  // Nothing persistent yet; keep the WAL quiet.
  }
  record.page_count = meta.page_count;
  record.next_stamp = meta.next_stamp;
  record.free_pages.assign(meta.free_pages.begin(), meta.free_pages.end());
  INSIGHTNOTES_RETURN_IF_ERROR(index_pool_->FlushAll());
  if (index_disk_ != nullptr && index_disk_->is_open()) {
    INSIGHTNOTES_RETURN_IF_ERROR(index_disk_->Fsync());
  }
  if (!options_.db_path.empty()) {
    // The first commit also has to make the file's directory entry
    // durable, or a crash could adopt a checkpoint whose file vanished.
    INSIGHTNOTES_RETURN_IF_ERROR(FsyncParentDir(options_.db_path + ".idx"));
  }
  INSIGHTNOTES_RETURN_IF_ERROR(LogWalEntry(record));
  index_store_->CommitEpoch();
  return Status::OK();
}

void Engine::ScheduleWalCompaction() {
  std::lock_guard<std::mutex> lock(compact_mutex_);
  ++compact_scheduled_;
  if (!wal_compactor_.joinable()) {
    compact_stop_ = false;
    wal_compactor_ = std::thread([this] { WalCompactorLoop(); });
  }
  compact_cv_.notify_all();
}

void Engine::WaitForWalCompaction() {
  std::unique_lock<std::mutex> lock(compact_mutex_);
  compact_cv_.wait(lock, [this] { return compact_completed_ >= compact_scheduled_; });
}

void Engine::StopWalCompactor() {
  {
    std::lock_guard<std::mutex> lock(compact_mutex_);
    if (!wal_compactor_.joinable()) return;
    compact_stop_ = true;
    compact_cv_.notify_all();
  }
  wal_compactor_.join();
  wal_compactor_ = std::thread();
}

void Engine::WalCompactorLoop() {
  std::unique_lock<std::mutex> lock(compact_mutex_);
  while (true) {
    compact_cv_.wait(lock, [this] {
      return compact_stop_ || compact_completed_ < compact_scheduled_;
    });
    if (compact_completed_ >= compact_scheduled_) break;  // Stop, fully drained.
    const uint64_t target = compact_scheduled_;
    lock.unlock();
    // One scheduled pass drains every qualifying segment: compacting one
    // can push another over the threshold relative to the shrunken log.
    while (wal_ != nullptr) {
      Result<storage::SegmentedWal::CompactionResult> pass = wal_->CompactOnce();
      std::lock_guard<std::mutex> stats_lock(wal_compaction_mutex_);
      if (!pass.ok()) {
        ++wal_compaction_.failures;
        INSIGHTNOTES_LOG(Warning)
            << "background WAL compaction pass failed (will retry at the "
               "next checkpoint): "
            << pass.status().ToString();
        break;
      }
      if (!pass->compacted) break;
      ++wal_compaction_.compactions;
      wal_compaction_.records_written += pass->live_records;
      wal_compaction_.records_dropped += pass->dead_records;
      ++wal_compaction_.segments_retired;
    }
    lock.lock();
    if (compact_completed_ < target) compact_completed_ = target;
    compact_cv_.notify_all();
  }
}

WalCompactionStats Engine::wal_compaction() const {
  std::lock_guard<std::mutex> lock(wal_compaction_mutex_);
  return wal_compaction_;
}

Result<size_t> Engine::RepairStaleSummaries() {
  std::lock_guard<std::mutex> writer(writer_mutex_);
  Result<size_t> repaired = manager_->RepairStale();
  // Repairs touch arbitrary rows; a full rebuild is the safe publication.
  if (repaired.ok() && *repaired > 0) PublishFull();
  return repaired;
}

Result<rel::Table*> Engine::CreateTable(const std::string& name, rel::Schema schema) {
  std::lock_guard<std::mutex> writer(writer_mutex_);
  Result<rel::Table*> table = catalog_->CreateTable(name, std::move(schema));
  if (table.ok()) {
    // Reattach committed indexes recovered for this table *before* the
    // caller re-inserts its rows: the trees' covered_rows bounds make that
    // replay a no-op against the committed contents.
    auto pending = pending_indexes_.find(name);
    if (pending != pending_indexes_.end()) {
      for (const auto& [column, meta] : pending->second) {
        if (column >= (*table)->schema().NumColumns()) {
          INSIGHTNOTES_LOG(Warning)
              << "recovered index on '" << name << "' column " << column
              << " does not fit the re-created schema; dropping it";
          std::unique_ptr<rel::BTree> orphan =
              rel::BTree::Attach(index_store_.get(), meta);
          Status freed = orphan->Discard();
          if (!freed.ok()) {
            INSIGHTNOTES_LOG(Warning) << "discarding the dropped index failed: "
                                      << freed.ToString();
          }
          continue;
        }
        (*table)->SwapIndex(column,
                            rel::BTree::Attach(index_store_.get(), meta));
      }
      pending_indexes_.erase(pending);
    }
    // Bounds-only delta: the new table starts empty but must be covered, or
    // epoch readers would fall back to live reads on it.
    PublishDelta({});
  }
  return table;
}

Result<rel::RowId> Engine::Insert(const std::string& table, rel::Tuple tuple) {
  INSIGHTNOTES_ASSIGN_OR_RETURN(rel::Table * t, catalog_->GetTable(table));
  std::lock_guard<std::mutex> writer(writer_mutex_);
  Result<rel::RowId> row = t->Insert(tuple);
  // Bounds-only delta: a fresh row has no annotations yet, so only the
  // visible-row bound moves.
  if (row.ok()) PublishDelta({});
  return row;
}

Result<uint64_t> Engine::Analyze(const std::string& table) {
  INSIGHTNOTES_ASSIGN_OR_RETURN(rel::Table * t, catalog_->GetTable(table));
  // Serialized with mutators so the scan sees a stable store. Stats are
  // advisory — no epoch is published.
  std::lock_guard<std::mutex> writer(writer_mutex_);
  const rel::Schema& schema = t->schema();
  std::vector<std::vector<rel::Value>> column_values(schema.NumColumns());
  uint64_t rows = 0;
  auto stats = std::make_shared<rel::TableStats>();
  INSIGHTNOTES_RETURN_IF_ERROR(
      t->Scan([&](rel::RowId row, const rel::Tuple& tuple) {
        ++rows;
        for (size_t c = 0; c < schema.NumColumns(); ++c) {
          column_values[c].push_back(tuple.ValueAt(c));
        }
        // Live (non-archived) annotation count of this row, for
        // SUMMARY_COUNT selectivity.
        int64_t live = 0;
        for (const ann::Attachment& attachment : store_->OnRow(t->id(), row)) {
          if (!store_->IsArchived(attachment.annotation)) ++live;
        }
        stats->ann_count_freq.emplace_back(live, 1);
        if (live > 0) {
          ++stats->annotated_rows;
          stats->total_annotations += static_cast<uint64_t>(live);
        }
        return true;
      }));
  stats->row_count = rows;
  for (std::vector<rel::Value>& values : column_values) {
    stats->columns.push_back(rel::BuildColumnStats(std::move(values)));
  }
  // Collapse the per-row (count, 1) entries into the sorted distribution.
  {
    std::map<int64_t, uint64_t> freq;
    for (const auto& [count, n] : stats->ann_count_freq) freq[count] += n;
    stats->ann_count_freq.assign(freq.begin(), freq.end());
  }
  for (const SummaryInstance* instance : manager_->LinkedTo(t->id())) {
    rel::InstanceDensity density;
    density.instance = instance->name();
    density.annotated_rows = stats->annotated_rows;
    density.total_annotations = stats->total_annotations;
    stats->instances.push_back(std::move(density));
  }
  t->SetStats(std::move(stats));
  return rows;
}

Status Engine::CreateIndex(const std::string& table, const std::string& column) {
  INSIGHTNOTES_ASSIGN_OR_RETURN(rel::Table * t, catalog_->GetTable(table));
  INSIGHTNOTES_ASSIGN_OR_RETURN(size_t position, t->schema().IndexOf(column));
  // Serialized with mutators (the build scans the heap); indexes are not
  // part of the snapshot, so no epoch is published.
  std::lock_guard<std::mutex> writer(writer_mutex_);
  INSIGHTNOTES_RETURN_IF_ERROR(CheckMutable());
  // Build a persistent B+-tree from the current heap. The writer mutex
  // keeps the unlatched scan safe: nothing can insert or delete while it
  // runs. In-memory engines get the same tree over an in-memory index file,
  // so every index exercise goes through one code path.
  INSIGHTNOTES_ASSIGN_OR_RETURN(std::unique_ptr<rel::BTree> tree,
                                rel::BTree::Create(index_store_.get()));
  Status built = Status::OK();
  Status scanned = t->Scan([&](rel::RowId row, const rel::Tuple& tuple) {
    built = tree->InsertForRow(tuple.ValueAt(position), row);
    return built.ok();
  });
  if (built.ok() && !scanned.ok()) built = scanned;
  if (!built.ok()) {
    Status freed = tree->Discard();  // Fresh pages: immediately reusable.
    if (!freed.ok()) {
      INSIGHTNOTES_LOG(Warning) << "discarding the failed index build: "
                                << freed.ToString();
    }
    return built;
  }
  tree->set_covered_rows(t->RowBound());
  // Log the intent (replay ignores it; it feeds WAL liveness), attach the
  // tree, retire the previous backing, and commit. A failed commit leaves
  // the new tree attached — its contents are correct, only un-durable; the
  // next successful checkpoint commits it.
  INSIGHTNOTES_RETURN_IF_ERROR(MaybeRotateWal());
  INSIGHTNOTES_RETURN_IF_ERROR(
      LogWalEntry(ann::WalIndexCreateRecord{table, position}));
  std::unique_ptr<rel::BTree> old = t->SwapIndex(position, std::move(tree));
  if (old != nullptr) {
    Status freed = old->Discard();  // Committed pages: reusable next epoch.
    if (!freed.ok()) {
      INSIGHTNOTES_LOG(Warning) << "discarding the replaced index failed: "
                                << freed.ToString();
    }
  }
  return CommitIndexCheckpoint();
}

Result<rel::Table*> Engine::ValidateAnnotateSpec(const AnnotateSpec& spec) {
  INSIGHTNOTES_ASSIGN_OR_RETURN(rel::Table * table, catalog_->GetTable(spec.table));
  if (!table->IsLive(spec.row)) {
    return Status::NotFound("row " + std::to_string(spec.row) + " not in table '" +
                            spec.table + "'");
  }
  for (size_t c : spec.columns) {
    if (c >= table->schema().NumColumns()) {
      return Status::OutOfRange("column position " + std::to_string(c) +
                                " outside schema of '" + spec.table + "'");
    }
  }
  return table;
}

namespace {

ann::Annotation NoteFromSpec(const AnnotateSpec& spec) {
  ann::Annotation note;
  note.kind = spec.kind;
  note.author = spec.author;
  note.timestamp = spec.timestamp;
  note.title = spec.title;
  note.body = spec.body;
  return note;
}

}  // namespace

Result<ann::AnnotationId> Engine::Annotate(const AnnotateSpec& spec) {
  std::lock_guard<std::mutex> writer(writer_mutex_);
  INSIGHTNOTES_RETURN_IF_ERROR(CheckMutable());
  INSIGHTNOTES_ASSIGN_OR_RETURN(rel::Table * table, ValidateAnnotateSpec(spec));
  ann::CellRegion region{table->id(), spec.row, spec.columns};
  ann::Annotation note = NoteFromSpec(spec);
  // Rotation happens only here, between mutations: the rollback mark below
  // must stay within the active segment for the whole mutation.
  INSIGHTNOTES_RETURN_IF_ERROR(MaybeRotateWal());
  // Write-ahead: the record is durable before the store mutates, so a crash
  // between the two replays the annotation instead of losing it.
  INSIGHTNOTES_ASSIGN_OR_RETURN(storage::SegmentedWal::Mark wal_mark, WalMark());
  Status logged = LogWalEntry(ann::WalAddRecord{store_->NumAnnotations(), note, region});
  if (!logged.ok()) {
    // Never acknowledged: cut any half-landed bytes back out so the next
    // append cannot follow a torn or unsynced frame.
    RewindWal(wal_mark);
    return logged;
  }
  Result<ann::AnnotationId> added = store_->Add(note, region);
  if (!added.ok()) {
    // The record is committed but unapplied: replay resurrects it on the
    // next open. Until then no further record may be logged — it would
    // reuse this record's dense id and make replay diverge.
    MarkRecoveryRequired(added.status());
    return added.status();
  }
  Status maintained = manager_->OnAnnotationAttached(*added, region);
  // The annotation is committed either way; the next epoch must reflect it
  // (a maintenance failure leaves the row's summaries repairable, and the
  // snapshot re-reads whatever state the manager holds).
  PublishDelta({{table->id(), spec.row}});
  INSIGHTNOTES_RETURN_IF_ERROR(maintained);
  return *added;
}

ThreadPool* Engine::EnsureIngestPool(size_t num_threads) {
  if (ingest_pool_ == nullptr || ingest_pool_->num_threads() != num_threads) {
    ingest_pool_ = std::make_unique<ThreadPool>(num_threads);
  }
  return ingest_pool_.get();
}

ThreadPool* Engine::ExecPool(size_t num_threads) {
  // Cached per size and never destroyed: a retained plan (zoom-in
  // re-execution) keeps a raw pool pointer, which must stay valid even as
  // other sessions request different parallelism degrees.
  std::lock_guard<std::mutex> lock(exec_pools_mutex_);
  std::unique_ptr<ThreadPool>& pool = exec_pools_[num_threads];
  if (pool == nullptr) pool = std::make_unique<ThreadPool>(num_threads);
  return pool.get();
}

Result<std::vector<ann::AnnotationId>> Engine::AnnotateBatch(
    std::span<const AnnotateSpec> specs, const AnnotateBatchOptions& options) {
  std::lock_guard<std::mutex> writer(writer_mutex_);
  INSIGHTNOTES_RETURN_IF_ERROR(CheckMutable());
  // Validate the whole batch up front so a malformed spec cannot leave a
  // half-ingested batch behind.
  std::vector<rel::Table*> tables;
  tables.reserve(specs.size());
  for (const AnnotateSpec& spec : specs) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(rel::Table * table, ValidateAnnotateSpec(spec));
    tables.push_back(table);
  }
  std::vector<BatchAnnotation> batch;
  batch.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    BatchAnnotation item;
    item.note = NoteFromSpec(specs[i]);
    item.region = ann::CellRegion{tables[i]->id(), specs[i].row, specs[i].columns};
    batch.push_back(std::move(item));
  }
  // Write-ahead, one sync for the whole batch: every record is durable
  // before the first store mutation, so a crash anywhere in the append loop
  // replays the full batch. Rotation happens up front — never between the
  // rollback mark and the appends it might have to undo.
  if (wal_ != nullptr) {
    INSIGHTNOTES_RETURN_IF_ERROR(MaybeRotateWal());
    ann::AnnotationId next_id = store_->NumAnnotations();
    std::vector<ann::WalEntry> entries;
    entries.reserve(batch.size());
    std::vector<storage::WalRecordPos> positions;
    positions.reserve(batch.size());
    Result<storage::SegmentedWal::Mark> batch_mark = wal_->MarkPos();
    Status logged = batch_mark.ok() ? Status::OK() : batch_mark.status();
    for (size_t i = 0; i < batch.size() && logged.ok(); ++i) {
      entries.emplace_back(
          ann::WalAddRecord{next_id + i, batch[i].note, batch[i].region});
      Result<storage::WalRecordPos> pos =
          wal_->Append(ann::EncodeWalEntry(entries.back()));
      if (!pos.ok()) {
        logged = pos.status();
        break;
      }
      positions.push_back(*pos);
    }
    if (logged.ok()) logged = wal_->Sync();
    if (!logged.ok()) {
      // No record was acknowledged and none applied; roll the whole batch
      // back out of the log.
      if (batch_mark.ok()) RewindWal(*batch_mark);
      return logged;
    }
    // The whole batch is acknowledged — now it may feed liveness.
    for (size_t i = 0; i < positions.size(); ++i) {
      tracker_.Observe(entries[i], positions[i].segment_id,
                       positions[i].record_index);
    }
  }
  // Store appends stay serial (the heap file is single-writer) and in spec
  // order, so ids come out exactly as N Annotate() calls would assign them.
  std::vector<ann::AnnotationId> ids;
  ids.reserve(specs.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    BatchAnnotation& item = batch[i];
    Result<ann::AnnotationId> added = store_->Add(item.note, item.region);
    if (!added.ok()) {
      // Records from position i on are committed but unapplied; replay
      // resurrects them, so further logging must stop (see Annotate).
      MarkRecoveryRequired(added.status());
      return added.status();
    }
    item.note.id = *added;
    ids.push_back(*added);
  }
  ThreadPool* pool =
      options.num_threads > 1 ? EnsureIngestPool(options.num_threads) : nullptr;
  Status applied = manager_->ApplyAnnotationBatch(batch, pool);
  // Publish one epoch for the whole batch — running readers keep their
  // pinned epoch, the next query sees every new annotation at once.
  std::vector<EngineSnapshot::RowKey> dirty;
  dirty.reserve(batch.size());
  for (const BatchAnnotation& item : batch) {
    dirty.emplace_back(item.region.table, item.region.row);
  }
  PublishDelta(dirty);
  INSIGHTNOTES_RETURN_IF_ERROR(applied);
  return ids;
}

Status Engine::AttachAnnotation(ann::AnnotationId id, const std::string& table,
                                rel::RowId row, std::vector<size_t> columns) {
  std::lock_guard<std::mutex> writer(writer_mutex_);
  INSIGHTNOTES_RETURN_IF_ERROR(CheckMutable());
  INSIGHTNOTES_ASSIGN_OR_RETURN(rel::Table * t, catalog_->GetTable(table));
  if (!t->IsLive(row)) {
    return Status::NotFound("row " + std::to_string(row) + " not in table '" + table +
                            "'");
  }
  if (id >= store_->NumAnnotations()) {
    return Status::NotFound("annotation " + std::to_string(id) + " does not exist");
  }
  ann::CellRegion region{t->id(), row, std::move(columns)};
  INSIGHTNOTES_RETURN_IF_ERROR(MaybeRotateWal());
  // Validation precedes the log append: a record the store would reject
  // must never reach the WAL, or replay would fail on it.
  INSIGHTNOTES_ASSIGN_OR_RETURN(storage::SegmentedWal::Mark wal_mark, WalMark());
  Status logged = LogWalEntry(ann::WalAttachRecord{id, region});
  if (!logged.ok()) {
    RewindWal(wal_mark);
    return logged;
  }
  Status applied = store_->Attach(id, region);
  if (!applied.ok()) {
    MarkRecoveryRequired(applied);
    return applied;
  }
  Status maintained = manager_->OnAnnotationAttached(id, region);
  PublishDelta({{region.table, region.row}});
  return maintained;
}

Status Engine::ArchiveAnnotation(ann::AnnotationId id) {
  std::lock_guard<std::mutex> writer(writer_mutex_);
  INSIGHTNOTES_RETURN_IF_ERROR(CheckMutable());
  INSIGHTNOTES_ASSIGN_OR_RETURN(auto regions, store_->RegionsOf(id));
  INSIGHTNOTES_RETURN_IF_ERROR(MaybeRotateWal());
  INSIGHTNOTES_ASSIGN_OR_RETURN(storage::SegmentedWal::Mark wal_mark, WalMark());
  Status logged = LogWalEntry(ann::WalArchiveRecord{id});
  if (!logged.ok()) {
    RewindWal(wal_mark);
    return logged;
  }
  Status applied = store_->Archive(id);
  if (!applied.ok()) {
    MarkRecoveryRequired(applied);
    return applied;
  }
  // Remove the archived annotation's effect from every affected row.
  Status rebuilt = Status::OK();
  for (const ann::CellRegion& region : regions) {
    rebuilt = manager_->RebuildRow(region.table, region.row);
    if (!rebuilt.ok()) break;
  }
  // The archive is committed regardless of rebuild success; the epoch must
  // carry the flipped archived bit so pinned readers elsewhere stay put and
  // new readers skip the annotation.
  std::vector<EngineSnapshot::RowKey> dirty;
  dirty.reserve(regions.size());
  for (const ann::CellRegion& region : regions) {
    dirty.emplace_back(region.table, region.row);
  }
  PublishDelta(dirty, {id});
  return rebuilt;
}

Status Engine::RegisterInstance(std::unique_ptr<SummaryInstance> instance) {
  // Registration alone changes no links or objects; no publish needed.
  std::lock_guard<std::mutex> writer(writer_mutex_);
  return manager_->RegisterInstance(std::move(instance));
}

Status Engine::LinkInstance(const std::string& instance, const std::string& table) {
  INSIGHTNOTES_ASSIGN_OR_RETURN(rel::Table * t, catalog_->GetTable(table));
  std::lock_guard<std::mutex> writer(writer_mutex_);
  Status linked = manager_->Link(instance, t->id());
  // Link re-summarizes every annotated row of the table: full rebuild.
  if (linked.ok()) PublishFull();
  return linked;
}

Status Engine::UnlinkInstance(const std::string& instance, const std::string& table) {
  INSIGHTNOTES_ASSIGN_OR_RETURN(rel::Table * t, catalog_->GetTable(table));
  std::lock_guard<std::mutex> writer(writer_mutex_);
  Status unlinked = manager_->Unlink(instance, t->id());
  if (unlinked.ok()) PublishFull();
  return unlinked;
}

Result<QueryResult> Engine::Execute(std::unique_ptr<exec::Operator> plan,
                                    std::vector<TraceEvent>* trace) {
  ExecuteOptions options;
  options.trace = trace;
  return Execute(std::move(plan), std::move(options));
}

Result<QueryResult> Engine::Execute(std::unique_ptr<exec::Operator> plan,
                                    ExecuteOptions options) {
  if (options.trace != nullptr) {
    std::vector<TraceEvent>* trace = options.trace;
    plan->SetTraceSink([trace](const std::string& op, const AnnotatedTuple& t) {
      TraceEvent event;
      event.op = op;
      event.tuple = t.tuple.ToString();
      for (const auto& s : t.summaries) {
        if (!event.summaries.empty()) event.summaries += " ";
        event.summaries += s->instance_name() + "=" + s->Render();
      }
      trace->push_back(std::move(event));
    });
  }

  // Resolve the epoch this query reads. An explicit snapshot wins; else the
  // current epoch is pinned with one acquire-load. A refused pin (storage
  // not initialized, or the recovery-required state) falls back to live
  // reads, preserving "reads still serve the pre-failure state".
  ReadSnapshot snap = options.snapshot;
  if (snap == nullptr) {
    Result<ReadSnapshot> pinned = PinSnapshot();
    if (pinned.ok()) snap = *pinned;
  }
  // The snapshot rides on the plan's query context; bare operator trees
  // (tests, benches) get a default one.
  std::shared_ptr<exec::QueryContext> context = plan->shared_query_context();
  if (context == nullptr) {
    context = std::make_shared<exec::QueryContext>();
    plan->SetQueryContext(context);
  }
  context->SetSnapshot(snap);

  Stopwatch watch;
  QueryResult result;
  result.schema = plan->OutputSchema();
  auto drain = [&]() -> Status {
    INSIGHTNOTES_RETURN_IF_ERROR(plan->Open());
    result.rows.reserve(plan->EstimatedRows());
    AnnotatedBatch batch;
    while (true) {
      INSIGHTNOTES_ASSIGN_OR_RETURN(bool more, plan->NextBatch(&batch));
      if (!more) break;
      for (AnnotatedTuple& tuple : batch.tuples) {
        result.rows.push_back(std::move(tuple));
      }
    }
    return Status::OK();
  };
  Status executed = drain();
  context->SetSnapshot(nullptr);  // The plan is fully drained or failed.
  if (!executed.ok()) {
    // A cancelled / timed-out / failed plan must not leave workers running
    // or memory reserved: Close joins the parallel section and releases
    // every operator's reservation before the plan is destroyed.
    Status closed = plan->Close();
    if (!closed.ok()) {
      INSIGHTNOTES_LOG(Warning) << "closing failed plan: " << closed.ToString();
    }
    return executed;
  }
  result.execute_seconds = watch.ElapsedSeconds();
  result.epoch = snap != nullptr ? snap->epoch() : 0;
  result.qid = options.qid != 0
                   ? options.qid
                   : next_qid_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (options.trace != nullptr) plan->SetTraceSink(nullptr);
  if (!options.retain) return result;

  // Materialize the snapshot into the zoom-in cache and retain the plan
  // (with its pinned epoch, so re-execution reproduces these bytes) for
  // cache-miss re-execution.
  auto stored = std::make_shared<StoredQuery>();
  stored->schema = result.schema;
  stored->cost = result.execute_seconds;
  stored->snapshot = snap;
  INSIGHTNOTES_ASSIGN_OR_RETURN(ResultSnapshot snapshot,
                                ResultSnapshot::Capture(result.schema, result.rows));
  INSIGHTNOTES_RETURN_IF_ERROR(cache_->Put(result.qid, snapshot,
                                           result.execute_seconds,
                                           EpochKeyOf(*stored)));
  stored->plan = std::move(plan);
  {
    std::lock_guard<std::mutex> lock(queries_mutex_);
    queries_[result.qid] = std::move(stored);
  }
  return result;
}

Result<std::unique_ptr<exec::Operator>> Engine::MakeScan(const std::string& table,
                                                         const std::string& alias,
                                                         bool with_summaries) {
  INSIGHTNOTES_ASSIGN_OR_RETURN(rel::Table * t, catalog_->GetTable(table));
  // A one-worker section over the table, run inline (no pool).
  auto source = std::make_shared<exec::ScanMorselSource>(
      t, alias.empty() ? table : alias, manager_.get(), store_.get(), with_summaries,
      exec::kDefaultBatchSize);
  std::vector<std::unique_ptr<exec::Operator>> workers;
  workers.push_back(std::make_unique<exec::MorselScanOperator>(source));
  return std::unique_ptr<exec::Operator>(std::make_unique<exec::GatherOperator>(
      std::move(workers), std::vector<std::shared_ptr<exec::SharedPlanState>>{source},
      /*pool=*/nullptr));
}

uint64_t Engine::EpochKeyOf(const StoredQuery& stored) {
  return stored.snapshot != nullptr ? stored.snapshot->epoch()
                                    : ZoomInCache::kAnyEpoch;
}

Result<ResultSnapshot> Engine::SnapshotFor(QueryId qid, bool* from_cache) {
  std::shared_ptr<StoredQuery> stored;
  {
    std::lock_guard<std::mutex> lock(queries_mutex_);
    auto it = queries_.find(qid);
    if (it != queries_.end()) stored = it->second;
  }
  const uint64_t epoch_key =
      stored != nullptr ? EpochKeyOf(*stored) : ZoomInCache::kAnyEpoch;
  auto cached = cache_->Get(qid, epoch_key);
  if (cached.ok()) {
    *from_cache = true;
    return cached;
  }
  *from_cache = false;
  if (stored == nullptr) {
    return Status::NotFound("QID " + std::to_string(qid) + " is unknown");
  }
  // Cache miss: transparently re-execute the retained plan. Operators are
  // stateful, so only one session may drive the plan at a time; the cache
  // is re-checked under the lock so a raced miss does not execute twice.
  std::lock_guard<std::mutex> exec_lock(stored->exec_mutex);
  cached = cache_->Get(qid, epoch_key);
  if (cached.ok()) {
    *from_cache = true;
    return cached;
  }
  INSIGHTNOTES_LOG(Info) << "zoom-in cache miss for QID " << qid << "; re-executing";
  std::shared_ptr<exec::QueryContext> context =
      stored->plan->shared_query_context();
  if (context == nullptr) {
    context = std::make_shared<exec::QueryContext>();
    stored->plan->SetQueryContext(context);
  }
  // Re-pin the epoch the result was first computed at: a zoom-in after
  // further ingest reproduces the original bytes.
  context->SetSnapshot(stored->snapshot);
  std::vector<AnnotatedTuple> rows;
  auto reexecute = [&]() -> Status {
    INSIGHTNOTES_RETURN_IF_ERROR(stored->plan->Open());
    rows.reserve(stored->plan->EstimatedRows());
    AnnotatedBatch batch;
    while (true) {
      INSIGHTNOTES_ASSIGN_OR_RETURN(bool more, stored->plan->NextBatch(&batch));
      if (!more) break;
      for (AnnotatedTuple& tuple : batch.tuples) {
        rows.push_back(std::move(tuple));
      }
    }
    return Status::OK();
  };
  Status executed = reexecute();
  context->SetSnapshot(nullptr);
  if (!executed.ok()) {
    Status closed = stored->plan->Close();
    if (!closed.ok()) {
      INSIGHTNOTES_LOG(Warning) << "closing failed re-execution: "
                                << closed.ToString();
    }
    return executed;
  }
  INSIGHTNOTES_ASSIGN_OR_RETURN(ResultSnapshot snapshot,
                                ResultSnapshot::Capture(stored->schema, rows));
  INSIGHTNOTES_RETURN_IF_ERROR(cache_->Put(qid, snapshot, stored->cost, epoch_key));
  return snapshot;
}

Result<rel::Schema> Engine::SchemaOf(QueryId qid) const {
  std::lock_guard<std::mutex> lock(queries_mutex_);
  auto it = queries_.find(qid);
  if (it == queries_.end()) {
    return Status::NotFound("QID " + std::to_string(qid) + " is unknown");
  }
  return it->second->schema;
}

Result<ZoomInResult> Engine::ZoomIn(const ZoomInRequest& request) {
  ZoomInResult result;
  // The query's pinned epoch (if any) decides how archived-ness is
  // reported below.
  ReadSnapshot pinned;
  {
    std::lock_guard<std::mutex> lock(queries_mutex_);
    auto it = queries_.find(request.qid);
    if (it != queries_.end()) pinned = it->second->snapshot;
  }
  INSIGHTNOTES_ASSIGN_OR_RETURN(ResultSnapshot snapshot,
                                SnapshotFor(request.qid, &result.served_from_cache));
  INSIGHTNOTES_ASSIGN_OR_RETURN(auto matches, ResolveZoomIn(snapshot, request));
  result.rows.reserve(matches.size());
  for (auto& [row_index, component] : matches) {
    ZoomInRowResult row;
    row.row_index = row_index;
    row.tuple = snapshot.rows[row_index].tuple;
    row.component_label = component.label;
    row.annotations.reserve(component.ids.size());
    for (ann::AnnotationId id : component.ids) {
      INSIGHTNOTES_ASSIGN_OR_RETURN(ann::Annotation note, store_->Get(id));
      // Bodies are immutable once stored, but archived-ness is curation
      // state: report it as of the query's epoch, not live, so the zoom-in
      // is consistent with the summaries it drills into.
      if (pinned != nullptr) note.archived = pinned->IsArchived(id);
      row.annotations.push_back(std::move(note));
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

}  // namespace insightnotes::core
