#include "core/recovery.h"

#include <algorithm>
#include <future>
#include <map>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "common/thread_pool.h"
#include "storage/wal.h"

namespace insightnotes::core {

namespace {

struct DecodedSegment {
  std::vector<ann::WalEntry> entries;
  storage::WriteAheadLog::ReplayStats stats;
};

/// Reads and decodes one segment file. Only the active (last) segment may
/// end in a torn tail — sealed segments were fsynced before the manifest
/// sealed them.
Status DecodeSegment(const std::string& path, bool is_active, DecodedSegment* out) {
  Result<storage::WriteAheadLog::ReplayStats> replayed =
      storage::WriteAheadLog::Replay(path, [out](std::string_view payload) {
        INSIGHTNOTES_ASSIGN_OR_RETURN(ann::WalEntry entry,
                                      ann::DecodeWalEntry(payload));
        out->entries.push_back(std::move(entry));
        return Status::OK();
      });
  if (!replayed.ok()) return replayed.status();
  out->stats = *replayed;
  if (!is_active && out->stats.truncated_bytes > 0) {
    return Status::Corruption(
        "sealed WAL segment '" + path + "' ends in " +
        std::to_string(out->stats.truncated_bytes) +
        " torn byte(s); only the active segment may have a torn tail");
  }
  return Status::OK();
}

/// Union-find with path halving; chains are its connected components.
class UnionFind {
 public:
  int MakeSet() {
    parent_.push_back(static_cast<int>(parent_.size()));
    return parent_.back();
  }

  int Find(int x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent_[b] = a;
  }

 private:
  std::vector<int> parent_;
};

/// One mutation record in global log order.
struct RecordRef {
  const ann::WalEntry* entry = nullptr;
  uint64_t segment_id = 0;
  uint32_t record_index = 0;
};

Status ApplyViaRecoverySurface(ann::AnnotationStore* store, const ann::WalEntry& entry) {
  if (const auto* add = std::get_if<ann::WalAddRecord>(&entry)) {
    return store->RecoverAdd(add->expected_id, add->note, add->region);
  }
  if (const auto* attach = std::get_if<ann::WalAttachRecord>(&entry)) {
    return store->RecoverAttach(attach->id, attach->region);
  }
  return store->RecoverArchive(std::get<ann::WalArchiveRecord>(entry).id);
}

}  // namespace

Result<WalReplayStats> ReplaySegmentedWal(
    const storage::SegmentedWal::Manifest& manifest, ann::AnnotationStore* store,
    ann::WalLivenessTracker* tracker, const WalReplayOptions& options) {
  WalReplayStats stats;
  size_t threads = options.threads;
  if (threads == 0) {
    threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  stats.threads_used = threads;
  if (manifest.segments.empty()) return stats;

  // One pool serves decode and apply; replay runs once per open, so even a
  // one-worker pool costs next to nothing.
  ThreadPool pool(threads);

  // --- Phase 1: decode every segment (parallel across segments) -------------
  const size_t num_segments = manifest.segments.size();
  std::vector<DecodedSegment> decoded(num_segments);
  std::vector<std::future<Status>> decodes;
  decodes.reserve(num_segments);
  for (size_t i = 0; i < num_segments; ++i) {
    decodes.push_back(pool.Submit([&, i] {
      return DecodeSegment(manifest.segments[i].path,
                           /*is_active=*/i + 1 == num_segments, &decoded[i]);
    }));
  }
  Status decode_status = Status::OK();
  for (auto& f : decodes) {
    Status s = f.get();
    if (decode_status.ok() && !s.ok()) decode_status = s;
  }
  INSIGHTNOTES_RETURN_IF_ERROR(decode_status);
  const DecodedSegment& active = decoded.back();
  stats.active_valid_bytes = active.stats.valid_bytes;
  stats.active_truncated_bytes = active.stats.truncated_bytes;
  stats.active_records = active.entries.size();

  // --- Phase 2: verify markers & dense ids, partition into chains (serial) ---
  std::vector<RecordRef> records;  // Mutation records, global log order.
  UnionFind uf;
  std::map<ann::AnnotationId, int> annotation_node;
  std::map<std::pair<rel::TableId, rel::RowId>, int> row_node;
  std::vector<int> record_node;  // Parallel to `records`.
  uint64_t next_add_id = 0;
  for (size_t i = 0; i < num_segments; ++i) {
    const uint64_t segment_id = manifest.segments[i].id;
    for (size_t r = 0; r < decoded[i].entries.size(); ++r) {
      const ann::WalEntry& entry = decoded[i].entries[r];
      const auto record_index = static_cast<uint32_t>(r);
      if (tracker != nullptr) tracker->Observe(entry, segment_id, record_index);
      ann::WalChainKey key = ann::ChainKeyOf(entry);
      if (key.is_marker) {
        // Index records are markers too: they join no chain and carry no
        // annotation-count assertion. Creates are intent only; the last
        // index checkpoint is adopted wholesale by the engine.
        if (std::holds_alternative<ann::WalIndexCreateRecord>(entry)) {
          ++stats.index_creates;
          continue;
        }
        if (const auto* ickpt =
                std::get_if<ann::WalIndexCheckpointRecord>(&entry)) {
          ++stats.index_checkpoints;
          stats.has_index_checkpoint = true;
          stats.latest_index_checkpoint = *ickpt;
          continue;
        }
        // A marker asserts the store state at the time it was written;
        // replay of the preceding records must reproduce exactly that
        // count. Compaction never drops add records, so the arithmetic
        // holds across compacted histories too.
        const auto& marker = std::get<ann::WalCheckpointRecord>(entry);
        if (next_add_id != marker.num_annotations) {
          return Status::Corruption(
              "WAL checkpoint expects " + std::to_string(marker.num_annotations) +
              " annotation(s), replay produced " + std::to_string(next_add_id));
        }
        ++stats.checkpoints;
        stats.records_since_checkpoint = 0;
        continue;
      }
      ++stats.records_since_checkpoint;
      ++stats.mutation_records;
      if (const auto* add = std::get_if<ann::WalAddRecord>(&entry)) {
        // Ids are dense and assigned in insertion order, so the log must
        // add exactly id 0, 1, 2, … in order.
        if (add->expected_id != next_add_id) {
          return Status::Corruption("WAL replay assigned annotation id " +
                                    std::to_string(next_add_id) + ", log expected " +
                                    std::to_string(add->expected_id));
        }
        ++next_add_id;
      }
      auto [ann_it, ann_new] = annotation_node.try_emplace(key.annotation, -1);
      if (ann_new) ann_it->second = uf.MakeSet();
      int node = ann_it->second;
      if (key.has_row) {
        auto [row_it, row_new] =
            row_node.try_emplace(std::make_pair(key.table, key.row), -1);
        if (row_new) row_it->second = uf.MakeSet();
        uf.Union(node, row_it->second);
      }
      records.push_back(RecordRef{&entry, segment_id, record_index});
      record_node.push_back(node);
    }
  }

  // --- Phase 3: apply, one pool task per chain --------------------------------
  std::map<int, std::vector<size_t>> chains;  // Root -> record positions, in order.
  for (size_t i = 0; i < records.size(); ++i) {
    chains[uf.Find(record_node[i])].push_back(i);
  }
  stats.chains = chains.size();
  std::vector<std::pair<rel::TableId, rel::RowId>> rows;
  rows.reserve(row_node.size());
  for (const auto& [key, node] : row_node) rows.push_back(key);
  INSIGHTNOTES_RETURN_IF_ERROR(store->BeginParallelRecovery(next_add_id, rows));
  std::vector<std::future<Status>> applies;
  applies.reserve(chains.size());
  for (const auto& [root, positions] : chains) {
    applies.push_back(pool.Submit([&records, &positions, store] {
      for (size_t pos : positions) {
        INSIGHTNOTES_RETURN_IF_ERROR(ApplyViaRecoverySurface(store, *records[pos].entry));
      }
      return Status::OK();
    }));
  }
  Status applied = Status::OK();
  for (auto& f : applies) {
    Status s = f.get();
    if (applied.ok() && !s.ok()) applied = s;
  }
  INSIGHTNOTES_RETURN_IF_ERROR(applied);
  INSIGHTNOTES_RETURN_IF_ERROR(store->EndParallelRecovery());
  return stats;
}

}  // namespace insightnotes::core
