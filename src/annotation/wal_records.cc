#include "annotation/wal_records.h"

#include <algorithm>
#include <cstring>

#include "common/coverage.h"

namespace insightnotes::ann {

namespace {

enum : uint8_t {
  kAddTag = 1,
  kAttachTag = 2,
  kArchiveTag = 3,
  kCheckpointTag = 4,
  kIndexCreateTag = 5,
  kIndexCheckpointTag = 6,
};

void PutU8(std::string* out, uint8_t v) { out->push_back(static_cast<char>(v)); }

template <typename T>
void PutFixed(std::string* out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

void PutString(std::string* out, const std::string& s) {
  PutFixed<uint32_t>(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

void PutRegion(std::string* out, const CellRegion& region) {
  PutFixed<uint32_t>(out, region.table);
  PutFixed<uint64_t>(out, region.row);
  PutFixed<uint32_t>(out, static_cast<uint32_t>(region.columns.size()));
  for (size_t c : region.columns) PutFixed<uint64_t>(out, static_cast<uint64_t>(c));
}

/// Sequential reader over a record payload; any out-of-bounds read flips
/// `ok` and sticks.
struct Reader {
  std::string_view data;
  size_t pos = 0;
  bool ok = true;

  bool Take(void* out, size_t len) {
    if (!ok || pos + len > data.size()) {
      ok = false;
      return false;
    }
    std::memcpy(out, data.data() + pos, len);
    pos += len;
    return true;
  }

  uint8_t U8() {
    uint8_t v = 0;
    Take(&v, sizeof(v));
    return v;
  }

  template <typename T>
  T Fixed() {
    T v{};
    Take(&v, sizeof(T));
    return v;
  }

  std::string String() {
    uint32_t len = Fixed<uint32_t>();
    if (!ok || pos + len > data.size()) {
      ok = false;
      return {};
    }
    std::string s(data.substr(pos, len));
    pos += len;
    return s;
  }

  CellRegion Region() {
    CellRegion region;
    region.table = Fixed<uint32_t>();
    region.row = Fixed<uint64_t>();
    uint32_t count = Fixed<uint32_t>();
    // Bound by remaining bytes so a corrupt count cannot force a huge
    // allocation.
    if (!ok || static_cast<size_t>(count) * sizeof(uint64_t) > data.size() - pos) {
      ok = false;
      return region;
    }
    region.columns.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      region.columns.push_back(static_cast<size_t>(Fixed<uint64_t>()));
    }
    return region;
  }
};

}  // namespace

std::string EncodeWalEntry(const WalEntry& entry) {
  std::string out;
  if (const auto* add = std::get_if<WalAddRecord>(&entry)) {
    PutU8(&out, kAddTag);
    PutFixed<uint64_t>(&out, add->expected_id);
    PutU8(&out, static_cast<uint8_t>(add->note.kind));
    PutFixed<int64_t>(&out, add->note.timestamp);
    PutString(&out, add->note.author);
    PutString(&out, add->note.title);
    PutString(&out, add->note.body);
    PutRegion(&out, add->region);
  } else if (const auto* attach = std::get_if<WalAttachRecord>(&entry)) {
    PutU8(&out, kAttachTag);
    PutFixed<uint64_t>(&out, attach->id);
    PutRegion(&out, attach->region);
  } else if (const auto* archive = std::get_if<WalArchiveRecord>(&entry)) {
    PutU8(&out, kArchiveTag);
    PutFixed<uint64_t>(&out, archive->id);
  } else if (const auto* checkpoint = std::get_if<WalCheckpointRecord>(&entry)) {
    PutU8(&out, kCheckpointTag);
    PutFixed<uint64_t>(&out, checkpoint->num_annotations);
  } else if (const auto* create = std::get_if<WalIndexCreateRecord>(&entry)) {
    PutU8(&out, kIndexCreateTag);
    PutString(&out, create->table);
    PutFixed<uint64_t>(&out, create->column);
  } else {
    const auto& ickpt = std::get<WalIndexCheckpointRecord>(entry);
    PutU8(&out, kIndexCheckpointTag);
    PutFixed<uint64_t>(&out, ickpt.page_count);
    PutFixed<uint64_t>(&out, ickpt.next_stamp);
    PutFixed<uint32_t>(&out, static_cast<uint32_t>(ickpt.free_pages.size()));
    for (uint32_t page : ickpt.free_pages) PutFixed<uint32_t>(&out, page);
    PutFixed<uint32_t>(&out, static_cast<uint32_t>(ickpt.indexes.size()));
    for (const WalIndexCheckpointEntry& index : ickpt.indexes) {
      PutString(&out, index.table);
      PutFixed<uint64_t>(&out, index.column);
      PutFixed<uint32_t>(&out, index.root);
      PutFixed<uint32_t>(&out, index.height);
      PutFixed<uint64_t>(&out, index.entries);
      PutFixed<uint64_t>(&out, index.covered_rows);
    }
  }
  return out;
}

Result<WalEntry> DecodeWalEntry(std::string_view payload) {
  Reader reader{payload};
  uint8_t tag = reader.U8();
  switch (tag) {
    case kAddTag: {
      WalAddRecord add;
      add.expected_id = reader.Fixed<uint64_t>();
      add.note.kind = static_cast<AnnotationKind>(reader.U8());
      add.note.timestamp = reader.Fixed<int64_t>();
      add.note.author = reader.String();
      add.note.title = reader.String();
      add.note.body = reader.String();
      add.region = reader.Region();
      if (!reader.ok || reader.pos != payload.size()) break;
      return WalEntry(std::move(add));
    }
    case kAttachTag: {
      WalAttachRecord attach;
      attach.id = reader.Fixed<uint64_t>();
      attach.region = reader.Region();
      if (!reader.ok || reader.pos != payload.size()) break;
      return WalEntry(std::move(attach));
    }
    case kArchiveTag: {
      WalArchiveRecord archive;
      archive.id = reader.Fixed<uint64_t>();
      if (!reader.ok || reader.pos != payload.size()) break;
      return WalEntry(std::move(archive));
    }
    case kCheckpointTag: {
      WalCheckpointRecord checkpoint;
      checkpoint.num_annotations = reader.Fixed<uint64_t>();
      if (!reader.ok || reader.pos != payload.size()) break;
      return WalEntry(checkpoint);
    }
    case kIndexCreateTag: {
      WalIndexCreateRecord create;
      create.table = reader.String();
      create.column = reader.Fixed<uint64_t>();
      if (!reader.ok || reader.pos != payload.size()) break;
      return WalEntry(std::move(create));
    }
    case kIndexCheckpointTag: {
      WalIndexCheckpointRecord ickpt;
      ickpt.page_count = reader.Fixed<uint64_t>();
      ickpt.next_stamp = reader.Fixed<uint64_t>();
      uint32_t free_count = reader.Fixed<uint32_t>();
      if (!reader.ok ||
          static_cast<size_t>(free_count) * sizeof(uint32_t) >
              payload.size() - reader.pos) {
        break;
      }
      ickpt.free_pages.reserve(free_count);
      for (uint32_t i = 0; i < free_count; ++i) {
        ickpt.free_pages.push_back(reader.Fixed<uint32_t>());
      }
      uint32_t index_count = reader.Fixed<uint32_t>();
      // Each entry is at least 32 bytes; bound before reserving.
      if (!reader.ok ||
          static_cast<size_t>(index_count) * 32 > payload.size() - reader.pos) {
        break;
      }
      ickpt.indexes.reserve(index_count);
      for (uint32_t i = 0; i < index_count; ++i) {
        WalIndexCheckpointEntry index;
        index.table = reader.String();
        index.column = reader.Fixed<uint64_t>();
        index.root = reader.Fixed<uint32_t>();
        index.height = reader.Fixed<uint32_t>();
        index.entries = reader.Fixed<uint64_t>();
        index.covered_rows = reader.Fixed<uint64_t>();
        ickpt.indexes.push_back(std::move(index));
      }
      if (!reader.ok || reader.pos != payload.size()) break;
      return WalEntry(std::move(ickpt));
    }
    default:
      return Status::Corruption("unknown WAL record tag " + std::to_string(tag));
  }
  return Status::Corruption("malformed WAL record (tag " + std::to_string(tag) + ")");
}

WalChainKey ChainKeyOf(const WalEntry& entry) {
  WalChainKey key;
  if (const auto* add = std::get_if<WalAddRecord>(&entry)) {
    key.annotation = add->expected_id;
    key.has_row = true;
    key.table = add->region.table;
    key.row = add->region.row;
  } else if (const auto* attach = std::get_if<WalAttachRecord>(&entry)) {
    key.annotation = attach->id;
    key.has_row = true;
    key.table = attach->region.table;
    key.row = attach->region.row;
  } else if (const auto* archive = std::get_if<WalArchiveRecord>(&entry)) {
    key.annotation = archive->id;
  } else {
    // Checkpoint and index records are cross-chain barriers: they assert
    // or snapshot global state and join no replay chain.
    key.is_marker = true;
  }
  return key;
}

void WalLivenessTracker::ReportDead(uint64_t segment_id, uint32_t record_index) {
  if (on_dead_) on_dead_(segment_id, record_index);
}

void WalLivenessTracker::Observe(const WalEntry& entry, uint64_t segment_id,
                                 uint32_t record_index) {
  if (std::holds_alternative<WalCheckpointRecord>(entry)) {
    if (has_marker_) ReportDead(marker_pos_.first, marker_pos_.second);
    has_marker_ = true;
    marker_pos_ = {segment_id, record_index};
    return;
  }
  if (std::holds_alternative<WalIndexCreateRecord>(entry)) {
    // Pure intent; dies once the next index checkpoint commits (replay
    // reads only the latest checkpoint, never the creates).
    pending_index_creates_.emplace_back(segment_id, record_index);
    return;
  }
  if (std::holds_alternative<WalIndexCheckpointRecord>(entry)) {
    if (has_index_marker_) {
      ReportDead(index_marker_pos_.first, index_marker_pos_.second);
    }
    for (const auto& pos : pending_index_creates_) {
      ReportDead(pos.first, pos.second);
    }
    pending_index_creates_.clear();
    has_index_marker_ = true;
    index_marker_pos_ = {segment_id, record_index};
    return;
  }
  if (const auto* archive = std::get_if<WalArchiveRecord>(&entry)) {
    if (!archived_.insert(archive->id).second) {
      ReportDead(segment_id, record_index);  // Already archived: no-op record.
    }
    return;
  }
  AnnotationId id;
  const CellRegion* region;
  bool is_add = false;
  if (const auto* add = std::get_if<WalAddRecord>(&entry)) {
    id = add->expected_id;
    region = &add->region;
    is_add = true;
  } else {
    const auto& attach = std::get<WalAttachRecord>(entry);
    id = attach.id;
    region = &attach.region;
  }
  auto key = std::make_tuple(id, region->table, region->row);
  std::vector<size_t> columns = region->columns;
  NormalizeCoverage(&columns);
  auto [it, first_for_pair] = pairs_.try_emplace(key);
  PairState& state = it->second;
  if (first_for_pair || is_add) {
    // First record of this (annotation, row) pair — it pins the row's
    // attachment insertion position and always stays live.
    state.columns = std::move(columns);
    return;
  }
  if (state.columns.empty()) {
    // The pair already covers the whole row; this re-attach adds nothing.
    ReportDead(segment_id, record_index);
    return;
  }
  std::vector<size_t> merged = state.columns;
  UnionCoverage(&merged, columns);
  if (merged == state.columns) {
    // Adds no columns to the union: pure no-op.
    ReportDead(segment_id, record_index);
    return;
  }
  if (merged == columns) {
    // This record alone covers the whole accumulated union, so the earlier
    // non-first re-attaches became redundant: first + this one replays to
    // the full union.
    for (const auto& pos : state.supersedable) ReportDead(pos.first, pos.second);
    state.supersedable.clear();
  }
  state.columns = std::move(merged);
  // A whole-row re-attach absorbs the union for good: nothing supersedes
  // it, so it is terminal rather than supersedable.
  if (!state.columns.empty()) state.supersedable.emplace_back(segment_id, record_index);
}

}  // namespace insightnotes::ann
