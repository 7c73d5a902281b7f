#include "storage/wal_segments.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <sstream>

#if defined(_WIN32)
#include <io.h>
#else
#include <unistd.h>
#endif

#include "common/logging.h"

namespace insightnotes::storage {

namespace fs = std::filesystem;

namespace {

/// Minimum dead-record fraction before a sealed segment is worth compacting
/// (a fully-dead segment is always retired).
constexpr double kCompactMinDeadRatio = 0.25;

Status FlushAndFsync(std::FILE* file, const std::string& path) {
  if (std::fflush(file) != 0) {
    return Status::IoError("flush failed for '" + path + "': " + std::strerror(errno));
  }
#if defined(_WIN32)
  if (_commit(_fileno(file)) != 0) {
    return Status::IoError("commit-to-disk failed for '" + path + "'");
  }
#else
  if (::fsync(fileno(file)) != 0) {
    return Status::IoError("fsync failed for '" + path + "': " + std::strerror(errno));
  }
#endif
  return Status::OK();
}

std::string RenderManifest(uint64_t next_segment_id,
                           const std::vector<SegmentedWal::SegmentRef>& segments) {
  std::string text = "INWAL-MANIFEST 1\n";
  text += "next " + std::to_string(next_segment_id) + "\n";
  for (const SegmentedWal::SegmentRef& s : segments) {
    text += "segment " + std::to_string(s.id) + " " + std::to_string(s.records) + "\n";
  }
  return text;
}

/// Atomically replaces the manifest at `manifest_path` with `text` via
/// temp file + fsync + rename + parent-directory fsync. `fault` is the
/// crash seam; pass a no-op outside tests.
Status WriteManifestFile(const std::string& manifest_path, const std::string& text,
                         const std::function<Status(const char*)>& fault) {
  const std::string tmp = manifest_path + ".tmp";
  INSIGHTNOTES_RETURN_IF_ERROR(fault("manifest_temp"));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open WAL manifest temp '" + tmp +
                           "': " + std::strerror(errno));
  }
  if (std::fwrite(text.data(), 1, text.size(), f) != text.size()) {
    std::fclose(f);
    std::remove(tmp.c_str());
    return Status::IoError("cannot write WAL manifest temp '" + tmp + "'");
  }
  if (Status s = fault("manifest_fsync"); !s.ok()) {
    std::fclose(f);
    return s;
  }
  if (Status synced = FlushAndFsync(f, tmp); !synced.ok()) {
    std::fclose(f);
    std::remove(tmp.c_str());
    return synced;
  }
  if (std::fclose(f) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot close WAL manifest temp '" + tmp + "'");
  }
  if (Status s = fault("manifest_rename"); !s.ok()) return s;
  if (std::rename(tmp.c_str(), manifest_path.c_str()) != 0) {
    Status renamed = Status::IoError("cannot swap WAL manifest into '" +
                                     manifest_path + "': " + std::strerror(errno));
    std::remove(tmp.c_str());
    return renamed;
  }
  if (Status s = fault("manifest_dir_fsync"); !s.ok()) return s;
  return FsyncDirOf(manifest_path);
}

Status NoFault(const char*) { return Status::OK(); }

Result<SegmentedWal::Manifest> ParseManifest(const std::string& manifest_path,
                                             const std::string& base) {
  std::FILE* f = std::fopen(manifest_path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open WAL manifest '" + manifest_path + "'");
  }
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);

  SegmentedWal::Manifest out;
  std::istringstream lines(text);
  std::string line;
  if (!std::getline(lines, line) || line != "INWAL-MANIFEST 1") {
    return Status::Corruption("'" + manifest_path +
                              "' is not an InsightNotes WAL manifest");
  }
  bool have_next = false;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string keyword;
    fields >> keyword;
    if (keyword == "next") {
      if (!(fields >> out.next_segment_id)) {
        return Status::Corruption("bad 'next' line in WAL manifest '" +
                                  manifest_path + "'");
      }
      have_next = true;
    } else if (keyword == "segment") {
      SegmentedWal::SegmentRef ref;
      if (!(fields >> ref.id >> ref.records)) {
        return Status::Corruption("bad 'segment' line in WAL manifest '" +
                                  manifest_path + "'");
      }
      ref.path = SegmentedWal::SegmentPathFor(base, ref.id);
      out.segments.push_back(std::move(ref));
    } else {
      return Status::Corruption("unknown keyword '" + keyword +
                                "' in WAL manifest '" + manifest_path + "'");
    }
  }
  if (!have_next || out.segments.empty()) {
    return Status::Corruption("WAL manifest '" + manifest_path +
                              "' lists no segments");
  }
  return out;
}

/// True if `name` is a segment file of `base_name` ("<base_name>.NNNNNN").
bool IsSegmentFileName(const std::string& base_name, const std::string& name) {
  if (name.size() < base_name.size() + 7) return false;
  if (name.compare(0, base_name.size(), base_name) != 0) return false;
  if (name[base_name.size()] != '.') return false;
  for (size_t i = base_name.size() + 1; i < name.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(name[i]))) return false;
  }
  return true;
}

}  // namespace

std::string SegmentedWal::SegmentPathFor(const std::string& base, uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%06llu", static_cast<unsigned long long>(id));
  return base + "." + buf;
}

std::string SegmentedWal::ManifestPathFor(const std::string& base) {
  return base + ".manifest";
}

SegmentedWal::~SegmentedWal() {
  Status s = Close();
  if (!s.ok()) {
    INSIGHTNOTES_LOG(Error) << "SegmentedWal::Close failed in destructor: "
                            << s.ToString();
  }
}

Result<SegmentedWal::Manifest> SegmentedWal::LoadForReplay(const std::string& base) {
  const std::string manifest_path = ManifestPathFor(base);
  std::error_code ec;
  // Crash leftovers: a half-written manifest swap and the single-file-era
  // rewrite temp are never part of the durable state.
  fs::remove(manifest_path + ".tmp", ec);
  fs::remove(base + ".compact", ec);

  Manifest out;
  if (!fs::exists(manifest_path, ec)) {
    const std::string first = SegmentPathFor(base, 1);
    if (fs::exists(base, ec)) {
      // Legacy single-file log: adopt it as segment 1. The rename is made
      // durable before the manifest references it; a crash in between
      // leaves the segment file with no manifest, which the branch below
      // picks up on the next open.
      std::error_code rename_ec;
      fs::rename(base, first, rename_ec);
      if (rename_ec) {
        return Status::IoError("cannot migrate legacy WAL '" + base +
                               "' to segment 1: " + rename_ec.message());
      }
      INSIGHTNOTES_RETURN_IF_ERROR(FsyncDirOf(first));
    }
    if (!fs::exists(first, ec)) return out;  // Nothing on disk: empty log.
    out.next_segment_id = 2;
    out.segments.push_back(SegmentRef{1, first, 0});
    INSIGHTNOTES_RETURN_IF_ERROR(WriteManifestFile(
        manifest_path, RenderManifest(out.next_segment_id, out.segments), NoFault));
  } else {
    INSIGHTNOTES_ASSIGN_OR_RETURN(out, ParseManifest(manifest_path, base));
  }

  // Remove orphaned segment files: written by a rotation or compaction the
  // manifest swap never committed. They are unreferenced, and their ids may
  // be reused once `next` rolls back with the old manifest.
  const fs::path base_path(base);
  const std::string base_name = base_path.filename().string();
  fs::path dir = base_path.parent_path();
  if (dir.empty()) dir = ".";
  std::error_code iter_ec;
  for (const auto& entry : fs::directory_iterator(dir, iter_ec)) {
    const std::string name = entry.path().filename().string();
    if (!IsSegmentFileName(base_name, name)) continue;
    bool referenced = false;
    for (const SegmentRef& ref : out.segments) {
      if (fs::path(ref.path).filename().string() == name) {
        referenced = true;
        break;
      }
    }
    if (!referenced) {
      INSIGHTNOTES_LOG(Warning) << "recovery: removing orphaned WAL segment '"
                                << entry.path().string() << "'";
      fs::remove(entry.path(), ec);
    }
  }
  return out;
}

Status SegmentedWal::Open(const std::string& base, bool truncate,
                          uint64_t active_keep_bytes, uint64_t active_records,
                          Options options) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (active_ != nullptr) return Status::Internal("segmented WAL already open");
  base_ = base;
  options_ = options;
  crashed_ = false;
  num_appended_ = 0;
  segments_.clear();

  Manifest manifest;
  bool fresh = truncate;
  if (truncate) {
    // Wipe any previous incarnation: manifest, temp, legacy file, segments.
    std::error_code ec;
    fs::remove(ManifestPathFor(base_), ec);
    fs::remove(ManifestPathFor(base_) + ".tmp", ec);
    fs::remove(base_, ec);
    const fs::path base_path(base_);
    const std::string base_name = base_path.filename().string();
    fs::path dir = base_path.parent_path();
    if (dir.empty()) dir = ".";
    std::error_code iter_ec;
    for (const auto& entry : fs::directory_iterator(dir, iter_ec)) {
      if (IsSegmentFileName(base_name, entry.path().filename().string())) {
        fs::remove(entry.path(), ec);
      }
    }
  } else {
    INSIGHTNOTES_ASSIGN_OR_RETURN(manifest, LoadForReplay(base_));
    fresh = manifest.segments.empty();
  }

  if (fresh) {
    next_segment_id_ = 1;
    const uint64_t id = next_segment_id_++;
    const std::string path = SegmentPathFor(base_, id);
    active_ = std::make_unique<WriteAheadLog>();
    INSIGHTNOTES_RETURN_IF_ERROR(active_->Open(path, /*truncate=*/true));
    INSIGHTNOTES_RETURN_IF_ERROR(active_->Sync());
    INSIGHTNOTES_RETURN_IF_ERROR(FsyncDirOf(path));
    segments_.push_back(Segment{id, path, 0, {}});
    return WriteManifestLocked();
  }

  next_segment_id_ = manifest.next_segment_id;
  for (const SegmentRef& ref : manifest.segments) {
    segments_.push_back(Segment{ref.id, ref.path, ref.records, {}});
  }
  // The manifest's count for the active (last) segment is advisory; the
  // caller's replay just counted the records that actually survive.
  segments_.back().records = active_records;
  active_ = std::make_unique<WriteAheadLog>();
  return active_->Open(segments_.back().path, /*truncate=*/false, active_keep_bytes);
}

Status SegmentedWal::Fault(const char* op) {
  if (!fault_hook_) return Status::OK();
  Status s = fault_hook_(op);
  if (!s.ok()) crashed_ = true;
  return s;
}

void SegmentedWal::SetFaultHook(FaultHook hook) {
  std::lock_guard<std::mutex> lock(mutex_);
  fault_hook_ = std::move(hook);
}

Status SegmentedWal::WriteManifestLocked() {
  return WriteManifestFile(
      ManifestPathFor(base_),
      RenderManifest(next_segment_id_,
                     [&] {
                       std::vector<SegmentRef> refs;
                       refs.reserve(segments_.size());
                       for (const Segment& s : segments_) {
                         refs.push_back(SegmentRef{s.id, s.path, s.records});
                       }
                       return refs;
                     }()),
      [this](const char* op) { return Fault(op); });
}

Result<WalRecordPos> SegmentedWal::Append(std::string_view payload) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (active_ == nullptr) return Status::Internal("segmented WAL not open");
    if (crashed_) {
      return Status::IoError("segmented WAL '" + base_ +
                             "' failed after a simulated crash");
    }
  }
  INSIGHTNOTES_RETURN_IF_ERROR(active_->Append(payload));
  std::lock_guard<std::mutex> lock(mutex_);
  Segment& seg = segments_.back();
  WalRecordPos pos{seg.id, static_cast<uint32_t>(seg.records)};
  ++seg.records;
  ++num_appended_;
  return pos;
}

Status SegmentedWal::Sync() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (active_ == nullptr) return Status::Internal("segmented WAL not open");
    if (crashed_) {
      return Status::IoError("segmented WAL '" + base_ +
                             "' failed after a simulated crash");
    }
  }
  return active_->Sync();
}

Result<SegmentedWal::Mark> SegmentedWal::MarkPos() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (active_ == nullptr) return Status::Internal("segmented WAL not open");
  INSIGHTNOTES_ASSIGN_OR_RETURN(uint64_t offset, active_->AppendOffset());
  return Mark{offset, segments_.back().records};
}

Status SegmentedWal::TruncateTo(const Mark& mark) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (active_ == nullptr) return Status::Internal("segmented WAL not open");
  }
  INSIGHTNOTES_RETURN_IF_ERROR(active_->TruncateTo(mark.offset));
  std::lock_guard<std::mutex> lock(mutex_);
  Segment& seg = segments_.back();
  seg.records = mark.records;
  // Rolled-back records can no longer be superseded; drop any marks on them.
  for (auto it = seg.dead.begin(); it != seg.dead.end();) {
    it = *it >= mark.records ? seg.dead.erase(it) : std::next(it);
  }
  return Status::OK();
}

Status SegmentedWal::MaybeRotate() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (active_ == nullptr) return Status::Internal("segmented WAL not open");
    if (crashed_) {
      return Status::IoError("segmented WAL '" + base_ +
                             "' failed after a simulated crash");
    }
  }
  INSIGHTNOTES_ASSIGN_OR_RETURN(uint64_t offset, active_->AppendOffset());
  if (offset < options_.segment_bytes) return Status::OK();

  // Seal: every record of the outgoing segment must be durable before the
  // manifest freezes its count.
  INSIGHTNOTES_RETURN_IF_ERROR(Fault("rotate_sync"));
  INSIGHTNOTES_RETURN_IF_ERROR(active_->Sync());

  uint64_t new_id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    new_id = next_segment_id_++;
  }
  const std::string new_path = SegmentPathFor(base_, new_id);
  INSIGHTNOTES_RETURN_IF_ERROR(Fault("rotate_create"));
  auto fresh = std::make_unique<WriteAheadLog>();
  INSIGHTNOTES_RETURN_IF_ERROR(fresh->Open(new_path, /*truncate=*/true));
  INSIGHTNOTES_RETURN_IF_ERROR(Fault("rotate_seg_fsync"));
  INSIGHTNOTES_RETURN_IF_ERROR(fresh->Sync());
  INSIGHTNOTES_RETURN_IF_ERROR(Fault("rotate_dir_fsync"));
  INSIGHTNOTES_RETURN_IF_ERROR(FsyncDirOf(new_path));

  {
    std::lock_guard<std::mutex> lock(mutex_);
    segments_.push_back(Segment{new_id, new_path, 0, {}});
    Status manifest = WriteManifestLocked();
    if (!manifest.ok()) {
      segments_.pop_back();
      if (!crashed_) {
        // Real I/O failure (not a simulated kill): the new file is an
        // unreferenced orphan; remove it and stay on the old active.
        std::remove(new_path.c_str());
      }
      return manifest;
    }
  }
  Status closed = active_->Close();
  active_ = std::move(fresh);
  return closed;
}

void SegmentedWal::MarkDead(uint64_t segment_id, uint32_t record_index) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Segment& seg : segments_) {
    if (seg.id != segment_id) continue;
    if (record_index < seg.records) seg.dead.insert(record_index);
    return;
  }
  // Unknown segment: retired by compaction after the caller captured the
  // position. The record was copied forward as live; skipping the mark only
  // makes compaction conservative.
}

Result<SegmentedWal::CompactionResult> SegmentedWal::CompactOnce() {
  Segment candidate;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (active_ == nullptr) return Status::Internal("segmented WAL not open");
    if (crashed_) {
      return Status::IoError("segmented WAL '" + base_ +
                             "' failed after a simulated crash");
    }
    double best = 0.0;
    bool found = false;
    for (size_t i = 0; i + 1 < segments_.size(); ++i) {
      const Segment& s = segments_[i];
      if (s.records == 0 || s.dead.empty()) continue;
      double ratio = static_cast<double>(s.dead.size()) / static_cast<double>(s.records);
      bool eligible = ratio >= kCompactMinDeadRatio ||
                      s.dead.size() == s.records;
      if (eligible && ratio > best) {
        best = ratio;
        candidate = s;  // Copies the dead-set snapshot.
        found = true;
      }
    }
    if (!found) return CompactionResult{};
  }

  // Read the live records. The segment is sealed (fsynced before the
  // manifest froze it), so a torn tail or short count here is corruption,
  // not a crash artifact.
  INSIGHTNOTES_RETURN_IF_ERROR(Fault("compact_read"));
  std::vector<std::string> live;
  live.reserve(candidate.records - candidate.dead.size());
  uint32_t index = 0;
  INSIGHTNOTES_ASSIGN_OR_RETURN(
      WriteAheadLog::ReplayStats stats,
      WriteAheadLog::Replay(candidate.path, [&](std::string_view payload) {
        if (candidate.dead.find(index) == candidate.dead.end()) {
          live.emplace_back(payload);
        }
        ++index;
        return Status::OK();
      }));
  if (stats.truncated_bytes > 0 || stats.records != candidate.records) {
    return Status::Corruption("sealed WAL segment '" + candidate.path +
                              "' is torn or short (" + std::to_string(stats.records) +
                              " of " + std::to_string(candidate.records) +
                              " records readable)");
  }

  CompactionResult result;
  result.compacted = true;
  result.segment_id = candidate.id;
  result.live_records = live.size();
  result.dead_records = candidate.dead.size();

  std::string new_path;
  if (!live.empty()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      result.new_segment_id = next_segment_id_++;
    }
    new_path = SegmentPathFor(base_, result.new_segment_id);
    auto abandon = [&](Status status) {
      if (!crashed_) std::remove(new_path.c_str());
      return status;
    };
    INSIGHTNOTES_RETURN_IF_ERROR(Fault("compact_create"));
    WriteAheadLog out;
    if (Status opened = out.Open(new_path, /*truncate=*/true); !opened.ok()) {
      return abandon(opened);
    }
    for (const std::string& payload : live) {
      if (Status f = Fault("compact_write"); !f.ok()) return f;
      if (Status appended = out.Append(payload); !appended.ok()) {
        out.Close().ok();
        return abandon(appended);
      }
    }
    if (Status f = Fault("compact_fsync"); !f.ok()) return f;
    if (Status synced = out.Sync(); !synced.ok()) {
      out.Close().ok();
      return abandon(synced);
    }
    if (Status closed = out.Close(); !closed.ok()) return abandon(closed);
    if (Status f = Fault("compact_dir_fsync"); !f.ok()) return f;
    if (Status synced_dir = FsyncDirOf(new_path); !synced_dir.ok()) {
      return abandon(synced_dir);
    }
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Re-locate by id: a concurrent rotation may have shifted positions.
    // Only this (single) compaction call removes segments, so it is there.
    size_t idx = segments_.size();
    for (size_t i = 0; i < segments_.size(); ++i) {
      if (segments_[i].id == candidate.id) {
        idx = i;
        break;
      }
    }
    if (idx == segments_.size()) {
      return Status::Internal("compaction candidate segment vanished");
    }
    Segment replaced = std::move(segments_[idx]);
    if (live.empty()) {
      segments_.erase(segments_.begin() + static_cast<ptrdiff_t>(idx));
    } else {
      segments_[idx] =
          Segment{result.new_segment_id, new_path,
                  static_cast<uint64_t>(live.size()), {}};
    }
    Status manifest = WriteManifestLocked();
    if (!manifest.ok()) {
      // Restore the in-memory list so the next call retries this segment.
      if (live.empty()) {
        segments_.insert(segments_.begin() + static_cast<ptrdiff_t>(idx),
                         std::move(replaced));
      } else {
        segments_[idx] = std::move(replaced);
      }
      if (!crashed_ && !new_path.empty()) std::remove(new_path.c_str());
      return manifest;
    }
  }

  // The manifest no longer references the retired file; remove it. A crash
  // before the remove leaves an orphan for the next open's cleanup.
  INSIGHTNOTES_RETURN_IF_ERROR(Fault("retire_remove"));
  std::remove(candidate.path.c_str());
  INSIGHTNOTES_RETURN_IF_ERROR(Fault("retire_dir_fsync"));
  INSIGHTNOTES_RETURN_IF_ERROR(FsyncDirOf(candidate.path));
  return result;
}

Status SegmentedWal::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  Status result = Status::OK();
  if (active_ != nullptr) {
    result = active_->Close();
    active_.reset();
  }
  return result;
}

bool SegmentedWal::is_open() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_ != nullptr;
}

bool SegmentedWal::failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return crashed_ || (active_ != nullptr && active_->failed());
}

uint64_t SegmentedWal::num_appended() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return num_appended_;
}

size_t SegmentedWal::num_segments() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return segments_.size();
}

std::vector<SegmentedWal::SegmentStats> SegmentedWal::Segments() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SegmentStats> out;
  out.reserve(segments_.size());
  for (size_t i = 0; i < segments_.size(); ++i) {
    const Segment& s = segments_[i];
    out.push_back(SegmentStats{s.id, s.records, s.dead.size(),
                               i + 1 == segments_.size()});
  }
  return out;
}

Result<uint64_t> SegmentedWal::TotalBytes() const {
  std::vector<std::string> paths;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Segment& s : segments_) paths.push_back(s.path);
    paths.push_back(ManifestPathFor(base_));
  }
  uint64_t total = 0;
  for (const std::string& path : paths) {
    std::error_code ec;
    uint64_t size = fs::file_size(path, ec);
    if (!ec) total += size;
  }
  return total;
}

}  // namespace insightnotes::storage
