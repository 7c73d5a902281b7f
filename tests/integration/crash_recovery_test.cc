// Crash-recovery acceptance suite: a 500-annotation ingest is interrupted
// by scripted faults (transient EIO, torn page writes, hard crash
// cut-offs) at swept operation indices; after reopen + WAL replay the
// annotation store and the maintained summaries must be byte-identical
// (serialized snapshots) to an uninterrupted oracle, and the recovery
// audit must flag every injected torn page.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/summary_instance.h"
#include "exec/index_scan.h"
#include "storage/fault_injection.h"
#include "storage/wal_segments.h"
#include "testutil.h"

namespace insightnotes::core {
namespace {

constexpr size_t kNumAnnotations = 500;
constexpr size_t kNumRows = 10;

// Fault points swept per fault type. Each point is a full
// ingest -> crash -> reopen -> compare cycle, so the sweep samples the op
// range instead of visiting every index.
constexpr size_t kSweepPoints = 10;

std::vector<AnnotateSpec> MakeSpecs() {
  static const char* kThemes[] = {
      "eating stonewort foraging flying migration behavior seen near the reed beds",
      "influenza infection sick parasite disease lesion found on the left wing",
      "size weight wingspan beak feathers anatomy large adult specimen measured",
      "article wikipedia photo link reference misc material filed for later",
  };
  std::vector<AnnotateSpec> specs;
  specs.reserve(kNumAnnotations);
  for (size_t i = 0; i < kNumAnnotations; ++i) {
    AnnotateSpec spec;
    spec.table = "notes";
    spec.row = static_cast<rel::RowId>(i % kNumRows);
    if (i % 3 == 1) spec.columns = {1};
    spec.author = "tester-" + std::to_string(i % 7);
    spec.timestamp = 1437004800 + static_cast<int64_t>(i);
    spec.body = std::string(kThemes[i % 4]) + ". Observation " + std::to_string(i) +
                " with enough trailing detail text to spread the annotation "
                "bodies across many heap-file pages.";
    if (i % 25 == 0) {
      spec.kind = ann::AnnotationKind::kDocument;
      spec.title = "Field report " + std::to_string(i);
      spec.body += " Extended document section follows. " + spec.body;
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// A plain disk that records the kind of every page operation, so the
/// sweeps know which global op indices exist and which of them are writes.
class OpRecordingDiskManager final : public storage::DiskManager {
 public:
  Status ReadPage(storage::PageId id, char* out) override {
    ops.push_back('r');
    return DiskManager::ReadPage(id, out);
  }
  Status WritePage(storage::PageId id, const char* data) override {
    ops.push_back('w');
    return DiskManager::WritePage(id, data);
  }

  std::vector<char> ops;
};

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_path_ = ::testing::TempDir() + "/insightnotes_crash_" +
               std::to_string(reinterpret_cast<uintptr_t>(this)) + ".db";
    RemoveDbFiles();
    specs_ = MakeSpecs();
    oracle_ = BuildOracle(/*with_extras=*/false);
    ASSERT_FALSE(oracle_.empty());
  }
  void TearDown() override { RemoveDbFiles(); }

  /// Removes the page file plus every WAL artifact (segments, manifest,
  /// temp leftovers) — all share the db path as a name prefix.
  void RemoveDbFiles() { RemoveFilesWithPrefix(db_path_); }

  static void RemoveFilesWithPrefix(const std::string& prefix) {
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::path dir = fs::path(prefix).parent_path();
    const std::string stem = fs::path(prefix).filename().string();
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
      const std::string name = it->path().filename().string();
      if (name.rfind(stem, 0) == 0) {
        std::error_code remove_ec;
        fs::remove(it->path(), remove_ec);
      }
    }
  }

  /// Copies the page file + WAL artifacts to a sibling path prefix, so one
  /// crashed database can be recovered several times from identical bytes.
  static void CopyDbFiles(const std::string& from, const std::string& to) {
    namespace fs = std::filesystem;
    RemoveFilesWithPrefix(to);
    std::error_code ec;
    fs::path dir = fs::path(from).parent_path();
    const std::string stem = fs::path(from).filename().string();
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
      const std::string name = it->path().filename().string();
      if (name.rfind(stem, 0) == 0) {
        std::error_code copy_ec;
        fs::copy_file(it->path(), fs::path(to + name.substr(stem.size())),
                      fs::copy_options::overwrite_existing, copy_ec);
        ASSERT_FALSE(copy_ec) << "copying " << name << ": " << copy_ec.message();
      }
    }
  }

  /// Total bytes of every WAL artifact (segments + manifest).
  uintmax_t WalBytes() const {
    namespace fs = std::filesystem;
    uintmax_t total = 0;
    std::error_code ec;
    fs::path dir = fs::path(db_path_).parent_path();
    const std::string stem = fs::path(db_path_).filename().string() + ".wal";
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
      const std::string name = it->path().filename().string();
      if (name.rfind(stem, 0) == 0) {
        std::error_code size_ec;
        uintmax_t size = fs::file_size(it->path(), size_ec);
        if (!size_ec) total += size;
      }
    }
    return total;
  }

  static std::string ReadFileBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }

  EngineOptions FileBackedOptions(std::shared_ptr<storage::DiskManager> disk = nullptr,
                                  bool open_existing = false) {
    EngineOptions options;
    options.db_path = db_path_;
    options.buffer_pool_pages = 8;  // Small pool: ingest must do real I/O.
    options.open_existing = open_existing;
    options.disk = std::move(disk);
    options.io_retry.sleep = [](int64_t) {};  // Backoff without wall-clock cost.
    return options;
  }

  /// Creates the notes table (10 rows), a trained classifier and a snippet
  /// instance, and links both. Run after Init (and after recovery replay:
  /// schema and instances are configuration, not WAL state).
  void SetupDatabase(Engine* engine) {
    ASSERT_TRUE(engine
                    ->CreateTable("notes",
                                  rel::Schema({{"id", rel::ValueType::kInt64, "notes"},
                                               {"label", rel::ValueType::kString, "notes"}}))
                    .ok());
    for (size_t i = 0; i < kNumRows; ++i) {
      auto row = engine->Insert("notes", rel::Tuple({testutil::I(static_cast<int64_t>(i)),
                                                     testutil::S("row" + std::to_string(i))}));
      ASSERT_TRUE(row.ok());
      ASSERT_EQ(*row, static_cast<rel::RowId>(i));
    }

    auto classifier = SummaryInstance::MakeClassifier(
        "BirdClass", {"Behavior", "Disease", "Anatomy", "Other"});
    auto* nb = classifier->classifier();
    ASSERT_TRUE(nb->Train(0, "eating stonewort foraging flying migration behavior").ok());
    ASSERT_TRUE(nb->Train(1, "influenza infection sick parasite disease lesion").ok());
    ASSERT_TRUE(nb->Train(2, "size weight wingspan beak feathers anatomy large").ok());
    ASSERT_TRUE(nb->Train(3, "article wikipedia photo link reference misc").ok());
    ASSERT_TRUE(engine->RegisterInstance(std::move(classifier)).ok());

    mining::SnippetOptions snippet_opts;
    snippet_opts.max_sentences = 1;
    snippet_opts.max_chars = 120;
    ASSERT_TRUE(
        engine->RegisterInstance(SummaryInstance::MakeSnippet("Snippets", snippet_opts)).ok());

    ASSERT_TRUE(engine->LinkInstance("BirdClass", "notes").ok());
    ASSERT_TRUE(engine->LinkInstance("Snippets", "notes").ok());
  }

  /// Post-batch mutations exercising the Attach and Archive WAL records.
  void ApplyExtras(Engine* engine) {
    ASSERT_TRUE(engine->AttachAnnotation(0, "notes", 5, {0}).ok());
    ASSERT_TRUE(engine->ArchiveAnnotation(7).ok());
  }

  /// Serializes everything recovery must reproduce: every stored
  /// annotation (all fields + regions + archived flag) and the rendered
  /// summary objects of every row.
  std::string Snapshot(Engine* engine) {
    std::ostringstream out;
    auto* store = engine->annotations();
    out << "annotations=" << store->NumAnnotations()
        << " attachments=" << store->NumAttachments() << "\n";
    for (ann::AnnotationId id = 0; id < store->NumAnnotations(); ++id) {
      auto note = store->Get(id);
      if (!note.ok()) {
        out << id << "|ERROR " << note.status().ToString() << "\n";
        continue;
      }
      out << id << "|" << static_cast<int>(note->kind) << "|" << note->author << "|"
          << note->timestamp << "|" << note->title << "|" << note->body << "|"
          << note->archived;
      auto regions = store->RegionsOf(id);
      if (regions.ok()) {
        for (const ann::CellRegion& region : *regions) {
          out << "|" << region.table << ":" << region.row << ":";
          for (size_t column : region.columns) out << column << ",";
        }
      }
      out << "\n";
    }
    auto table = engine->catalog()->GetTable("notes");
    auto pinned = engine->PinSnapshot();
    if (!pinned.ok()) out << "pin: ERROR " << pinned.status().ToString() << "\n";
    if (table.ok() && pinned.ok()) {
      for (rel::RowId row = 0; row < static_cast<rel::RowId>(kNumRows); ++row) {
        for (const auto& object : (*pinned)->SummariesFor((*table)->id(), row)) {
          out << "row " << row << ": " << object->Render() << "\n";
        }
      }
    }
    return out.str();
  }

  /// Uninterrupted in-memory run of the same workload: the ground truth
  /// every faulted run must converge back to.
  std::string BuildOracle(bool with_extras) {
    Engine engine;  // In-memory: no page file, no WAL.
    EXPECT_TRUE(engine.Init().ok());
    SetupDatabase(&engine);
    if (::testing::Test::HasFatalFailure()) return "";
    auto ids = engine.AnnotateBatch(specs_);
    EXPECT_TRUE(ids.ok());
    if (with_extras) ApplyExtras(&engine);
    return Snapshot(&engine);
  }

  /// Clean file-backed run on a recording disk: yields the deterministic
  /// op-index range [batch_begin, batch_end) of the ingest and the op
  /// kinds, which the fault sweeps sample.
  void ProbeOpStream(std::vector<char>* ops, uint64_t* batch_begin, uint64_t* batch_end) {
    RemoveDbFiles();
    auto disk = std::make_shared<OpRecordingDiskManager>();
    Engine engine(FileBackedOptions(disk));
    ASSERT_TRUE(engine.Init().ok());
    SetupDatabase(&engine);
    *batch_begin = disk->ops.size();
    auto ids = engine.AnnotateBatch(specs_);
    ASSERT_TRUE(ids.ok()) << ids.status().ToString();
    *batch_end = disk->ops.size();
    ASSERT_GT(*batch_end, *batch_begin)
        << "ingest produced no disk I/O; shrink the buffer pool";
    *ops = disk->ops;
  }

  static std::vector<uint64_t> SamplePoints(const std::vector<uint64_t>& candidates) {
    std::vector<uint64_t> points;
    if (candidates.empty()) return points;
    size_t stride = std::max<size_t>(1, candidates.size() / kSweepPoints);
    for (size_t i = 0; i < candidates.size(); i += stride) points.push_back(candidates[i]);
    if (points.back() != candidates.back()) points.push_back(candidates.back());
    return points;
  }

  /// Reopens the database after a simulated crash and checks the recovered
  /// state against the oracle. Returns the recovery report for
  /// fault-specific assertions.
  RecoveryReport RecoverAndCompare(const std::string& context) {
    Engine engine(FileBackedOptions(nullptr, /*open_existing=*/true));
    EXPECT_TRUE(engine.Init().ok()) << context;
    EXPECT_TRUE(engine.recovery().performed) << context;
    EXPECT_EQ(engine.recovery().wal_records_replayed, kNumAnnotations) << context;
    SetupDatabase(&engine);  // Link() re-summarizes the replayed annotations.
    EXPECT_EQ(Snapshot(&engine), oracle_) << context;
    EXPECT_TRUE(engine.Checkpoint().ok()) << context;
    return engine.recovery();
  }

  std::string db_path_;
  std::vector<AnnotateSpec> specs_;
  std::string oracle_;
};

TEST_F(CrashRecoveryTest, TransientFaultsAreAbsorbedByRetry) {
  std::vector<char> ops;
  uint64_t begin = 0, end = 0;
  ProbeOpStream(&ops, &begin, &end);

  std::vector<uint64_t> candidates;
  for (uint64_t k = begin; k < end; ++k) candidates.push_back(k);
  for (uint64_t k : SamplePoints(candidates)) {
    SCOPED_TRACE("transient EIO at op " + std::to_string(k));
    RemoveDbFiles();
    auto disk = std::make_shared<storage::FaultInjectingDiskManager>();
    Engine engine(FileBackedOptions(disk));
    ASSERT_TRUE(engine.Init().ok());
    SetupDatabase(&engine);
    disk->FailOnceAt(storage::IoOpKind::kAny, k);

    // The retry layer absorbs the fault: ingest completes and the engine
    // state matches the oracle with no recovery involved.
    auto ids = engine.AnnotateBatch(specs_);
    ASSERT_TRUE(ids.ok()) << ids.status().ToString();
    EXPECT_EQ(ids->size(), kNumAnnotations);
    EXPECT_EQ(disk->faults_injected(), 1u);
    EXPECT_EQ(Snapshot(&engine), oracle_);
    EXPECT_TRUE(engine.Checkpoint().ok());
  }
}

TEST_F(CrashRecoveryTest, HardCrashRecoversFromWalReplay) {
  std::vector<char> ops;
  uint64_t begin = 0, end = 0;
  ProbeOpStream(&ops, &begin, &end);

  std::vector<uint64_t> candidates;
  for (uint64_t k = begin; k < end; ++k) candidates.push_back(k);
  for (uint64_t k : SamplePoints(candidates)) {
    SCOPED_TRACE("hard crash at op " + std::to_string(k));
    RemoveDbFiles();
    auto disk = std::make_shared<storage::FaultInjectingDiskManager>();
    auto* faults = disk.get();
    {
      // The engine takes sole ownership: destroying it closes the disk and
      // flushes whatever the "crashed" process had managed to write.
      Engine engine(FileBackedOptions(std::move(disk)));
      ASSERT_TRUE(engine.Init().ok());
      SetupDatabase(&engine);
      faults->CrashAtOp(k);
      // The batch was WAL-committed before the first store mutation, so the
      // crash loses no annotations; the ingest itself fails.
      auto ids = engine.AnnotateBatch(specs_);
      EXPECT_FALSE(ids.ok());
      EXPECT_TRUE(faults->crashed());
      // The destructor's best-effort checkpoint also hits the dead disk; it
      // must degrade to a logged error, not a crash.
    }
    RecoverAndCompare("crash at op " + std::to_string(k));
  }
}

TEST_F(CrashRecoveryTest, TornPageWritesAreFlaggedAndRecovered) {
  std::vector<char> ops;
  uint64_t begin = 0, end = 0;
  ProbeOpStream(&ops, &begin, &end);

  std::vector<uint64_t> write_indices;
  for (uint64_t k = begin; k < end; ++k) {
    if (ops[k] == 'w') write_indices.push_back(k);
  }
  ASSERT_FALSE(write_indices.empty());
  for (uint64_t k : SamplePoints(write_indices)) {
    SCOPED_TRACE("torn write at op " + std::to_string(k));
    RemoveDbFiles();
    auto disk = std::make_shared<storage::FaultInjectingDiskManager>();
    auto* faults = disk.get();
    {
      Engine engine(FileBackedOptions(std::move(disk)));
      ASSERT_TRUE(engine.Init().ok());
      SetupDatabase(&engine);
      // Tear the page at op k, keeping only the stamped checksum word and
      // a sliver of the header — the appended record bytes near the page
      // tail are lost, so the stored checksum cannot match. The crash at
      // k+1 kills the retry that would otherwise heal the page, so the
      // tear survives to the reopen.
      faults->TearWriteAt(k, /*keep_bytes=*/64);
      faults->CrashAtOp(k + 1);
      auto ids = engine.AnnotateBatch(specs_);
      EXPECT_FALSE(ids.ok());
    }
    RecoveryReport report = RecoverAndCompare("torn write at op " + std::to_string(k));
    // The checksum audit must flag the injected torn page.
    EXPECT_GE(report.corrupt_pages, 1u);
    EXPECT_GT(report.pages_scanned, 0u);
  }
}

TEST_F(CrashRecoveryTest, CleanShutdownReopensWithoutCorruption) {
  std::string oracle_with_extras = BuildOracle(/*with_extras=*/true);
  ASSERT_FALSE(oracle_with_extras.empty());

  RemoveDbFiles();
  {
    Engine engine(FileBackedOptions());
    ASSERT_TRUE(engine.Init().ok());
    SetupDatabase(&engine);
    auto ids = engine.AnnotateBatch(specs_);
    ASSERT_TRUE(ids.ok());
    ApplyExtras(&engine);
    ASSERT_TRUE(engine.Checkpoint().ok());
  }

  Engine engine(FileBackedOptions(nullptr, /*open_existing=*/true));
  ASSERT_TRUE(engine.Init().ok());
  EXPECT_TRUE(engine.recovery().performed);
  // 500 adds + 1 attach + 1 archive.
  EXPECT_EQ(engine.recovery().wal_records_replayed, kNumAnnotations + 2);
  EXPECT_EQ(engine.recovery().corrupt_pages, 0u);
  EXPECT_GT(engine.recovery().pages_scanned, 0u);
  EXPECT_EQ(engine.recovery().wal_bytes_truncated, 0u);
  SetupDatabase(&engine);
  EXPECT_EQ(Snapshot(&engine), oracle_with_extras);
}

// Background compaction keeps the segmented log bounded: superseded
// records pile up in sealed segments, and the pass a checkpoint schedules
// retires them while the engine keeps running.
TEST_F(CrashRecoveryTest, CheckpointCompactionKeepsWalBounded) {
  RemoveDbFiles();
  std::vector<AnnotateSpec> specs(specs_.begin(), specs_.begin() + 20);
  EngineOptions options = FileBackedOptions();
  options.wal_segment_bytes = 512;  // Tiny segments: rotation is frequent.
  Engine engine(options);
  ASSERT_TRUE(engine.Init().ok());
  SetupDatabase(&engine);
  ASSERT_TRUE(engine.AnnotateBatch(specs).ok());
  ApplyExtras(&engine);
  // Re-archiving an archived annotation logs a record that is dead on
  // arrival; a few hundred of them fill whole segments with garbage.
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(engine.ArchiveAnnotation(7).ok());
  uintmax_t bytes_before = WalBytes();

  ASSERT_TRUE(engine.Checkpoint().ok());
  engine.WaitForWalCompaction();
  WalCompactionStats stats = engine.wal_compaction();
  EXPECT_GE(stats.compactions, 1u);
  EXPECT_GE(stats.segments_retired, 1u);
  EXPECT_GE(stats.records_dropped, 100u);
  EXPECT_EQ(stats.failures, 0u);
  // The retired garbage is actually gone from disk.
  EXPECT_LT(WalBytes(), bytes_before);

  // With no new mutations, further checkpoints converge: each marker kills
  // its predecessor, so the live set — and the bytes holding it — stops
  // growing once the dead segments are retired.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine.Checkpoint().ok());
    engine.WaitForWalCompaction();
  }
  EXPECT_EQ(engine.wal_compaction().failures, 0u);
  EXPECT_LT(WalBytes(), bytes_before);
}

// The compacted log must reproduce per-row attachment order, which
// cross-row attaches make different from annotation-id order.
TEST_F(CrashRecoveryTest, CompactedWalReplaysInterleavedAttachOrder) {
  RemoveDbFiles();
  std::vector<AnnotateSpec> specs(specs_.begin(), specs_.begin() + 30);
  auto mutate = [&](Engine* engine) {
    ASSERT_TRUE(engine->AnnotateBatch(specs).ok());
    // Row 1 now holds annotations in order {1, 11, 21, 20, 3}: the last two
    // attached out of id order, and 3 as a whole-row region.
    ASSERT_TRUE(engine->AttachAnnotation(20, "notes", 1, {0}).ok());
    ASSERT_TRUE(engine->AttachAnnotation(3, "notes", 1).ok());
    ASSERT_TRUE(engine->AttachAnnotation(15, "notes", 2, {1}).ok());
    ASSERT_TRUE(engine->ArchiveAnnotation(4).ok());
  };
  {
    EngineOptions options = FileBackedOptions();
    options.wal_segment_bytes = 512;  // Force rotation so compaction has work.
    Engine engine(options);
    ASSERT_TRUE(engine.Init().ok());
    SetupDatabase(&engine);
    mutate(&engine);
    ASSERT_TRUE(engine.Checkpoint().ok());
    engine.WaitForWalCompaction();
    ASSERT_TRUE(engine.Checkpoint().ok());  // The new marker retires the old.
    engine.WaitForWalCompaction();
  }
  Engine engine(FileBackedOptions(nullptr, /*open_existing=*/true));
  ASSERT_TRUE(engine.Init().ok());
  EXPECT_TRUE(engine.recovery().performed);
  SetupDatabase(&engine);
  Engine oracle;
  ASSERT_TRUE(oracle.Init().ok());
  SetupDatabase(&oracle);
  mutate(&oracle);
  EXPECT_EQ(Snapshot(&engine), Snapshot(&oracle));
}

// Compaction is an option: disabling it restores the append-only marker
// behavior, and recovery still converges to the same state.
TEST_F(CrashRecoveryTest, CompactionCanBeDisabled) {
  RemoveDbFiles();
  std::vector<AnnotateSpec> specs(specs_.begin(), specs_.begin() + 20);
  EngineOptions options = FileBackedOptions();
  options.compact_wal_on_checkpoint = false;
  {
    Engine engine(options);
    ASSERT_TRUE(engine.Init().ok());
    SetupDatabase(&engine);
    ASSERT_TRUE(engine.AnnotateBatch(specs).ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
    engine.WaitForWalCompaction();
    EXPECT_EQ(engine.wal_compaction().compactions, 0u);
    uintmax_t size_after_first = WalBytes();
    // Without compaction every checkpoint appends another marker record.
    ASSERT_TRUE(engine.Checkpoint().ok());
    engine.WaitForWalCompaction();
    EXPECT_EQ(engine.wal_compaction().compactions, 0u);
    EXPECT_GT(WalBytes(), size_after_first);
  }
  EngineOptions reopen = FileBackedOptions(nullptr, /*open_existing=*/true);
  reopen.compact_wal_on_checkpoint = false;
  Engine engine(reopen);
  ASSERT_TRUE(engine.Init().ok());
  EXPECT_EQ(engine.recovery().wal_records_replayed, specs.size());
  SetupDatabase(&engine);
  Engine oracle;
  ASSERT_TRUE(oracle.Init().ok());
  SetupDatabase(&oracle);
  ASSERT_TRUE(oracle.AnnotateBatch(specs).ok());
  EXPECT_EQ(Snapshot(&engine), Snapshot(&oracle));
}

// A transient store-apply failure must never make the database
// unrecoverable: the WAL-committed-but-unapplied record poisons the
// engine (further mutations are refused, so no later record can collide
// with its dense id), and the next reopen replays it back into the store.
TEST_F(CrashRecoveryTest, FailedStoreApplyPoisonsEngineUntilRecovery) {
  RemoveDbFiles();
  auto disk = std::make_shared<storage::FaultInjectingDiskManager>();
  auto* faults = disk.get();
  EngineOptions options = FileBackedOptions(disk);
  options.io_retry.max_attempts = 1;  // One injected EIO defeats the retry layer.
  std::vector<AnnotateSpec> committed;
  {
    Engine engine(options);
    ASSERT_TRUE(engine.Init().ok());
    SetupDatabase(&engine);
    // Annotate with a one-shot EIO armed at the next disk op until one
    // lands inside the store apply itself (faults that hit validation
    // reads fail before the WAL append; faults that hit summary
    // maintenance fail after the store grew — both leave the engine live).
    bool poisoned = false;
    for (size_t i = 0; i < 200 && !poisoned; ++i) {
      faults->FailOnceAt(storage::IoOpKind::kAny, faults->op_count());
      size_t before = engine.annotations()->NumAnnotations();
      auto id = engine.Annotate(specs_[i]);
      if (engine.requires_recovery()) {
        ASSERT_FALSE(id.ok());
        committed.push_back(specs_[i]);  // Committed to the WAL, unapplied.
        poisoned = true;
      } else if (id.ok() || engine.annotations()->NumAnnotations() > before) {
        committed.push_back(specs_[i]);
      }
    }
    ASSERT_TRUE(poisoned) << "no injected fault ever landed in a store apply";
    faults->Reset();
    // Even with the disk healed, the poisoned engine refuses mutations: a
    // new record would reuse the unapplied record's id and wreck replay.
    EXPECT_FALSE(engine.Annotate(specs_[0]).ok());
    std::vector<AnnotateSpec> one(specs_.begin(), specs_.begin() + 1);
    EXPECT_FALSE(engine.AnnotateBatch(one).ok());
    EXPECT_FALSE(engine.AttachAnnotation(0, "notes", 1).ok());
    EXPECT_FALSE(engine.ArchiveAnnotation(0).ok());
  }

  Engine engine(FileBackedOptions(nullptr, /*open_existing=*/true));
  ASSERT_TRUE(engine.Init().ok()) << "recovery after a failed apply must succeed";
  EXPECT_EQ(engine.recovery().wal_records_replayed, committed.size());
  SetupDatabase(&engine);
  Engine oracle;
  ASSERT_TRUE(oracle.Init().ok());
  SetupDatabase(&oracle);
  for (const AnnotateSpec& spec : committed) {
    ASSERT_TRUE(oracle.Annotate(spec).ok());
  }
  EXPECT_EQ(Snapshot(&engine), Snapshot(&oracle));
  EXPECT_FALSE(engine.requires_recovery());
}

// A recovery that fails (here: a WAL whose magic rotted) must leave the
// page file — the only other copy of the annotation bodies — exactly as
// it found it, instead of truncating it before the log was validated.
TEST_F(CrashRecoveryTest, FailedReplayRestoresThePageFile) {
  RemoveDbFiles();
  std::vector<AnnotateSpec> specs(specs_.begin(), specs_.begin() + 50);
  {
    Engine engine(FileBackedOptions());
    ASSERT_TRUE(engine.Init().ok());
    SetupDatabase(&engine);
    ASSERT_TRUE(engine.AnnotateBatch(specs).ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
  }
  std::string before = ReadFileBytes(db_path_);
  ASSERT_FALSE(before.empty());

  {
    const std::string segment =
        storage::SegmentedWal::SegmentPathFor(db_path_ + ".wal", 1);
    std::FILE* f = std::fopen(segment.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite("GARBAGE!", 1, 8, f), 8u);
    ASSERT_EQ(std::fclose(f), 0);
  }
  {
    Engine engine(FileBackedOptions(nullptr, /*open_existing=*/true));
    Status status = engine.Init();
    ASSERT_TRUE(status.IsCorruption()) << status.ToString();
  }
  EXPECT_EQ(ReadFileBytes(db_path_), before);
  EXPECT_FALSE(std::filesystem::exists(db_path_ + ".recovering"));
}

// A crash in the middle of recovery leaves the original page file parked
// at db_path + ".recovering"; the next open must adopt it and finish the
// job rather than treat the database as fresh (which would truncate the
// WAL and lose everything).
TEST_F(CrashRecoveryTest, InterruptedRecoveryAdoptsParkedPageFile) {
  RemoveDbFiles();
  std::vector<AnnotateSpec> specs(specs_.begin(), specs_.begin() + 50);
  {
    Engine engine(FileBackedOptions());
    ASSERT_TRUE(engine.Init().ok());
    SetupDatabase(&engine);
    ASSERT_TRUE(engine.AnnotateBatch(specs).ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
  }
  std::filesystem::rename(db_path_, db_path_ + ".recovering");

  Engine engine(FileBackedOptions(nullptr, /*open_existing=*/true));
  ASSERT_TRUE(engine.Init().ok());
  EXPECT_TRUE(engine.recovery().performed);
  EXPECT_EQ(engine.recovery().wal_records_replayed, specs.size());
  EXPECT_FALSE(std::filesystem::exists(db_path_ + ".recovering"));
  SetupDatabase(&engine);
  Engine oracle;
  ASSERT_TRUE(oracle.Init().ok());
  SetupDatabase(&oracle);
  ASSERT_TRUE(oracle.AnnotateBatch(specs).ok());
  EXPECT_EQ(Snapshot(&engine), Snapshot(&oracle));
}

// Crash-point sweep for segment rotation, background compaction, and the
// manifest/retire swaps: the segmented log is killed at EVERY scripted op
// of its fault schedule. All state-changing mutations happen before the
// hook is armed; the hooked phase appends only dead-on-arrival duplicate
// archives (logical no-ops), rotates, checkpoints and compacts — so
// whatever the crash point, the acknowledged history replays to the same
// oracle state. Closes the crash windows the segmented log introduced.
TEST_F(CrashRecoveryTest, CompactionCrashSweepRecoversAtEveryOp) {
  std::vector<AnnotateSpec> specs(specs_.begin(), specs_.begin() + 20);
  Engine memory_oracle;
  ASSERT_TRUE(memory_oracle.Init().ok());
  SetupDatabase(&memory_oracle);
  ASSERT_TRUE(memory_oracle.AnnotateBatch(specs).ok());
  ApplyExtras(&memory_oracle);
  std::string expected = Snapshot(&memory_oracle);

  EngineOptions options = FileBackedOptions();
  options.wal_segment_bytes = 256;  // Tiny segments: rotation + compaction fire.

  auto ingest = [&](Engine* engine) {
    SetupDatabase(engine);
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_TRUE(engine->AnnotateBatch(specs).ok());
    ApplyExtras(engine);
    // Settle into a deterministic compacted state before the hook arms.
    ASSERT_TRUE(engine->Checkpoint().ok());
    engine->WaitForWalCompaction();
  };
  auto hooked_phase = [](Engine* engine) {
    // Duplicate archives fill segments with dead-on-arrival records that
    // the checkpoint's compaction pass will want to retire. Once the
    // sweep's kill fires, the log refuses writes and these calls (and the
    // checkpoint) fail — expected, hence no status assertions.
    for (int i = 0; i < 40; ++i) engine->ArchiveAnnotation(7).ok();
    engine->Checkpoint().ok();
    engine->WaitForWalCompaction();
  };

  // Probe pass: record the deterministic op schedule with a hook that
  // never fails, so the sweep below can kill each index exactly once.
  // Rotation ops fire on the engine thread mid-loop; compaction, manifest
  // and retire ops fire on the background thread while the engine waits.
  std::vector<std::string> op_names;
  {
    RemoveDbFiles();
    Engine engine(options);
    ASSERT_TRUE(engine.Init().ok());
    ingest(&engine);
    std::mutex names_mutex;
    engine.wal()->SetFaultHook([&op_names, &names_mutex](const char* op) {
      std::lock_guard<std::mutex> lock(names_mutex);
      op_names.emplace_back(op);
      return Status::OK();
    });
    hooked_phase(&engine);
    engine.wal()->SetFaultHook(nullptr);
  }
  auto seen = [&](const char* name) {
    return std::find(op_names.begin(), op_names.end(), name) != op_names.end();
  };
  ASSERT_TRUE(seen("rotate_create")) << "no rotation fired under the hook";
  ASSERT_TRUE(seen("rotate_dir_fsync"));
  ASSERT_TRUE(seen("manifest_rename"));
  ASSERT_TRUE(seen("manifest_dir_fsync"));
  ASSERT_TRUE(seen("compact_read")) << "no compaction pass fired under the hook";
  ASSERT_TRUE(seen("retire_remove"));
  ASSERT_TRUE(seen("retire_dir_fsync"));

  for (size_t kill = 0; kill < op_names.size(); ++kill) {
    SCOPED_TRACE("crash at scripted op " + std::to_string(kill) + " (" +
                 op_names[kill] + ")");
    RemoveDbFiles();
    {
      Engine engine(options);
      ASSERT_TRUE(engine.Init().ok());
      ingest(&engine);
      std::atomic<size_t> fired{0};
      engine.wal()->SetFaultHook([&fired, kill](const char* op) -> Status {
        if (fired.fetch_add(1, std::memory_order_relaxed) == kill) {
          return Status::IoError(std::string("simulated crash at ") + op);
        }
        return Status::OK();
      });
      hooked_phase(&engine);
      engine.wal()->SetFaultHook(nullptr);
      EXPECT_TRUE(engine.wal()->failed());
      // The destructor's best-effort checkpoint on the dead log degrades
      // to a logged error.
    }
    EngineOptions reopen = options;
    reopen.open_existing = true;
    Engine engine(reopen);
    ASSERT_TRUE(engine.Init().ok());
    EXPECT_TRUE(engine.recovery().performed);
    SetupDatabase(&engine);
    EXPECT_EQ(Snapshot(&engine), expected);
    // The reopened log checkpoints and compacts cleanly, retiring whatever
    // garbage the crash stranded.
    EXPECT_TRUE(engine.Checkpoint().ok());
    engine.WaitForWalCompaction();
    EXPECT_EQ(engine.wal_compaction().failures, 0u);
  }
}

// The number of replay workers is an implementation detail: at every
// thread count the recovered store and summaries must be byte-identical to
// the in-memory oracle, the chain partition must be the same, and the
// report must say how many workers ran.
TEST_F(CrashRecoveryTest, RecoveryIsIdenticalAtEveryThreadCount) {
  RemoveDbFiles();
  std::string oracle_with_extras = BuildOracle(/*with_extras=*/true);
  ASSERT_FALSE(oracle_with_extras.empty());
  {
    Engine engine(FileBackedOptions());
    ASSERT_TRUE(engine.Init().ok());
    SetupDatabase(&engine);
    ASSERT_TRUE(engine.AnnotateBatch(specs_).ok());
    ApplyExtras(&engine);
    ASSERT_TRUE(engine.Checkpoint().ok());
    engine.WaitForWalCompaction();
  }

  uint64_t chains = 0;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("recovery_threads=" + std::to_string(threads));
    // Replay a byte-identical copy each time: recovering mutates the files.
    const std::string copy_path = ::testing::TempDir() + "/insightnotes_parrec_" +
                                  std::to_string(reinterpret_cast<uintptr_t>(this)) +
                                  "_" + std::to_string(threads) + ".db";
    CopyDbFiles(db_path_, copy_path);
    if (::testing::Test::HasFatalFailure()) return;
    EngineOptions options = FileBackedOptions(nullptr, /*open_existing=*/true);
    options.db_path = copy_path;
    options.recovery_threads = threads;
    {
      Engine engine(options);
      ASSERT_TRUE(engine.Init().ok());
      EXPECT_TRUE(engine.recovery().performed);
      // 500 adds + 1 attach + 1 archive; markers don't count.
      EXPECT_EQ(engine.recovery().wal_records_replayed, kNumAnnotations + 2);
      EXPECT_EQ(engine.recovery().replay_threads, threads);
      // The 10 rows partition the log into per-row chains (the cross-row
      // attach merges two of them); the partition is a pure function of the
      // log, so every thread count sees the same count.
      EXPECT_GE(engine.recovery().replay_chains, 2u);
      if (chains == 0) {
        chains = engine.recovery().replay_chains;
      } else {
        EXPECT_EQ(engine.recovery().replay_chains, chains);
      }
      SetupDatabase(&engine);
      EXPECT_EQ(Snapshot(&engine), oracle_with_extras);
    }
    RemoveFilesWithPrefix(copy_path);
  }
}

// A failed background pass must not advance the "log is compact"
// accounting: it counts as a failure, retires nothing, and leaves the
// candidate segment on disk so the next checkpoint retries it.
TEST_F(CrashRecoveryTest, FailedCompactionKeepsSegmentForRetry) {
  RemoveDbFiles();
  std::vector<AnnotateSpec> specs(specs_.begin(), specs_.begin() + 20);
  Engine memory_oracle;
  ASSERT_TRUE(memory_oracle.Init().ok());
  SetupDatabase(&memory_oracle);
  ASSERT_TRUE(memory_oracle.AnnotateBatch(specs).ok());
  ApplyExtras(&memory_oracle);
  std::string expected = Snapshot(&memory_oracle);

  EngineOptions options = FileBackedOptions();
  options.wal_segment_bytes = 256;
  const std::string wal_base = db_path_ + ".wal";
  std::vector<uint64_t> dead_segments;
  {
    Engine engine(options);
    ASSERT_TRUE(engine.Init().ok());
    SetupDatabase(&engine);
    ASSERT_TRUE(engine.AnnotateBatch(specs).ok());
    ApplyExtras(&engine);
    // Duplicate archives: dead-on-arrival records that fill whole sealed
    // segments with garbage compaction will want to retire.
    for (int i = 0; i < 80; ++i) ASSERT_TRUE(engine.ArchiveAnnotation(7).ok());
    for (const auto& s : engine.wal()->Segments()) {
      if (!s.active && s.records > 0 && s.dead == s.records) {
        dead_segments.push_back(s.id);
      }
    }
    ASSERT_FALSE(dead_segments.empty()) << "no fully-dead sealed segment formed";

    engine.wal()->SetFaultHook([](const char* op) -> Status {
      if (std::string(op) == "compact_read") {
        return Status::IoError("simulated crash reading the candidate");
      }
      return Status::OK();
    });
    ASSERT_TRUE(engine.Checkpoint().ok());  // The marker lands; the pass dies.
    engine.WaitForWalCompaction();
    WalCompactionStats stats = engine.wal_compaction();
    EXPECT_GE(stats.failures, 1u);
    EXPECT_EQ(stats.compactions, 0u);
    EXPECT_EQ(stats.segments_retired, 0u);
    EXPECT_EQ(stats.records_dropped, 0u);
  }

  // Nothing was retired: the candidate segments are still on disk.
  for (uint64_t id : dead_segments) {
    EXPECT_TRUE(std::filesystem::exists(
        storage::SegmentedWal::SegmentPathFor(wal_base, id)))
        << "segment " << id;
  }

  EngineOptions reopen = options;
  reopen.open_existing = true;
  Engine engine(reopen);
  ASSERT_TRUE(engine.Init().ok());
  SetupDatabase(&engine);
  EXPECT_EQ(Snapshot(&engine), expected);
  // Replay re-derived the liveness, so this checkpoint retries — and
  // retires — the very segments the failed pass left behind.
  ASSERT_TRUE(engine.Checkpoint().ok());
  engine.WaitForWalCompaction();
  EXPECT_EQ(engine.wal_compaction().failures, 0u);
  EXPECT_GE(engine.wal_compaction().segments_retired, dead_segments.size());
  for (uint64_t id : dead_segments) {
    EXPECT_FALSE(std::filesystem::exists(
        storage::SegmentedWal::SegmentPathFor(wal_base, id)))
        << "segment " << id;
  }
}

// Checkpoint schedules compaction and returns without waiting for it: a
// stalled background pass must block neither the checkpoint call nor
// concurrent mutations. (A blocking checkpoint would deadlock here, so
// the test completing at all is the assertion.)
TEST_F(CrashRecoveryTest, CheckpointReturnsWhileCompactionRuns) {
  RemoveDbFiles();
  std::vector<AnnotateSpec> specs(specs_.begin(), specs_.begin() + 20);
  EngineOptions options = FileBackedOptions();
  options.wal_segment_bytes = 256;
  Engine engine(options);
  ASSERT_TRUE(engine.Init().ok());
  SetupDatabase(&engine);
  ASSERT_TRUE(engine.AnnotateBatch(specs).ok());
  ApplyExtras(&engine);
  for (int i = 0; i < 80; ++i) ASSERT_TRUE(engine.ArchiveAnnotation(7).ok());

  std::atomic<bool> stalled{false};
  std::atomic<bool> release{false};
  engine.wal()->SetFaultHook([&stalled, &release](const char* op) -> Status {
    if (std::string(op) == "compact_read" && !release.load()) {
      stalled.store(true);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return Status::OK();
  });
  ASSERT_TRUE(engine.Checkpoint().ok());  // Returns while the pass is held.
  while (!stalled.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // The pass has not finished, yet the engine keeps accepting mutations.
  EXPECT_EQ(engine.wal_compaction().compactions, 0u);
  ASSERT_TRUE(engine.ArchiveAnnotation(7).ok());
  release.store(true);
  engine.WaitForWalCompaction();
  EXPECT_GE(engine.wal_compaction().compactions, 1u);
  EXPECT_EQ(engine.wal_compaction().failures, 0u);
  engine.wal()->SetFaultHook(nullptr);
}

// The park rename that moves the page file aside at the start of recovery
// is followed by a parent-directory fsync through the DiskManager seam; a
// fault injected there must fail Init and leave the page file restored
// byte-identical, ready for a clean retry.
TEST_F(CrashRecoveryTest, ParkDirFsyncFaultRestoresPageFile) {
  RemoveDbFiles();
  std::vector<AnnotateSpec> specs(specs_.begin(), specs_.begin() + 30);
  {
    Engine engine(FileBackedOptions());
    ASSERT_TRUE(engine.Init().ok());
    SetupDatabase(&engine);
    ASSERT_TRUE(engine.AnnotateBatch(specs).ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
  }
  std::string before = ReadFileBytes(db_path_);
  ASSERT_FALSE(before.empty());

  {
    auto disk = std::make_shared<storage::FaultInjectingDiskManager>();
    // Arm a directory-fsync fault at every op index: the first FsyncDir
    // call — the park rename's — trips it whatever its position.
    for (uint64_t k = 0; k < 1 << 14; ++k) {
      disk->FailOnceAt(storage::IoOpKind::kDirFsync, k);
    }
    Engine engine(FileBackedOptions(disk, /*open_existing=*/true));
    Status status = engine.Init();
    ASSERT_FALSE(status.ok());
    EXPECT_GE(disk->faults_injected(), 1u);
  }
  EXPECT_EQ(ReadFileBytes(db_path_), before);
  EXPECT_FALSE(std::filesystem::exists(db_path_ + ".recovering"));

  // With the disk healed, recovery completes and matches the oracle.
  Engine engine(FileBackedOptions(nullptr, /*open_existing=*/true));
  ASSERT_TRUE(engine.Init().ok());
  EXPECT_EQ(engine.recovery().wal_records_replayed, specs.size());
  SetupDatabase(&engine);
  Engine oracle;
  ASSERT_TRUE(oracle.Init().ok());
  SetupDatabase(&oracle);
  ASSERT_TRUE(oracle.AnnotateBatch(specs).ok());
  EXPECT_EQ(Snapshot(&engine), Snapshot(&oracle));
}

// A database from the single-file WAL era (one `<db>.wal`, no manifest)
// must be adopted in place: the file becomes segment 1, a manifest is
// written, and replay proceeds as usual.
TEST_F(CrashRecoveryTest, LegacySingleFileWalIsMigrated) {
  RemoveDbFiles();
  std::vector<AnnotateSpec> specs(specs_.begin(), specs_.begin() + 30);
  {
    Engine engine(FileBackedOptions());
    ASSERT_TRUE(engine.Init().ok());
    SetupDatabase(&engine);
    ASSERT_TRUE(engine.AnnotateBatch(specs).ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
    engine.WaitForWalCompaction();
  }
  // Reshape the on-disk layout into the single-file era: the one segment
  // becomes `<db>.wal`, the manifest disappears.
  const std::string wal_base = db_path_ + ".wal";
  const std::string segment1 = storage::SegmentedWal::SegmentPathFor(wal_base, 1);
  ASSERT_TRUE(std::filesystem::exists(segment1));
  std::filesystem::rename(segment1, wal_base);
  std::filesystem::remove(storage::SegmentedWal::ManifestPathFor(wal_base));

  Engine engine(FileBackedOptions(nullptr, /*open_existing=*/true));
  ASSERT_TRUE(engine.Init().ok());
  EXPECT_TRUE(engine.recovery().performed);
  EXPECT_EQ(engine.recovery().wal_records_replayed, specs.size());
  // The legacy file was migrated, not copied: segment 1 + manifest.
  EXPECT_FALSE(std::filesystem::exists(wal_base));
  EXPECT_TRUE(std::filesystem::exists(segment1));
  EXPECT_TRUE(
      std::filesystem::exists(storage::SegmentedWal::ManifestPathFor(wal_base)));
  SetupDatabase(&engine);
  Engine oracle;
  ASSERT_TRUE(oracle.Init().ok());
  SetupDatabase(&oracle);
  ASSERT_TRUE(oracle.AnnotateBatch(specs).ok());
  EXPECT_EQ(Snapshot(&engine), Snapshot(&oracle));
}

TEST_F(CrashRecoveryTest, SummarizerFailuresDegradeToStaleRows) {
  Engine engine;
  ASSERT_TRUE(engine.Init().ok());
  SetupDatabase(&engine);

  // Every classifier fold fails; ingest must still succeed, with the
  // damaged rows marked stale instead of the batch erroring out.
  engine.summaries()->SetSummarizerFaultHook(
      [](const std::string& instance, const ann::Annotation&) -> Status {
        if (instance == "BirdClass") return Status::IoError("summarizer knocked out");
        return Status::OK();
      });
  std::vector<AnnotateSpec> specs(specs_.begin(), specs_.begin() + 40);
  auto ids = engine.AnnotateBatch(specs);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();

  auto table = engine.catalog()->GetTable("notes");
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(engine.summaries()->IsStale((*table)->id(), 3));
  EXPECT_EQ(engine.summaries()->StaleRows().size(), kNumRows);  // 40 specs hit all 10 rows.

  // Once the summarizer heals, RepairStale rebuilds exactly the damaged
  // rows and the state matches an engine that never failed.
  engine.summaries()->SetSummarizerFaultHook(nullptr);
  auto repaired = engine.RepairStaleSummaries();
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  EXPECT_EQ(*repaired, kNumRows);
  EXPECT_TRUE(engine.summaries()->StaleRows().empty());

  Engine healthy;
  ASSERT_TRUE(healthy.Init().ok());
  SetupDatabase(&healthy);
  ASSERT_TRUE(healthy.AnnotateBatch(specs).ok());
  EXPECT_EQ(Snapshot(&engine), Snapshot(&healthy));
}

// --- Persistent-index crash sweep -------------------------------------------
//
// The index file gets its own fault seam (EngineOptions::index_disk), so
// the sweep can kill index I/O at every sampled operation while the WAL
// and page file stay healthy — exactly the shadow-paging contract under
// test: whatever the crash point (mid-build, mid-split, mid-merge,
// mid-root-grow, mid-checkpoint-flush), reopening must serve either the
// last *committed* index epoch (caught up by the setup replay) or, when
// no index checkpoint ever committed, no index at all — and a re-run
// CREATE INDEX plus probes must match the no-crash oracle byte for byte.

class IndexCrashSweepTest : public ::testing::Test {
 protected:
  static constexpr int64_t kKeySpan = 40;   // id = (i * 11) % kKeySpan.
  static constexpr uint64_t kBuildRows = 120;   // Present at CREATE INDEX.
  static constexpr uint64_t kGrowRows = 80;     // Inserted afterwards.
  static constexpr uint64_t kDeleteEvery = 3;   // Drives merges/collapses.

  void SetUp() override {
    db_path_ = ::testing::TempDir() + "/insightnotes_idx_crash_" +
               std::to_string(reinterpret_cast<uintptr_t>(this)) + ".db";
    RemoveDbFiles();
    oracle_ = BuildOracle();
    ASSERT_FALSE(oracle_.empty());
  }
  void TearDown() override { RemoveDbFiles(); }

  void RemoveDbFiles() {
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::path dir = fs::path(db_path_).parent_path();
    const std::string stem = fs::path(db_path_).filename().string();
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
      if (it->path().filename().string().rfind(stem, 0) == 0) {
        std::error_code remove_ec;
        fs::remove(it->path(), remove_ec);
      }
    }
  }

  EngineOptions Options(std::shared_ptr<storage::DiskManager> index_disk,
                        bool open_existing) {
    EngineOptions options;
    options.db_path = db_path_;
    options.open_existing = open_existing;
    options.index_disk = std::move(index_disk);
    options.index_max_node_entries = 4;  // Minimum fanout: deep trees,
    options.index_pool_pages = 8;        // every op hits real index I/O.
    options.io_retry.sleep = [](int64_t) {};
    return options;
  }

  static rel::Tuple Row(uint64_t i) {
    return rel::Tuple(
        {testutil::I(static_cast<int64_t>((i * 11) % kKeySpan))});
  }

  static void CreateTable(Engine* engine) {
    ASSERT_TRUE(engine
                    ->CreateTable("t", rel::Schema({{"id", rel::ValueType::kInt64,
                                                     "t"}}))
                    .ok());
  }

  /// The scripted index workload: build over kBuildRows (splits during the
  /// build), checkpoint, grow (maintained splits + root growth), delete
  /// every kDeleteEvery-th row (merges, redistributes, root collapse),
  /// checkpoint again. Faults make individual steps fail — the script
  /// shrugs and carries on, exactly like an application would.
  static void RunScript(Engine* engine) {
    for (uint64_t i = 0; i < kBuildRows; ++i) {
      ASSERT_TRUE(engine->Insert("t", Row(i)).ok());
    }
    (void)engine->CreateIndex("t", "id");
    (void)engine->Checkpoint();
    for (uint64_t i = kBuildRows; i < kBuildRows + kGrowRows; ++i) {
      ASSERT_TRUE(engine->Insert("t", Row(i)).ok());
    }
    auto table = engine->catalog()->GetTable("t");
    ASSERT_TRUE(table.ok());
    for (uint64_t i = 0; i < kBuildRows + kGrowRows; i += kDeleteEvery) {
      ASSERT_TRUE((*table)->Delete(i).ok());
    }
    (void)engine->Checkpoint();
  }

  /// Re-applies the final row state after reopen (rows are configuration):
  /// insert everything, then re-delete the same set.
  static void ReplayRows(Engine* engine) {
    for (uint64_t i = 0; i < kBuildRows + kGrowRows; ++i) {
      ASSERT_TRUE(engine->Insert("t", Row(i)).ok());
    }
    auto table = engine->catalog()->GetTable("t");
    ASSERT_TRUE(table.ok());
    for (uint64_t i = 0; i < kBuildRows + kGrowRows; i += kDeleteEvery) {
      ASSERT_TRUE((*table)->Delete(i).ok());
    }
  }

  /// Serializes every query result the index answers: one equality probe
  /// per key plus full/partial ranges, with the probed tuples rendered.
  /// This is the byte-identity surface the sweep compares.
  static std::string ProbeSnapshot(Engine* engine) {
    auto table = engine->catalog()->GetTable("t");
    EXPECT_TRUE(table.ok());
    if (!table.ok()) return "";
    std::ostringstream out;
    auto render = [&](const exec::IndexProbeSpec& spec) {
      std::vector<rel::RowId> rows;
      Status s = exec::ProbeIndex(**table, spec, &rows);
      if (!s.ok()) {
        out << "ERROR " << s.ToString() << "\n";
        return;
      }
      for (rel::RowId row : rows) {
        if (!(*table)->IsLive(row)) continue;
        auto tuple = (*table)->Get(row);
        EXPECT_TRUE(tuple.ok());
        if (tuple.ok()) out << row << ":" << tuple->ValueAt(0).ToString() << " ";
      }
      out << "\n";
    };
    for (int64_t key = 0; key < kKeySpan; ++key) {
      exec::IndexProbeSpec spec;
      spec.column = 0;
      spec.has_eq = true;
      spec.eq = testutil::I(key);
      out << "eq " << key << ": ";
      render(spec);
    }
    exec::IndexProbeSpec all;
    all.column = 0;
    out << "all: ";
    render(all);
    exec::IndexProbeSpec mid;
    mid.column = 0;
    mid.has_lo = true;
    mid.lo = testutil::I(kKeySpan / 4);
    mid.has_hi = true;
    mid.hi = testutil::I(3 * kKeySpan / 4);
    out << "mid: ";
    render(mid);
    return out.str();
  }

  /// Uninterrupted run of the same script: the ground truth.
  std::string BuildOracle() {
    RemoveDbFiles();
    Engine engine(Options(nullptr, /*open_existing=*/false));
    EXPECT_TRUE(engine.Init().ok());
    CreateTable(&engine);
    if (::testing::Test::HasFatalFailure()) return "";
    RunScript(&engine);
    auto table = engine.catalog()->GetTable("t");
    EXPECT_TRUE(table.ok() && (*table)->IndexOn(0) != nullptr);
    if (table.ok()) {
      EXPECT_TRUE((*table)->IndexOn(0)->tree()->CheckInvariants().ok());
    }
    std::string snapshot = ProbeSnapshot(&engine);
    RemoveDbFiles();
    return snapshot;
  }

  std::string db_path_;
  std::string oracle_;
};

TEST_F(IndexCrashSweepTest, IndexCrashAtEverySampledOpRecoversToOracle) {
  // Fault-free pass on a counting disk: the index-op range the sweep
  // samples. The same deterministic script reproduces the same op indices.
  uint64_t total_ops = 0;
  {
    RemoveDbFiles();
    auto probe_disk = std::make_shared<storage::FaultInjectingDiskManager>();
    Engine engine(Options(probe_disk, /*open_existing=*/false));
    ASSERT_TRUE(engine.Init().ok());
    CreateTable(&engine);
    RunScript(&engine);
    total_ops = probe_disk->op_count();
    ASSERT_GT(total_ops, 20u) << "index workload produced almost no index I/O";
  }

  constexpr uint64_t kSweep = 14;
  const uint64_t stride = std::max<uint64_t>(1, total_ops / kSweep);
  for (uint64_t crash_at = 1; crash_at <= total_ops; crash_at += stride) {
    SCOPED_TRACE("index crash at op " + std::to_string(crash_at) + " of " +
                 std::to_string(total_ops));
    RemoveDbFiles();
    {
      auto disk = std::make_shared<storage::FaultInjectingDiskManager>();
      disk->CrashAtOp(crash_at);
      Engine engine(Options(disk, /*open_existing=*/false));
      ASSERT_TRUE(engine.Init().ok());
      CreateTable(&engine);
      RunScript(&engine);
      // The engine "dies" here; its destructor checkpoint fails against
      // the crashed index disk, which must not corrupt anything either.
    }
    Engine engine(Options(nullptr, /*open_existing=*/true));
    ASSERT_TRUE(engine.Init().ok());
    CreateTable(&engine);
    ReplayRows(&engine);
    auto table = engine.catalog()->GetTable("t");
    ASSERT_TRUE(table.ok());
    if ((*table)->IndexOn(0) == nullptr) {
      // The crash predated the first committed index checkpoint: by
      // contract there is no index to adopt. The application re-runs its
      // DDL and ends up in the same place.
      ASSERT_TRUE(engine.CreateIndex("t", "id").ok());
    }
    ASSERT_NE((*table)->IndexOn(0), nullptr);
    ASSERT_TRUE((*table)->IndexOn(0)->tree()->CheckInvariants().ok());
    EXPECT_EQ(ProbeSnapshot(&engine), oracle_);
    EXPECT_TRUE(engine.Checkpoint().ok());
  }
}

}  // namespace
}  // namespace insightnotes::core
