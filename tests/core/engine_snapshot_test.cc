// Epoch lifetime and visibility tests for the engine's snapshot isolation
// (core/engine_snapshot.h): pinning freezes what a reader sees, publishes
// retire superseded epochs exactly once, Checkpoint never perturbs a
// pinned reader, a scan reads nothing but its pinned epoch, a poisoned
// engine keeps serving its last published (pre-failure) epoch, and pinned
// readers' cluster summaries survive the vector store growing under them.

#include "core/engine_snapshot.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/zoom_in.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "storage/fault_injection.h"
#include "testutil.h"

namespace insightnotes::core {
namespace {

using testutil::I;
using testutil::S;

/// The row's attachments in `snap`, coverage read through Columns(i).
std::vector<testutil::Att> AttachmentsOf(const EngineSnapshot& snap, rel::TableId table,
                                         rel::RowId row) {
  const EngineSnapshot::RowState* state = snap.FindRow(table, row);
  return state == nullptr ? std::vector<testutil::Att>{}
                          : testutil::Entries(state->attachments);
}

/// NumAnnotations of the row's summary object for `instance`, or -1.
int64_t CountFor(const SummaryList& summaries,
                 const std::string& instance) {
  for (const auto& summary : summaries) {
    if (summary->instance_name() == instance) {
      return static_cast<int64_t>(summary->NumAnnotations());
    }
  }
  return -1;
}

class EngineSnapshotTest : public testutil::EngineFixture {
 protected:
  void SetUp() override {
    testutil::EngineFixture::SetUp();
    CreateFigure2Tables();
    CreateFigure2Instances();
    auto table = engine_->catalog()->GetTable("R");
    ASSERT_TRUE(table.ok());
    r_id_ = (*table)->id();
  }

  rel::TableId r_id_ = 0;
};

TEST_F(EngineSnapshotTest, PinReflectsPublishedState) {
  auto snap = engine_->PinSnapshot();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ((*snap)->epoch(), engine_->CurrentEpoch());
  EXPECT_GT((*snap)->epoch(), 0u);
  EXPECT_EQ((*snap)->VisibleRows(r_id_), 3u);
  EXPECT_EQ((*snap)->num_annotations(),
            engine_->annotations()->NumAnnotations());
}

TEST_F(EngineSnapshotTest, VisibilityFrozenAtPin) {
  ASSERT_TRUE(engine_->Annotate(Spec("R", 0, "influenza lesion sick")).ok());
  auto snap_a = engine_->PinSnapshot();
  ASSERT_TRUE(snap_a.ok());

  ASSERT_TRUE(engine_->Annotate(Spec("R", 0, "parasite infection")).ok());
  ASSERT_TRUE(engine_->Insert("R", rel::Tuple({I(4), I(9), S("c3"), S("d3")})).ok());
  auto snap_b = engine_->PinSnapshot();
  ASSERT_TRUE(snap_b.ok());
  EXPECT_GT((*snap_b)->epoch(), (*snap_a)->epoch());

  // The older pin still sees exactly the state at its publish.
  EXPECT_EQ(CountFor((*snap_a)->SummariesFor(r_id_, 0), "ClassBird1"), 1);
  EXPECT_EQ((*snap_a)->VisibleRows(r_id_), 3u);

  EXPECT_EQ(CountFor((*snap_b)->SummariesFor(r_id_, 0), "ClassBird1"), 2);
  EXPECT_EQ((*snap_b)->VisibleRows(r_id_), 4u);

  // Attachment lists are frozen too.
  EXPECT_EQ(AttachmentsOf(**snap_a, r_id_, 0).size(), 1u);
  EXPECT_EQ(AttachmentsOf(**snap_b, r_id_, 0).size(), 2u);
}

TEST_F(EngineSnapshotTest, EpochRetiredExactlyOnce) {
  auto snap = engine_->PinSnapshot();
  ASSERT_TRUE(snap.ok());
  uint64_t pinned_epoch = (*snap)->epoch();
  uint64_t baseline = engine_->RetiredEpochs();

  // Two publishes: the first supersedes the pinned epoch (still held, so
  // not retired), the second retires the intermediate epoch.
  ASSERT_TRUE(engine_->Annotate(Spec("R", 1, "first publish")).ok());
  ASSERT_TRUE(engine_->Annotate(Spec("R", 1, "second publish")).ok());
  EXPECT_EQ(engine_->CurrentEpoch(), pinned_epoch + 2);
  EXPECT_EQ(engine_->RetiredEpochs(), baseline + 1);

  // Dropping the last pin retires the pinned epoch — once.
  snap->reset();
  EXPECT_EQ(engine_->RetiredEpochs(), baseline + 2);

  // A fresh pin lands on the current epoch.
  auto repin = engine_->PinSnapshot();
  ASSERT_TRUE(repin.ok());
  EXPECT_EQ((*repin)->epoch(), pinned_epoch + 2);
  EXPECT_EQ(engine_->RetiredEpochs(), baseline + 2);
}

TEST_F(EngineSnapshotTest, CheckpointWhileReaderPinned) {
  ASSERT_TRUE(engine_->Annotate(Spec("R", 2, "foraging behavior")).ok());
  auto snap = engine_->PinSnapshot();
  ASSERT_TRUE(snap.ok());
  uint64_t epoch = (*snap)->epoch();

  ASSERT_TRUE(engine_->Checkpoint().ok());
  // Checkpoint persists state but publishes nothing: the epoch is unchanged
  // and the pinned reader's view stays fully readable.
  EXPECT_EQ(engine_->CurrentEpoch(), epoch);
  EXPECT_EQ(CountFor((*snap)->SummariesFor(r_id_, 2), "ClassBird1"), 1);
}

TEST_F(EngineSnapshotTest, ArchiveVisibleOnlyAfterPinnedEpoch) {
  auto id = engine_->Annotate(Spec("R", 0, "wingspan beak anatomy"));
  ASSERT_TRUE(id.ok());
  auto snap_before = engine_->PinSnapshot();
  ASSERT_TRUE(snap_before.ok());

  ASSERT_TRUE(engine_->ArchiveAnnotation(*id).ok());
  auto snap_after = engine_->PinSnapshot();
  ASSERT_TRUE(snap_after.ok());

  EXPECT_FALSE((*snap_before)->IsArchived(*id));
  EXPECT_TRUE((*snap_after)->IsArchived(*id));

  EXPECT_EQ(AttachmentsOf(**snap_before, r_id_, 0).size(), 1u);
  EXPECT_TRUE(AttachmentsOf(**snap_after, r_id_, 0).empty());
}

TEST_F(EngineSnapshotTest, ExecutePinsAndReportsEpoch) {
  ASSERT_TRUE(engine_->Annotate(Spec("R", 0, "migration flying")).ok());
  auto pinned = engine_->PinSnapshot();
  ASSERT_TRUE(pinned.ok());

  // Mutate past the pin; executing against the held snapshot must see the
  // old state while a default execution sees the new one.
  ASSERT_TRUE(engine_->Annotate(Spec("R", 0, "photo reference link")).ok());

  auto old_scan = engine_->MakeScan("R");
  ASSERT_TRUE(old_scan.ok());
  ExecuteOptions old_options;
  old_options.snapshot = *pinned;
  old_options.retain = false;
  auto old_result = engine_->Execute(std::move(*old_scan), std::move(old_options));
  ASSERT_TRUE(old_result.ok());
  EXPECT_EQ(old_result->epoch, (*pinned)->epoch());
  EXPECT_EQ(old_result->rows[0].FindSummary("ClassBird1")->NumAnnotations(), 1u);

  auto new_scan = engine_->MakeScan("R");
  ASSERT_TRUE(new_scan.ok());
  auto new_result = engine_->Execute(std::move(*new_scan));
  ASSERT_TRUE(new_result.ok());
  EXPECT_EQ(new_result->epoch, engine_->CurrentEpoch());
  EXPECT_GT(new_result->epoch, (*pinned)->epoch());
  EXPECT_EQ(new_result->rows[0].FindSummary("ClassBird1")->NumAnnotations(), 2u);
}

TEST_F(EngineSnapshotTest, ScanWithoutPinnedEpochFails) {
  // A bare operator tree opened outside Engine::Execute has no epoch to
  // read: the scan refuses with a typed error instead of reading live
  // state.
  auto scan = engine_->MakeScan("R");
  ASSERT_TRUE(scan.ok());
  Status opened = (*scan)->Open();
  EXPECT_TRUE(opened.IsInternal()) << opened.ToString();
  EXPECT_NE(opened.message().find("plan opened without a pinned epoch"),
            std::string::npos)
      << opened.ToString();

  // Once an epoch is pinned on its context the same plan opens.
  ASSERT_TRUE(testutil::PinEpoch(engine_.get(), scan->get()));
  EXPECT_TRUE((*scan)->Open().ok());
}

TEST_F(EngineSnapshotTest, ExecuteBeforeInitReturnsPinError) {
  // Nothing is published before Init, so there is no epoch to read.
  Engine uninitialized;
  EXPECT_EQ(uninitialized.CurrentEpoch(), 0u);
  auto scan = engine_->MakeScan("R");
  ASSERT_TRUE(scan.ok());
  auto result = uninitialized.Execute(std::move(*scan));
  EXPECT_TRUE(result.status().IsInternal()) << result.status().ToString();
}

/// A file-backed engine over a fault-injecting disk, one string table `t`
/// of kRows rows with the SimCluster instance linked, and every retry
/// disabled so one injected EIO fails the I/O that hits it.
class PoisonedEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_path_ = ::testing::TempDir() + "/snapshot_poison_" +
               std::to_string(reinterpret_cast<uintptr_t>(this)) + ".db";
    faults_ = std::make_shared<storage::FaultInjectingDiskManager>();
    EngineOptions options;
    options.db_path = db_path_;
    options.disk = faults_;
    options.io_retry.max_attempts = 1;
    engine_ = std::make_unique<Engine>(options);
    ASSERT_TRUE(engine_->Init().ok());
    ASSERT_TRUE(engine_
                    ->CreateTable("t", rel::Schema({{"v", rel::ValueType::kString, "t"}}))
                    .ok());
    for (size_t row = 0; row < kRows; ++row) {
      ASSERT_TRUE(
          engine_->Insert("t", rel::Tuple({S("row" + std::to_string(row))})).ok());
    }
    ASSERT_TRUE(
        engine_->RegisterInstance(SummaryInstance::MakeCluster("SimCluster", 0.3)).ok());
    ASSERT_TRUE(engine_->LinkInstance("SimCluster", "t").ok());
  }

  void TearDown() override {
    engine_.reset();
    std::remove(db_path_.c_str());
    std::remove((db_path_ + ".idx").c_str());
    std::remove((db_path_ + ".wal.manifest").c_str());
    for (uint64_t id = 1; id <= 8; ++id) {
      std::remove(
          storage::SegmentedWal::SegmentPathFor(db_path_ + ".wal", id).c_str());
    }
  }

  AnnotateSpec Spec(rel::RowId row, const std::string& body) const {
    AnnotateSpec spec;
    spec.table = "t";
    spec.row = row;
    spec.body = body;
    return spec;
  }

  /// Scans `t` through Engine::Execute (pinning the current epoch, or
  /// `snapshot` when given) and serializes the result with its summaries.
  std::string ScanBytes(ReadSnapshot snapshot, QueryResult* out = nullptr) {
    auto scan = engine_->MakeScan("t");
    EXPECT_TRUE(scan.ok());
    if (!scan.ok()) return "";
    ExecuteOptions options;
    options.snapshot = std::move(snapshot);
    options.retain = false;
    auto result = engine_->Execute(std::move(*scan), std::move(options));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return "";
    auto captured = ResultSnapshot::Capture(result->schema, result->rows);
    EXPECT_TRUE(captured.ok());
    std::string bytes;
    if (captured.ok()) captured->Serialize(&bytes);
    if (out != nullptr) *out = std::move(*result);
    return bytes;
  }

  static constexpr size_t kRows = 4;
  std::string db_path_;
  std::shared_ptr<storage::FaultInjectingDiskManager> faults_;
  std::unique_ptr<Engine> engine_;
};

// A poisoned engine (WAL-committed record that failed to apply) keeps
// serving its last published epoch: a new pin lands on the pre-failure
// epoch, and a reader that pinned before the failure keeps reading it.
TEST_F(PoisonedEngineTest, PoisonedEnginePinsPrePoisonEpoch) {
  auto pinned = engine_->PinSnapshot();
  ASSERT_TRUE(pinned.ok());

  // Arm one-shot faults until one lands inside the store apply and poisons
  // the engine (see crash_recovery_test for the fault taxonomy).
  bool poisoned = false;
  uint64_t pre_poison_epoch = 0;
  for (int i = 0; i < 200 && !poisoned; ++i) {
    pre_poison_epoch = engine_->CurrentEpoch();
    faults_->FailOnceAt(storage::IoOpKind::kAny, faults_->op_count());
    (void)engine_->Annotate(Spec(0, "note"));
    poisoned = engine_->requires_recovery();
  }
  faults_->Reset();
  ASSERT_TRUE(poisoned) << "no injected fault ever landed in a store apply";

  // Mutations stay refused...
  EXPECT_FALSE(engine_->Annotate(Spec(0, "after the failure")).ok());
  // ...but a new pin succeeds and lands on the last published epoch.
  auto repinned = engine_->PinSnapshot();
  ASSERT_TRUE(repinned.ok()) << repinned.status().ToString();
  EXPECT_EQ((*repinned)->epoch(), pre_poison_epoch);
  EXPECT_EQ(engine_->CurrentEpoch(), pre_poison_epoch);
  // The pre-poison pin still reads its epoch consistently.
  auto table = engine_->catalog()->GetTable("t");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*pinned)->VisibleRows((*table)->id()), kRows);
  const std::vector<testutil::Att> atts = AttachmentsOf(**pinned, (*table)->id(), 0);
  EXPECT_EQ(CountFor((*pinned)->SummariesFor((*table)->id(), 0), "SimCluster"),
            static_cast<int64_t>(atts.size()));
}

// Regression: a batch that fails on a later item leaves its earlier items
// in the store but never folded into the summaries. A query on the
// poisoned engine must not see those orphaned attachments: it reads the
// pre-poison epoch, where every row's attachments match its summary.
TEST_F(PoisonedEngineTest, QueryAfterMidBatchPoisonReadsPrePoisonEpoch) {
  for (rel::RowId row = 0; row < kRows; ++row) {
    ASSERT_TRUE(engine_->Annotate(Spec(row, "first note on row " +
                                                std::to_string(row)))
                    .ok());
  }
  // ~3 KB bodies: every item of the batch allocates its own heap page, so
  // the store apply performs disk I/O item by item.
  constexpr size_t kBatch = 16;
  std::vector<AnnotateSpec> specs;
  for (size_t i = 0; i < kBatch; ++i) {
    specs.push_back(Spec(static_cast<rel::RowId>(i % kRows),
                         std::string(3000, static_cast<char>('a' + i % 26)) + " " +
                             std::to_string(i)));
  }

  // Arm the fault a few disk ops past the WAL commit, so the batch is
  // durable and the items before the faulted one reach the store.
  ReadSnapshot before;
  bool poisoned = false;
  uint64_t stored_before = 0;
  for (uint64_t delay = 1; delay < 64 && !poisoned; ++delay) {
    auto pin = engine_->PinSnapshot();
    ASSERT_TRUE(pin.ok());
    before = *pin;
    stored_before = engine_->annotations()->NumAnnotations();
    faults_->FailOnceAt(storage::IoOpKind::kAny, faults_->op_count() + delay);
    (void)engine_->AnnotateBatch(specs);
    faults_->Reset();
    poisoned = engine_->requires_recovery() &&
               engine_->annotations()->NumAnnotations() > stored_before;
    ASSERT_FALSE(engine_->requires_recovery() && !poisoned)
        << "the fault hit the first item; no partial batch to observe";
  }
  ASSERT_TRUE(poisoned) << "no injected fault ever landed mid-batch";
  ASSERT_LT(engine_->annotations()->NumAnnotations(), stored_before + kBatch);

  QueryResult result;
  const std::string after = ScanBytes(nullptr, &result);
  EXPECT_EQ(result.epoch, before->epoch());
  ASSERT_EQ(result.rows.size(), kRows);
  for (const AnnotatedTuple& row : result.rows) {
    const SummaryObject* cluster = row.FindSummary("SimCluster");
    ASSERT_NE(cluster, nullptr);
    EXPECT_EQ(testutil::Entries(row.attachments).size(), cluster->NumAnnotations())
        << row.tuple.ToString();
  }
  EXPECT_EQ(after, ScanBytes(before));
}

// Scanned tuples share their attachment lists with the pinned epoch. While
// the writer publishes 1000 epochs that attach and archive notes on the
// same rows (archiving the scanned notes too), a reader holding the tuples
// keeps reading byte-identical ids and coverage. Under TSAN this covers
// lists shared between the writer's epochs and a reader thread.
TEST_F(EngineSnapshotTest, SharedAttachmentListsSurviveRepublishing) {
  std::vector<ann::AnnotationId> scanned_ids;
  for (rel::RowId row = 0; row < 3; ++row) {
    for (const auto& [body, columns] :
         {std::pair<const char*, std::vector<size_t>>{"eating stonewort", {2}},
          {"influenza lesion", {}}}) {
      auto id = engine_->Annotate(Spec("R", row, body, columns));
      ASSERT_TRUE(id.ok());
      scanned_ids.push_back(*id);
    }
  }
  auto pinned = engine_->PinSnapshot();
  ASSERT_TRUE(pinned.ok());
  auto scan = engine_->MakeScan("R", "r");
  ASSERT_TRUE(scan.ok());
  ExecuteOptions options;
  options.snapshot = *pinned;
  options.retain = false;
  auto result = engine_->Execute(std::move(*scan), std::move(options));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 3u);
  for (rel::RowId row = 0; row < 3; ++row) {
    EXPECT_EQ(result->rows[row].attachments, (*pinned)->FindRow(r_id_, row)->attachments);
  }
  const auto fingerprint = [&result] {
    std::string bytes;
    for (const AnnotatedTuple& row : result->rows) {
      for (const testutil::Att& att : testutil::Entries(row.attachments)) {
        bytes += std::to_string(att.id) + ":";
        for (size_t c : att.columns) bytes += std::to_string(c) + ",";
        bytes += ";";
      }
      bytes += "|";
    }
    return bytes;
  };
  const std::string expected = fingerprint();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> checks{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      EXPECT_EQ(fingerprint(), expected);
      checks.fetch_add(1, std::memory_order_relaxed);
    }
  });
  constexpr uint64_t kEpochs = 1000;
  const uint64_t first = engine_->CurrentEpoch();
  Status status;
  for (size_t i = 0; status.ok() && engine_->CurrentEpoch() < first + kEpochs; ++i) {
    const rel::RowId row = i % 3;
    auto id = engine_->Annotate(Spec("R", row, "parasite infection", {i % 4}));
    status = id.status();
    if (status.ok()) status = engine_->AttachAnnotation(*id, "R", (row + 1) % 3, {1});
    if (status.ok()) status = engine_->ArchiveAnnotation(*id);
    if (status.ok() && i < scanned_ids.size()) {
      status = engine_->ArchiveAnnotation(scanned_ids[i]);
    }
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_GT(checks.load(), 0u);
  EXPECT_EQ(fingerprint(), expected);
  // Every note is archived now: the current epoch's lists are empty.
  auto current = engine_->PinSnapshot();
  ASSERT_TRUE(current.ok());
  for (rel::RowId row = 0; row < 3; ++row) {
    EXPECT_TRUE(AttachmentsOf(**current, r_id_, row).empty());
  }
}

// Pin/publish stress: readers continuously pin the current epoch and walk
// its row states while a writer annotates. Run under TSAN this covers the
// acquire/release pair on the published slot and the refcounted retirement;
// under ASan it verifies no epoch's state is freed while still pinned.
TEST_F(EngineSnapshotTest, ConcurrentPinAndPublishStress) {
  constexpr int kReaders = 4;
  constexpr int kWrites = 60;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto snap = engine_->PinSnapshot();
        if (!snap.ok()) continue;
        for (rel::RowId row = 0; row < (*snap)->VisibleRows(r_id_); ++row) {
          for (const auto& summary : (*snap)->SummariesFor(r_id_, row)) summary->Render();
          AttachmentsOf(**snap, r_id_, row);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // At least kWrites epochs, then keep publishing until some reader
  // finished a full pin+walk (the writer can otherwise outrun readers that
  // were never scheduled, and the reads assertion below would race).
  for (int i = 0; i < kWrites || (reads.load() == 0 && i < kWrites * 100);
       ++i) {
    ASSERT_TRUE(
        engine_->Annotate(Spec("R", static_cast<rel::RowId>(i % 3),
                               i % 2 == 0 ? "foraging behavior migration"
                                          : "disease infection parasite"))
            .ok());
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_GT(reads.load(), 0u);
  // Quiescent now: every superseded epoch must have been retired.
  EXPECT_GE(engine_->RetiredEpochs(), static_cast<uint64_t>(kWrites) - 1);
}

// Vector-store growth under pinned readers. Cluster objects resolve member
// vectors through their instance's store, which grows a page per 1024
// annotation ids. The writer's batches push the ids across several page
// boundaries (and so regrow the page directory) while readers run trim and
// GROUP BY plans at parallelism 2 against pinned epochs. Each reader runs
// its plan twice on one pin: the two results must serialize identically,
// so every vector pointer a pinned summary read stayed valid and unchanged.
// Under TSAN this covers the store's lock against the writer's commits.
TEST_F(EngineSnapshotTest, PinnedReadersSurviveVectorStoreGrowth) {
  constexpr rel::RowId kRows = 24;
  constexpr size_t kPreload = 900;  // Ids below the first page boundary.
  constexpr size_t kTotal = 3300;   // Past three boundaries.
  constexpr size_t kBatch = 64;
  for (rel::RowId row = 3; row < kRows; ++row) {
    ASSERT_TRUE(engine_
                    ->Insert("R", rel::Tuple({I(static_cast<int64_t>(row) + 1),
                                              I(static_cast<int64_t>(row % 4)),
                                              S("c" + std::to_string(row)),
                                              S("d" + std::to_string(row))}))
                    .ok());
  }
  const std::vector<std::string> kBodies = {
      "goose eating stonewort near the lake", "influenza infection in the flock",
      "wingspan and weight measured", "photo reference link to an article",
      "foraging behavior during migration", "parasite lesion on the wing"};
  auto specs = [&](size_t first, size_t count) {
    std::vector<AnnotateSpec> out;
    for (size_t i = first; i < first + count; ++i) {
      // Every third note covers the whole row; the others one column, so
      // the trim below drops some of each row's notes.
      std::vector<size_t> columns;
      if (i % 3 != 0) columns.push_back(i % 4);
      out.push_back(Spec("R", static_cast<rel::RowId>(i % kRows),
                         kBodies[i % kBodies.size()] + " " + std::to_string(i % 11),
                         std::move(columns)));
    }
    return out;
  };
  ASSERT_TRUE(engine_->AnnotateBatch(specs(0, kPreload)).ok());
  // Vectors handed out before the growth, with copies to check them by.
  auto cluster = engine_->summaries()->GetInstance("SimCluster");
  ASSERT_TRUE(cluster.ok());
  std::vector<mining::DocId> early(kPreload);
  std::iota(early.begin(), early.end(), mining::DocId{0});
  std::vector<const mining::DocVector*> held;
  (*cluster)->vector_store()->GetVectors(early, &held);
  std::vector<mining::DocVector> copies;
  for (const mining::DocVector* vec : held) {
    ASSERT_NE(vec, nullptr);
    copies.push_back(*vec);
  }

  const std::vector<std::string> kQueries = {
      "SELECT r.a FROM R r",                                 // Trim.
      "SELECT r.b, COUNT(*) FROM R r GROUP BY r.b"};        // Merge.
  auto run = [&](const std::string& sql, const ReadSnapshot& pin) -> std::string {
    auto statement = sql::Parse(sql);
    EXPECT_TRUE(statement.ok());
    if (!statement.ok()) return "";
    sql::PlannerOptions options;
    options.parallelism = 2;
    options.morsel_size = 4;
    auto plan = sql::PlanSelect(std::get<sql::SelectStatement>(*statement), engine_.get(),
                                options);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    if (!plan.ok()) return "";
    ExecuteOptions execute;
    execute.snapshot = pin;
    execute.retain = false;
    auto result = engine_->Execute(std::move(*plan), std::move(execute));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return "";
    auto captured = ResultSnapshot::Capture(result->schema, result->rows);
    EXPECT_TRUE(captured.ok());
    std::string bytes;
    if (captured.ok()) captured->Serialize(&bytes);
    return bytes;
  };

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kQueries.size(); ++t) {
    readers.emplace_back([&, t] {
      while (!stop.load(std::memory_order_acquire)) {
        auto pin = engine_->PinSnapshot();
        ASSERT_TRUE(pin.ok());
        const std::string first = run(kQueries[t], *pin);
        ASSERT_FALSE(first.empty());
        ASSERT_EQ(run(kQueries[t], *pin), first) << kQueries[t];
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (size_t next = kPreload; next < kTotal; next += kBatch) {
    ASSERT_TRUE(engine_->AnnotateBatch(specs(next, kBatch)).ok());
  }
  // Let every reader finish a pair before stopping (bounded, so a reader
  // that failed cannot hang the test).
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (reads.load() < 2 * kQueries.size() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_GE(reads.load(), 2 * kQueries.size());
  for (size_t i = 0; i < held.size(); ++i) {
    const auto& entries = held[i]->vector.entries();
    const auto& expected = copies[i].vector.entries();
    ASSERT_EQ(held[i]->norm, copies[i].norm) << "doc " << i;
    ASSERT_EQ(entries.size(), expected.size()) << "doc " << i;
    for (size_t k = 0; k < entries.size(); ++k) {
      ASSERT_EQ(entries[k].term, expected[k].term) << "doc " << i;
      ASSERT_EQ(entries[k].value, expected[k].value) << "doc " << i;
    }
  }
}

}  // namespace
}  // namespace insightnotes::core
