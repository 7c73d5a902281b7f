// Persistent-index acceptance suite: CREATE INDEX builds a WAL-committed
// B+-tree through the index file; closing and reopening the engine must
// reattach the committed tree from the latest WalIndexCheckpointRecord —
// never rebuild it from a table scan — and the reattached tree must answer
// probes identically to a scan oracle after the caller replays its setup
// (tables and rows are configuration; the WAL is truth for annotations).
// Also locks in the snapshot-visibility contract of index-backed access:
// rows inserted after a pinned epoch and rows deleted since the probe are
// masked from IndexScan output, and that planning an optimized SELECT
// races neither CREATE INDEX nor instance (un)linking on the same table.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "exec/index_scan.h"
#include "exec/parallel.h"
#include "sql/session.h"
#include "testutil.h"

namespace insightnotes::core {
namespace {

using testutil::I;
using testutil::S;

constexpr uint64_t kInitialRows = 200;   // Present when CREATE INDEX runs.
constexpr uint64_t kLaterRows = 100;     // Maintained incrementally after.
constexpr uint64_t kTotalRows = kInitialRows + kLaterRows;

/// Deterministic row contents: ids repeat (multimap probes), bands cycle.
rel::Tuple BirdRow(uint64_t i) {
  return rel::Tuple({I(static_cast<int64_t>((i * 7) % 50)),
                     S("band-" + std::to_string(i % 13))});
}

/// An index-probed scan of `table`, run as the planner runs it: a
/// one-worker section (Gather(1) over an IndexScan) with no pool.
std::unique_ptr<exec::Operator> IndexScan(const rel::Table* table,
                                          exec::IndexProbeSpec probe) {
  auto source = std::make_shared<exec::ScanMorselSource>(
      table, "", /*with_summaries=*/true, exec::kDefaultBatchSize);
  source->SetIndexProbe(std::move(probe));
  std::vector<std::unique_ptr<exec::Operator>> workers;
  workers.push_back(std::make_unique<exec::MorselScanOperator>(source));
  return std::make_unique<exec::GatherOperator>(
      std::move(workers), std::vector<std::shared_ptr<exec::SharedPlanState>>{source},
      /*pool=*/nullptr);
}

rel::Schema BirdSchema() {
  return rel::Schema({{"id", rel::ValueType::kInt64, "birds"},
                      {"band", rel::ValueType::kString, "birds"}});
}

class PersistentIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_path_ = ::testing::TempDir() + "/insightnotes_pidx_" +
               std::to_string(reinterpret_cast<uintptr_t>(this)) + ".db";
    RemoveDbFiles();
  }
  void TearDown() override { RemoveDbFiles(); }

  EngineOptions Options(bool open_existing) {
    EngineOptions options;
    options.db_path = db_path_;
    options.open_existing = open_existing;
    // Small fanout: 300 rows build a multi-level tree, so reopen exercises
    // internal-node adoption, not just a root leaf.
    options.index_max_node_entries = 8;
    return options;
  }

  /// The caller-side setup replay: schema plus the first `rows` rows.
  static rel::Table* SetupBirds(Engine* engine, uint64_t rows) {
    auto table = engine->CreateTable("birds", BirdSchema());
    EXPECT_TRUE(table.ok()) << table.status().ToString();
    if (!table.ok()) return nullptr;
    for (uint64_t i = 0; i < rows; ++i) {
      auto row = engine->Insert("birds", BirdRow(i));
      EXPECT_TRUE(row.ok()) << row.status().ToString();
    }
    return *table;
  }

  static std::vector<rel::RowId> ProbeEq(const rel::Table& table, int64_t key) {
    exec::IndexProbeSpec spec;
    spec.column = 0;
    spec.has_eq = true;
    spec.eq = I(key);
    std::vector<rel::RowId> out;
    Status s = exec::ProbeIndex(table, spec, &out);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return out;
  }

  static std::vector<rel::RowId> ProbeRange(const rel::Table& table, int64_t lo,
                                            int64_t hi) {
    exec::IndexProbeSpec spec;
    spec.column = 0;
    spec.has_lo = true;
    spec.lo = I(lo);
    spec.has_hi = true;
    spec.hi = I(hi);
    std::vector<rel::RowId> out;
    Status s = exec::ProbeIndex(table, spec, &out);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return out;
  }

  /// Scan-derived oracle for rows whose id lies in [lo, hi].
  static std::vector<rel::RowId> ScanRange(const rel::Table& table, int64_t lo,
                                           int64_t hi) {
    std::vector<rel::RowId> out;
    Status s = table.Scan([&](rel::RowId row, const rel::Tuple& tuple) {
      int64_t v = tuple.ValueAt(0).AsInt64();
      if (v >= lo && v <= hi) out.push_back(row);
      return true;
    });
    EXPECT_TRUE(s.ok()) << s.ToString();
    return out;
  }

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

  std::string db_path_;
};

TEST_F(PersistentIndexTest, CreateIndexSurvivesReopenWithoutRebuild) {
  {
    Engine engine(Options(/*open_existing=*/false));
    ASSERT_TRUE(engine.Init().ok());
    rel::Table* birds = SetupBirds(&engine, kInitialRows);
    ASSERT_NE(birds, nullptr);
    ASSERT_TRUE(engine.CreateIndex("birds", "id").ok());
    // Incremental maintenance past the create-time bound.
    for (uint64_t i = kInitialRows; i < kTotalRows; ++i) {
      ASSERT_TRUE(engine.Insert("birds", BirdRow(i)).ok());
    }
    ASSERT_TRUE(engine.Checkpoint().ok());
  }  // Destructor checkpoints again; both are fine.

  Engine engine(Options(/*open_existing=*/true));
  ASSERT_TRUE(engine.Init().ok());
  // The committed tree was adopted from the WAL index checkpoint, not
  // rebuilt: it surfaces before any row exists again, with the committed
  // entry count and the CREATE-INDEX-time covered bound.
  EXPECT_EQ(engine.recovery().indexes_recovered, 1u);
  EXPECT_GE(engine.recovery().index_checkpoints_replayed, 1u);
  rel::Table* birds = SetupBirds(&engine, 0);
  ASSERT_NE(birds, nullptr);
  const rel::TableIndex* index = birds->IndexOn(0);
  ASSERT_NE(index, nullptr);
  EXPECT_NE(index->tree(), nullptr);
  EXPECT_EQ(index->NumEntries(), kTotalRows);
  EXPECT_EQ(index->tree()->covered_rows(), kInitialRows);
  ASSERT_TRUE(index->tree()->CheckInvariants().ok());

  // Setup replay: re-inserting every row is idempotent against the
  // committed tree (covered rows are skipped, the rest dedupe).
  for (uint64_t i = 0; i < kTotalRows; ++i) {
    ASSERT_TRUE(engine.Insert("birds", BirdRow(i)).ok());
  }
  EXPECT_EQ(index->NumEntries(), kTotalRows);
  ASSERT_TRUE(index->tree()->CheckInvariants().ok());

  // Probes answer exactly like a scan oracle.
  for (int64_t key = 0; key < 50; ++key) {
    EXPECT_EQ(ProbeEq(*birds, key), ScanRange(*birds, key, key)) << key;
  }
  EXPECT_EQ(ProbeRange(*birds, 10, 30), ScanRange(*birds, 10, 30));
  EXPECT_EQ(ProbeRange(*birds, -5, 3), ScanRange(*birds, -5, 3));
  EXPECT_EQ(ProbeRange(*birds, 49, 200), ScanRange(*birds, 49, 200));
}

TEST_F(PersistentIndexTest, MultipleIndexesAcrossTablesSurviveReopen) {
  {
    Engine engine(Options(/*open_existing=*/false));
    ASSERT_TRUE(engine.Init().ok());
    ASSERT_NE(SetupBirds(&engine, kInitialRows), nullptr);
    ASSERT_TRUE(engine
                    .CreateTable("sightings",
                                 rel::Schema({{"n", rel::ValueType::kInt64,
                                               "sightings"}}))
                    .ok());
    for (uint64_t i = 0; i < 40; ++i) {
      ASSERT_TRUE(
          engine.Insert("sightings", rel::Tuple({I(static_cast<int64_t>(i % 9))}))
              .ok());
    }
    ASSERT_TRUE(engine.CreateIndex("birds", "id").ok());
    ASSERT_TRUE(engine.CreateIndex("birds", "band").ok());
    ASSERT_TRUE(engine.CreateIndex("sightings", "n").ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
  }

  Engine engine(Options(/*open_existing=*/true));
  ASSERT_TRUE(engine.Init().ok());
  EXPECT_EQ(engine.recovery().indexes_recovered, 3u);
  rel::Table* birds = SetupBirds(&engine, kInitialRows);
  ASSERT_NE(birds, nullptr);
  ASSERT_NE(birds->IndexOn(0), nullptr);
  ASSERT_NE(birds->IndexOn(1), nullptr);
  EXPECT_EQ(birds->IndexOn(0)->NumEntries(), kInitialRows);
  EXPECT_EQ(birds->IndexOn(1)->NumEntries(), kInitialRows);
  EXPECT_NE(birds->IndexOn(1)->tree(), nullptr);

  // String-keyed probes over-approximate by contract (23-byte prefix), but
  // exact short keys are exact; compare against the scan oracle.
  exec::IndexProbeSpec spec;
  spec.column = 1;
  spec.has_eq = true;
  spec.eq = S("band-3");
  std::vector<rel::RowId> got;
  ASSERT_TRUE(exec::ProbeIndex(*birds, spec, &got).ok());
  std::vector<rel::RowId> expected;
  ASSERT_TRUE(birds
                  ->Scan([&](rel::RowId row, const rel::Tuple& tuple) {
                    if (tuple.ValueAt(1).AsString() == "band-3") {
                      expected.push_back(row);
                    }
                    return true;
                  })
                  .ok());
  // Probe results are a superset; the residual filter upstairs trims them.
  for (rel::RowId row : expected) {
    EXPECT_NE(std::find(got.begin(), got.end(), row), got.end()) << row;
  }
}

TEST_F(PersistentIndexTest, PendingIndexesSurviveAnIdleReopenCycle) {
  {
    Engine engine(Options(/*open_existing=*/false));
    ASSERT_TRUE(engine.Init().ok());
    ASSERT_NE(SetupBirds(&engine, kInitialRows), nullptr);
    ASSERT_TRUE(engine.CreateIndex("birds", "id").ok());
  }
  {
    // Reopen but never re-create the table: the committed index stays
    // pending. The checkpoint this engine writes (destructor) must carry
    // the pending index forward, not silently drop it.
    Engine engine(Options(/*open_existing=*/true));
    ASSERT_TRUE(engine.Init().ok());
    EXPECT_EQ(engine.recovery().indexes_recovered, 1u);
    ASSERT_TRUE(engine.Checkpoint().ok());
  }
  Engine engine(Options(/*open_existing=*/true));
  ASSERT_TRUE(engine.Init().ok());
  EXPECT_EQ(engine.recovery().indexes_recovered, 1u);
  rel::Table* birds = SetupBirds(&engine, kInitialRows);
  ASSERT_NE(birds, nullptr);
  const rel::TableIndex* index = birds->IndexOn(0);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->NumEntries(), kInitialRows);
  EXPECT_EQ(ProbeEq(*birds, 7), ScanRange(*birds, 7, 7));
}

TEST_F(PersistentIndexTest, ReopenedIndexSurfacesBeforeRowsExist) {
  {
    Engine engine(Options(/*open_existing=*/false));
    ASSERT_TRUE(engine.Init().ok());
    ASSERT_NE(SetupBirds(&engine, kInitialRows), nullptr);
    ASSERT_TRUE(engine.CreateIndex("birds", "id").ok());
  }
  Engine engine(Options(/*open_existing=*/true));
  ASSERT_TRUE(engine.Init().ok());
  rel::Table* birds = SetupBirds(&engine, 0);  // Schema only, no rows yet.
  ASSERT_NE(birds, nullptr);
  const rel::TableIndex* index = birds->IndexOn(0);
  ASSERT_NE(index, nullptr);
  // The tree answers with committed RowIds; with the heap still empty an
  // IndexScan masks every one of them through IsLive, emitting nothing.
  EXPECT_EQ(index->NumEntries(), kInitialRows);
  exec::IndexProbeSpec spec;
  spec.column = 0;
  spec.has_eq = true;
  spec.eq = I(7);
  auto plan = IndexScan(birds, spec);
  auto result = engine.Execute(std::move(plan));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->rows.empty());
}

// In-memory engines build the same persistent trees over an in-memory
// index file, so the snapshot-visibility contract is testable without
// touching disk: rows inserted after the pinned epoch and rows deleted
// since the probe are masked out of IndexScan output.
TEST(PersistentIndexSnapshotTest, PinnedSnapshotMasksLateAndDeadRows) {
  Engine engine;
  ASSERT_TRUE(engine.Init().ok());
  ASSERT_TRUE(engine.CreateTable("birds", BirdSchema()).ok());
  for (uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(engine.Insert("birds", rel::Tuple({I(5), S("x")})).ok());
  }
  ASSERT_TRUE(engine.CreateIndex("birds", "id").ok());
  auto table = engine.catalog()->GetTable("birds");
  ASSERT_TRUE(table.ok());
  const rel::TableIndex* index = (*table)->IndexOn(0);
  ASSERT_NE(index, nullptr);
  ASSERT_NE(index->tree(), nullptr);

  auto pinned = engine.PinSnapshot();
  ASSERT_TRUE(pinned.ok());
  // Past-the-pin inserts land in the live index but must stay invisible to
  // a query executing against the pinned epoch.
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine.Insert("birds", rel::Tuple({I(5), S("late")})).ok());
  }
  // A row deleted after the pin is masked too (the scan checks liveness
  // as it materializes the probed rows; deleted rows have no tuple).
  ASSERT_TRUE((*table)->Delete(3).ok());

  exec::IndexProbeSpec spec;
  spec.column = 0;
  spec.has_eq = true;
  spec.eq = I(5);
  auto plan = IndexScan(*table, spec);
  ExecuteOptions options;
  options.snapshot = *pinned;
  options.retain = false;
  auto result = engine.Execute(std::move(plan), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // 20 pinned-visible rows minus the deleted one; none of the 10 late rows.
  EXPECT_EQ(result->rows.size(), 19u);
}

// DDL racing a reader session on one table: while the session plans and
// runs optimizer-on SELECTs over an ANALYZEd, indexed, linked table, a
// writer thread builds indexes on the table's other columns (CREATE INDEX
// swaps index slots under the table latch) and links and unlinks a second
// summary instance. The optimizer's index lookups must hold the table
// latch, and planning must read no link state; row results stay those of
// the quiet engine whatever the writer is doing. Run under TSAN.
TEST(PersistentIndexConcurrencyTest, OptimizedSelectsRaceCreateIndexAndLinks) {
  constexpr uint64_t kRows = 120;
  Engine engine;
  ASSERT_TRUE(engine.Init().ok());
  ASSERT_TRUE(engine
                  .CreateTable("birds",
                               rel::Schema({{"id", rel::ValueType::kInt64, "birds"},
                                            {"band", rel::ValueType::kString, "birds"},
                                            {"wing", rel::ValueType::kInt64, "birds"}}))
                  .ok());
  for (uint64_t i = 0; i < kRows; ++i) {
    rel::Tuple row = BirdRow(i);
    row.Append(I(static_cast<int64_t>(i % 40)));
    ASSERT_TRUE(engine.Insert("birds", row).ok());
  }
  auto classifier =
      SummaryInstance::MakeClassifier("BirdClass", {"Behavior", "Disease"});
  ASSERT_TRUE(classifier->classifier()->Train(0, "foraging flying migration").ok());
  ASSERT_TRUE(classifier->classifier()->Train(1, "influenza lesion parasite").ok());
  ASSERT_TRUE(engine.RegisterInstance(std::move(classifier)).ok());
  mining::SnippetOptions snippet_options;
  snippet_options.max_sentences = 1;
  ASSERT_TRUE(engine
                  .RegisterInstance(
                      SummaryInstance::MakeSnippet("Snippets", snippet_options))
                  .ok());
  ASSERT_TRUE(engine.LinkInstance("BirdClass", "birds").ok());
  for (uint64_t i = 0; i < kRows; i += 3) {
    AnnotateSpec spec;
    spec.table = "birds";
    spec.row = static_cast<rel::RowId>(i);
    spec.body = i % 2 == 0 ? "foraging along the shore" : "influenza lesion seen";
    ASSERT_TRUE(engine.Annotate(spec).ok());
  }
  ASSERT_TRUE(engine.CreateIndex("birds", "id").ok());
  ASSERT_TRUE(engine.Analyze("birds").ok());

  const std::vector<std::string> queries = {
      "SELECT b.band, b.wing FROM birds b WHERE b.id = 7",
      "SELECT b.id FROM birds b WHERE b.band = 'band-3' AND b.wing < 20",
      "SELECT x.id, y.band FROM birds x, birds y WHERE x.id = y.id AND x.id < 4",
      "SELECT b.id FROM birds b WHERE SUMMARY_COUNT(BirdClass) > 0 AND b.wing = 9",
  };
  sql::PlannerOptions options;
  options.parallelism = 2;
  sql::SqlSession session(&engine, options);
  ASSERT_TRUE(session.optimizer_enabled());
  auto run = [&](const std::string& sql, std::vector<std::string>* rows) {
    auto out = session.Execute(sql);
    if (!out.ok()) return out.status();
    rows->clear();
    for (const AnnotatedTuple& row : out->result.rows) {
      rows->push_back(row.tuple.ToString());
    }
    return Status::OK();
  };
  std::vector<std::vector<std::string>> expected(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    Status s = run(queries[q], &expected[q]);
    ASSERT_TRUE(s.ok()) << queries[q] << ": " << s.ToString();
    ASSERT_FALSE(expected[q].empty()) << queries[q];
  }

  // gtest assertions are not thread-safe off the main thread: the writer
  // collects its failures for the post-join assert.
  std::mutex failures_mutex;
  std::vector<std::string> failures;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; !stop.load(std::memory_order_acquire); ++i) {
      Status s = engine.CreateIndex("birds", i % 2 == 0 ? "band" : "wing");
      if (s.ok()) s = engine.LinkInstance("Snippets", "birds");
      if (s.ok()) s = engine.UnlinkInstance("Snippets", "birds");
      if (!s.ok()) {
        std::lock_guard<std::mutex> lock(failures_mutex);
        failures.push_back(s.ToString());
        return;
      }
    }
  });
  for (int round = 0; round < 30; ++round) {
    for (size_t q = 0; q < queries.size(); ++q) {
      std::vector<std::string> rows;
      Status s = run(queries[q], &rows);
      EXPECT_TRUE(s.ok()) << queries[q] << ": " << s.ToString();
      EXPECT_EQ(rows, expected[q]) << queries[q];
    }
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  EXPECT_TRUE(failures.empty()) << failures.front();
}

}  // namespace
}  // namespace insightnotes::core
