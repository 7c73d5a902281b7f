// Trim memo under concurrency: statements whose Theorem-1 projections read
// and fill the row versions' trim memos (see core/annotated_tuple.h) race a
// writer that annotates the same rows. Every result must equal the same
// statement re-run alone on the epoch it read, and a row written between
// two statements must show the new note in the second one: the write makes
// a new row version, whose memo starts empty. The statements' maps drop
// different annotation counts, so their trims also replace each other's
// entries while they race. Summary objects are shared by pointer from the
// row state through scans, memo entries and results, so no statement may
// change one in place. Run under TSAN and ASan+UBSan in CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "sql/session.h"
#include "testutil.h"

namespace insightnotes {
namespace {

using testutil::I;
using testutil::S;

constexpr int64_t kRows = 48;
constexpr int64_t kFamilies = 6;

// The shapes whose projections trim scan output: a plain trim, a grouping
// and a self-join (build side and probe side both trimmed), a carry, and a
// top-k whose SUMMARY_COUNT predicate restricts one object of each trimmed
// row (AnnotatedTuple::SettleSummary).
const char* const kStatements[] = {
    "SELECT b.id, b.name, b.weight FROM birds b WHERE b.weight > 10",
    "SELECT b.family, COUNT(*) FROM birds b WHERE b.weight > 5 GROUP BY b.family",
    "SELECT b.id, c.id, c.name FROM birds b, birds c WHERE b.family = c.family AND b.id < 8",
    "SELECT * FROM birds b WHERE b.weight > 10",
    "SELECT b.id, b.name, b.weight FROM birds b WHERE SUMMARY_COUNT(ClassBird1) > 3 "
    "ORDER BY b.weight DESC LIMIT 5",
};
const char* const kDistinct = "SELECT DISTINCT b.family FROM birds b WHERE b.weight > 5";

const char* const kBodies[] = {
    "found eating stonewort near the shore",
    "signs of influenza infection detected",
    "wingspan and body size measured today",
    "why is this measurement so high",
    "photo reference from the field article",
};

class TrimMemoTest : public testutil::EngineFixture {
 protected:
  void SetUp() override {
    EngineFixture::SetUp();
    CreateFigure2Tables();
    CreateFigure2Instances();
    ASSERT_TRUE(engine_
                    ->CreateTable("birds",
                                  rel::Schema({{"id", rel::ValueType::kInt64, "birds"},
                                               {"name", rel::ValueType::kString, "birds"},
                                               {"weight", rel::ValueType::kInt64, "birds"},
                                               {"family", rel::ValueType::kString, "birds"}}))
                    .ok());
    for (int64_t i = 0; i < kRows; ++i) {
      ASSERT_TRUE(engine_
                      ->Insert("birds", rel::Tuple({I(i), S("bird" + std::to_string(i)),
                                                    I((i * 7) % 40),
                                                    S("fam" + std::to_string(i % kFamilies))}))
                      .ok());
    }
    for (const char* instance : {"ClassBird1", "ClassBird2", "SimCluster", "TextSummary1"}) {
      ASSERT_TRUE(engine_->LinkInstance(instance, "birds").ok());
    }
    // Notes on every column and on whole rows, so each statement trims
    // some and keeps some.
    for (rel::RowId row = 0; row < static_cast<rel::RowId>(kRows); ++row) {
      for (size_t k = 0; k < 5; ++k) {
        std::vector<size_t> columns;
        if (k < 4) columns = {(row + k) % 4};
        ASSERT_TRUE(engine_->Annotate(Spec("birds", row, kBodies[(row + k) % 5], columns)).ok());
      }
    }
  }

  /// `sql` planned at `parallelism` and run on `snapshot`, unretained.
  Result<core::QueryResult> RunOn(const std::string& sql, size_t parallelism,
                                  core::ReadSnapshot snapshot) {
    auto statement = sql::Parse(sql);
    if (!statement.ok()) return statement.status();
    sql::PlannerOptions options;
    options.parallelism = parallelism;
    options.morsel_size = 8;
    INSIGHTNOTES_ASSIGN_OR_RETURN(
        auto plan,
        sql::PlanSelect(std::get<sql::SelectStatement>(*statement), engine_.get(), options));
    core::ExecuteOptions exec_options;
    exec_options.snapshot = std::move(snapshot);
    exec_options.retain = false;
    return engine_->Execute(std::move(plan), std::move(exec_options));
  }

  rel::TableId Birds() const { return (*engine_->catalog()->GetTable("birds"))->id(); }

  /// The rendered summaries of every row state of `epoch`, and of the
  /// table's shared empty objects.
  std::string RenderRowStates(const core::EngineSnapshot& epoch) const {
    std::ostringstream os;
    for (rel::RowId row = 0; row <= static_cast<rel::RowId>(kRows); ++row) {
      os << row << ":";
      for (const auto& summary : epoch.SummariesFor(Birds(), row)) {
        os << " " << summary->instance_name() << "=" << summary->Render();
      }
      os << "\n";
    }
    return os.str();
  }

  /// Values, attachment entries and rendered summaries of every row.
  static std::vector<std::string> Render(const core::QueryResult& result) {
    std::vector<std::string> rows;
    for (const core::AnnotatedTuple& row : result.rows) {
      std::ostringstream os;
      os << row.tuple.ToString() << " |";
      for (const testutil::Att& att : testutil::Entries(row.attachments)) {
        os << " " << att.id << ":";
        for (size_t c : att.columns) os << c << ",";
      }
      for (const auto& summary : row.summaries) {
        os << " || " << summary->instance_name() << "=" << summary->Render();
      }
      rows.push_back(os.str());
    }
    return rows;
  }
};

// A row version's memo keeps two trims; a third replaces the one that
// dropped the fewest annotations, and only by dropping more. A reader's
// entry outlives its replacement.
TEST(TrimMemoPolicyTest, ReplacesTheSmallestTrimOnlyByDroppingMore) {
  auto key = [](std::vector<std::vector<size_t>> refs) {
    auto k = std::make_shared<core::TrimKey>();
    k->map = core::ColumnMap::Of(4, refs);
    return k;
  };
  const auto a = key({{0}, {1}});
  const auto b = key({{2}});
  const auto c = key({{3}});
  const auto d = key({{0}});
  const core::SummaryList none;
  core::TrimMemo memo;
  memo.Publish(a, 2, nullptr, none);
  memo.Publish(a, 5, nullptr, none);  // Held already.
  memo.Publish(b, 3, nullptr, none);
  ASSERT_NE(memo.Find(a->map), nullptr);
  ASSERT_NE(memo.Find(b->map), nullptr);
  EXPECT_EQ(memo.Find(a->map)->dropped, 2u);
  EXPECT_FALSE(memo.Admits(2));
  memo.Publish(c, 2, nullptr, none);  // Drops no more than either: kept out.
  EXPECT_EQ(memo.Find(c->map), nullptr);
  std::shared_ptr<const core::TrimMemo::Entry> held = memo.Find(a->map);
  memo.Publish(d, 4, nullptr, none);  // Replaces `a`, the smaller trim.
  EXPECT_EQ(memo.Find(a->map), nullptr);
  EXPECT_NE(memo.Find(b->map), nullptr);
  EXPECT_NE(memo.Find(d->map), nullptr);
  EXPECT_EQ(held->dropped, 2u);
  EXPECT_EQ(a->fills + b->fills + c->fills + d->fills, 3u);
}

TEST_F(TrimMemoTest, ConcurrentTrimmingStatementsRaceRowWrites) {
  struct Ran {
    size_t statement;
    core::ReadSnapshot epoch;
    std::vector<std::string> rows;
  };
  constexpr int kRounds = 12;
  std::mutex mutex;
  std::vector<Ran> ran;
  std::vector<std::string> failures;
  std::atomic<bool> stop{false};
  std::atomic<int> writes{0};

  // Writes until the sessions are done (capped for slow sanitizer runs).
  std::thread writer([&] {
    Random rng(7);
    for (int i = 0; i < 5000 && !stop.load(std::memory_order_acquire); ++i) {
      const auto row = static_cast<rel::RowId>(rng.Uniform(kRows));
      std::vector<size_t> columns;
      if (rng.Bernoulli(0.7)) columns = {static_cast<size_t>(rng.Uniform(4))};
      Status written =
          engine_->Annotate(Spec("birds", row, kBodies[rng.Uniform(5)], columns)).status();
      if (!written.ok()) {
        std::lock_guard<std::mutex> lock(mutex);
        failures.push_back("annotate: " + written.ToString());
        return;
      }
      writes.fetch_add(1, std::memory_order_release);
    }
  });
  while (writes.load(std::memory_order_acquire) == 0) std::this_thread::yield();
  std::vector<std::thread> sessions;
  for (size_t session = 0; session < 2; ++session) {
    sessions.emplace_back([&, session] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t s = 0; s < std::size(kStatements); ++s) {
          const size_t statement = (s + session) % std::size(kStatements);
          auto epoch = engine_->PinSnapshot();
          Result<core::QueryResult> result =
              epoch.ok() ? RunOn(kStatements[statement], 2, *epoch)
                         : Result<core::QueryResult>(epoch.status());
          std::lock_guard<std::mutex> lock(mutex);
          if (!result.ok()) {
            failures.push_back(std::string(kStatements[statement]) + ": " +
                               result.status().ToString());
            continue;
          }
          ran.push_back(Ran{statement, *epoch, Render(*result)});
        }
      }
    });
  }
  for (std::thread& session : sessions) session.join();
  stop.store(true, std::memory_order_release);
  writer.join();
  ASSERT_TRUE(failures.empty()) << failures.front();

  ASSERT_EQ(ran.size(), 2 * kRounds * std::size(kStatements));
  std::set<uint64_t> epochs;
  for (const Ran& r : ran) epochs.insert(r.epoch->epoch());
  EXPECT_GT(epochs.size(), 1u);  // The statements read different row versions.
  for (const Ran& r : ran) {
    SCOPED_TRACE(std::string(kStatements[r.statement]) + " at epoch " +
                 std::to_string(r.epoch->epoch()));
    auto alone = RunOn(kStatements[r.statement], 1, r.epoch);
    ASSERT_TRUE(alone.ok()) << alone.status().ToString();
    EXPECT_EQ(r.rows, Render(*alone));
  }
}

// A scan copies the row state's pointers, and a memo hit the entry's: no
// statement clones a summary object it does not change.
TEST_F(TrimMemoTest, ScanAndMemoHitShareTheRowVersionsObjects) {
  auto epoch = engine_->PinSnapshot();
  ASSERT_TRUE(epoch.ok());
  auto carried = RunOn(kStatements[3], 2, *epoch);
  ASSERT_TRUE(carried.ok()) << carried.status().ToString();
  ASSERT_FALSE(carried->rows.empty());
  for (const core::AnnotatedTuple& row : carried->rows) {
    const auto id = static_cast<rel::RowId>(row.tuple.ValueAt(0).AsInt64());
    const core::EngineSnapshot::RowState* state = (*epoch)->FindRow(Birds(), id);
    ASSERT_NE(state, nullptr);
    EXPECT_EQ(row.summaries, state->summaries) << id;
  }

  const core::ColumnMap trim = core::ColumnMap::Of(4, {{0}, {1}, {2}});
  for (size_t parallelism : {1, 2}) {
    SCOPED_TRACE(parallelism);
    ASSERT_TRUE(RunOn(kStatements[0], parallelism, *epoch).ok());  // Fills.
    auto hit = RunOn(kStatements[0], parallelism, *epoch);
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    ASSERT_EQ(hit->rows.size(), carried->rows.size());
    for (const core::AnnotatedTuple& row : hit->rows) {
      const auto id = static_cast<rel::RowId>(row.tuple.ValueAt(0).AsInt64());
      auto entry = (*epoch)->FindRow(Birds(), id)->memo.Find(trim);
      ASSERT_NE(entry, nullptr) << id;
      EXPECT_EQ(row.summaries, entry->summaries) << id;
    }
  }
}

// Every shape, cold and warm at one and two workers, leaves the objects of
// the epoch it read as published: merges and trims change copies only.
TEST_F(TrimMemoTest, StatementsLeaveTheRowVersionsObjectsUnchanged) {
  auto epoch = engine_->PinSnapshot();
  ASSERT_TRUE(epoch.ok());
  const std::string before = RenderRowStates(**epoch);
  std::vector<std::string> statements(std::begin(kStatements), std::end(kStatements));
  statements.push_back(kDistinct);
  for (size_t parallelism : {1, 2}) {
    for (const std::string& sql : statements) {
      for (int run = 0; run < 2; ++run) {
        auto result = RunOn(sql, parallelism, *epoch);
        ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
      }
    }
  }
  EXPECT_EQ(RenderRowStates(**epoch), before);
}

// A trimming projection that drops no annotation only remaps the list: its
// memo entry shares every object with the row state and costs no payload.
TEST_F(TrimMemoTest, TrimDroppingNothingMemoizesNoSummaryPayload) {
  constexpr rel::RowId kPlainRows = 8;
  ASSERT_TRUE(engine_
                  ->CreateTable("plain",
                                rel::Schema({{"id", rel::ValueType::kInt64, "plain"},
                                             {"name", rel::ValueType::kString, "plain"},
                                             {"weight", rel::ValueType::kInt64, "plain"},
                                             {"family", rel::ValueType::kString, "plain"}}))
                  .ok());
  for (int64_t i = 0; i < static_cast<int64_t>(kPlainRows); ++i) {
    ASSERT_TRUE(
        engine_->Insert("plain", rel::Tuple({I(i), S("p"), I(i), S("fam")})).ok());
  }
  for (const char* instance : {"ClassBird1", "SimCluster", "TextSummary1"}) {
    ASSERT_TRUE(engine_->LinkInstance(instance, "plain").ok());
  }
  // No note covers `family` alone, so dropping it trims nothing.
  const std::vector<std::vector<size_t>> covers = {{0}, {1, 3}, {2}, {}};
  for (rel::RowId row = 0; row < kPlainRows; ++row) {
    for (size_t k = 0; k < covers.size(); ++k) {
      ASSERT_TRUE(engine_->Annotate(Spec("plain", row, kBodies[k], covers[k])).ok());
    }
  }
  auto epoch = engine_->PinSnapshot();
  ASSERT_TRUE(epoch.ok());
  auto result = RunOn("SELECT p.id, p.name, p.weight FROM plain p", 2, *epoch);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const rel::TableId plain = (*engine_->catalog()->GetTable("plain"))->id();
  const core::ColumnMap map = core::ColumnMap::Of(4, {{0}, {1}, {2}});
  size_t total = 0;
  for (rel::RowId row = 0; row < kPlainRows; ++row) {
    const core::EngineSnapshot::RowState* state = (*epoch)->FindRow(plain, row);
    ASSERT_NE(state, nullptr);
    auto entry = state->memo.Find(map);
    ASSERT_NE(entry, nullptr) << row;
    EXPECT_EQ(entry->dropped, 0u);
    EXPECT_EQ(entry->summaries, state->summaries) << row;
    ASSERT_NE(entry->attachments, nullptr);
    const size_t bytes = state->memo.ApproxBytes(state->summaries);
    EXPECT_EQ(bytes, sizeof(core::TrimMemo::Entry) + entry->attachments->ApproxBytes()) << row;
    total += bytes;
  }
  EXPECT_EQ(engine_->TrimMemoBytes(), total);

  // A trim that drops annotations holds restricted copies, which count.
  ASSERT_TRUE(RunOn(kStatements[0], 2, *epoch).ok());
  size_t trimmed_rows = 0;
  for (rel::RowId row = 0; row < static_cast<rel::RowId>(kRows); ++row) {
    const core::EngineSnapshot::RowState* state = (*epoch)->FindRow(Birds(), row);
    auto entry = state->memo.Find(core::ColumnMap::Of(4, {{0}, {1}, {2}}));
    if (entry == nullptr) continue;
    ++trimmed_rows;
    EXPECT_NE(entry->summaries, state->summaries) << row;
    EXPECT_GT(state->memo.ApproxBytes(state->summaries),
              sizeof(core::TrimMemo::Entry) + entry->attachments->ApproxBytes())
        << row;
  }
  EXPECT_GT(trimmed_rows, 0u);
}

TEST_F(TrimMemoTest, WriteBetweenStatementsShowsTheNewNote) {
  const std::string trim = kStatements[0];
  sql::SqlSession session(engine_.get());
  ASSERT_TRUE(session.Execute("SET PARALLELISM = 2").ok());
  auto first = session.Execute(trim);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // Row 3 (weight 21) passes the filter; the note covers the kept `name`.
  auto id = engine_->Annotate(Spec("birds", 3, "wingspan and beak size", {1}));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  for (int run = 0; run < 2; ++run) {  // The fill, then the memo hit.
    SCOPED_TRACE(run);
    auto second = session.Execute(trim);
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    const auto& rows = second->result.rows;
    auto row = std::find_if(rows.begin(), rows.end(), [](const core::AnnotatedTuple& t) {
      return t.tuple.ValueAt(0).AsInt64() == 3;
    });
    ASSERT_NE(row, rows.end());
    const std::vector<testutil::Att> atts = testutil::Entries(row->attachments);
    EXPECT_TRUE(std::any_of(atts.begin(), atts.end(),
                            [&](const testutil::Att& a) { return a.id == *id; }));
    const core::SummaryObject* class1 = row->FindSummary("ClassBird1");
    ASSERT_NE(class1, nullptr);
    EXPECT_TRUE(class1->Contains(*id));
  }
}

}  // namespace
}  // namespace insightnotes
