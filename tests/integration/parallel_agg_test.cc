// Parallel aggregation / sort / distinct oracle: the partial-state plan
// shapes (PartialAggregate+AggregateMerge, PartialSort+SortMerge,
// PartialDistinct+DistinctMerge) must produce results BYTE-IDENTICAL to
// the serial operators — same tuples in the same order, identical merged
// summary objects (shared annotations counted once, cluster representative
// election included), identical attachment metadata, and bit-identical
// float SUM/AVG results (the merge replays recorded terms in morsel
// order). Runs at parallelism {1, 2, 8} with morsel sizes that divide the
// table unevenly on purpose.
//
// The stress test at the bottom doubles as the TSAN target for the
// partial-aggregation publish/merge protocol (see .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "sql/session.h"
#include "testutil.h"

namespace insightnotes {
namespace {

using testutil::EngineFixture;
using testutil::F;
using testutil::I;
using testutil::S;

class ParallelAggTest : public EngineFixture {
 protected:
  void SetUp() override {
    EngineFixture::SetUp();
    CreateFigure2Tables();
    CreateFigure2Instances();
    CreateObservationTable();
  }

  /// obs(id, station, reading, temp, note): kObsRows rows over a few
  /// stations, with a float column whose per-group sums exercise the
  /// non-associative double addition, plus heavy annotation coverage so
  /// group/distinct merges fold real summary objects.
  void CreateObservationTable() {
    ASSERT_TRUE(engine_
                    ->CreateTable("obs",
                                  rel::Schema({{"id", rel::ValueType::kInt64, "obs"},
                                               {"station", rel::ValueType::kInt64, "obs"},
                                               {"reading", rel::ValueType::kInt64, "obs"},
                                               {"temp", rel::ValueType::kFloat64, "obs"},
                                               {"note", rel::ValueType::kString, "obs"}}))
                    .ok());
    Random rng(7);
    for (int64_t i = 0; i < kObsRows; ++i) {
      // Irrational-ish temps: float addition order visibly matters.
      double temp = 0.1 + static_cast<double>(rng.Uniform(1000)) / 7.0;
      auto row = engine_->Insert(
          "obs",
          rel::Tuple({I(i), I(i % 5), I(static_cast<int64_t>(rng.Uniform(40))),
                      F(temp), S("n" + std::to_string(i % 9))}));
      ASSERT_TRUE(row.ok());
    }
    ASSERT_TRUE(engine_->LinkInstance("ClassBird1", "obs").ok());
    ASSERT_TRUE(engine_->LinkInstance("SimCluster", "obs").ok());

    const std::vector<std::string> bodies = {
        "found eating stonewort near the shore",
        "signs of influenza infection detected",
        "wingspan and body size measured today",
        "why is this measurement so high",
        "general remark about the observation",
    };
    for (int i = 0; i < 80; ++i) {
      rel::RowId row = static_cast<rel::RowId>(rng.Uniform(kObsRows));
      std::vector<size_t> columns;
      if (rng.Bernoulli(0.5)) columns.push_back(rng.Uniform(5));
      auto id = engine_->Annotate(
          Spec("obs", row, bodies[rng.Uniform(bodies.size())], columns));
      ASSERT_TRUE(id.ok());
      // Shared annotations: the same annotation on several rows, so group
      // and distinct merges must count it once.
      if (rng.Bernoulli(0.3)) {
        ASSERT_TRUE(engine_
                        ->AttachAnnotation(*id, "obs",
                                           static_cast<rel::RowId>(rng.Uniform(kObsRows)))
                        .ok());
      }
    }
  }

  core::QueryResult Execute(const std::string& sql_text, size_t parallelism,
                            size_t morsel_size) {
    auto statement = sql::Parse(sql_text);
    EXPECT_TRUE(statement.ok()) << statement.status().ToString();
    auto* select = std::get_if<sql::SelectStatement>(&*statement);
    EXPECT_NE(select, nullptr);
    sql::PlannerOptions options;
    options.parallelism = parallelism;
    options.morsel_size = morsel_size;
    auto plan = sql::PlanSelect(*select, engine_.get(), options);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    auto result = engine_->Execute(std::move(*plan));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(*result) : core::QueryResult{};
  }

  /// Full byte-for-byte rendering: data values, summaries in pipeline
  /// order (Render() covers component order and representative election),
  /// attachments in order.
  std::vector<std::string> Run(const std::string& sql_text, size_t parallelism,
                               size_t morsel_size) {
    core::QueryResult result = Execute(sql_text, parallelism, morsel_size);
    std::vector<std::string> rows;
    for (const core::AnnotatedTuple& row : result.rows) {
      std::ostringstream os;
      os << row.tuple.ToString();
      for (const auto& summary : row.summaries) {
        os << " || " << summary->instance_name() << "=" << summary->Render();
      }
      for (const testutil::Att& attachment : testutil::Entries(row.attachments)) {
        os << " [A" << attachment.id << ":";
        for (size_t c : attachment.columns) os << c << ",";
        os << "]";
      }
      rows.push_back(os.str());
    }
    return rows;
  }

  void ExpectOracle(const std::string& sql_text) {
    SCOPED_TRACE(sql_text);
    std::vector<std::string> serial = Run(sql_text, 1, 16);
    ASSERT_FALSE(::testing::Test::HasFailure());
    for (size_t parallelism : {2u, 8u}) {
      for (size_t morsel : {16u, 13u}) {
        SCOPED_TRACE("parallelism=" + std::to_string(parallelism) +
                     " morsel=" + std::to_string(morsel));
        EXPECT_EQ(serial, Run(sql_text, parallelism, morsel));
      }
    }
  }

  static constexpr int64_t kObsRows = 300;
};

TEST_F(ParallelAggTest, GroupByAllAggregatesOracle) {
  ExpectOracle(
      "SELECT o.station, COUNT(*), COUNT(o.reading), SUM(o.reading), "
      "MIN(o.reading), MAX(o.reading), AVG(o.reading) "
      "FROM obs o GROUP BY o.station ORDER BY o.station");
}

TEST_F(ParallelAggTest, GroupByWithoutOrderByOracle) {
  // No ORDER BY: group emission order is first-seen order, which the
  // morsel-ordered merge must reproduce exactly.
  ExpectOracle("SELECT o.note, COUNT(*) FROM obs o GROUP BY o.note");
}

TEST_F(ParallelAggTest, GroupSummariesAndRepresentativesOracle) {
  // Groups collapse many annotated tuples; merged classifier counts and
  // cluster representative election must match the serial fold.
  ExpectOracle(
      "SELECT o.station, COUNT(*) FROM obs o GROUP BY o.station "
      "ORDER BY o.station");
  ExpectOracle("SELECT o.note, SUM(o.reading) FROM obs o GROUP BY o.note");
}

TEST_F(ParallelAggTest, MinMaxOverStringsOracle) {
  ExpectOracle(
      "SELECT o.station, MIN(o.note), MAX(o.note) FROM obs o "
      "GROUP BY o.station ORDER BY o.station");
}

TEST_F(ParallelAggTest, GlobalAggregateOracle) {
  ExpectOracle(
      "SELECT COUNT(*), SUM(o.reading), MIN(o.note), MAX(o.temp) FROM obs o");
}

TEST_F(ParallelAggTest, EmptyInputOracle) {
  // Global aggregate over empty input still emits one zero-count row;
  // grouped aggregate emits none. Both must match serial exactly.
  ExpectOracle("SELECT COUNT(*), SUM(o.reading) FROM obs o WHERE o.id < 0");
  ExpectOracle(
      "SELECT o.station, COUNT(*) FROM obs o WHERE o.id < 0 GROUP BY o.station");
  ExpectOracle("SELECT o.id FROM obs o WHERE o.id < 0 ORDER BY o.id");
  ExpectOracle("SELECT DISTINCT o.note FROM obs o WHERE o.id < 0");
}

TEST_F(ParallelAggTest, FloatSumBitIdentical) {
  // Rendering rounds doubles; compare the raw tuples so SUM/AVG over the
  // float column must reproduce the serial result bit for bit (the merge
  // replays the recorded terms in morsel order).
  const std::string q =
      "SELECT o.station, SUM(o.temp), AVG(o.temp) FROM obs o "
      "GROUP BY o.station ORDER BY o.station";
  core::QueryResult serial = Execute(q, 1, 16);
  ASSERT_FALSE(::testing::Test::HasFailure());
  for (size_t parallelism : {2u, 8u}) {
    for (size_t morsel : {16u, 13u}) {
      SCOPED_TRACE("parallelism=" + std::to_string(parallelism) +
                   " morsel=" + std::to_string(morsel));
      core::QueryResult parallel = Execute(q, parallelism, morsel);
      ASSERT_EQ(serial.rows.size(), parallel.rows.size());
      for (size_t i = 0; i < serial.rows.size(); ++i) {
        EXPECT_TRUE(serial.rows[i].tuple == parallel.rows[i].tuple)
            << "row " << i << ": " << serial.rows[i].tuple.ToString() << " vs "
            << parallel.rows[i].tuple.ToString();
      }
    }
  }
}

TEST_F(ParallelAggTest, AggregateOutputSchemaTypes) {
  // Aggregate result columns carry real types inferred from the argument
  // expression instead of degrading to NULL.
  auto statement = sql::Parse(
      "SELECT o.station, COUNT(*), SUM(o.reading), SUM(o.temp), AVG(o.reading), "
      "MIN(o.note) FROM obs o GROUP BY o.station");
  ASSERT_TRUE(statement.ok());
  auto* select = std::get_if<sql::SelectStatement>(&*statement);
  ASSERT_NE(select, nullptr);
  for (size_t parallelism : {1u, 4u}) {
    SCOPED_TRACE(parallelism);
    sql::PlannerOptions options;
    options.parallelism = parallelism;
    auto plan = sql::PlanSelect(*select, engine_.get(), options);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const rel::Schema& schema = (*plan)->OutputSchema();
    ASSERT_EQ(schema.NumColumns(), 6u);
    EXPECT_EQ(schema.ColumnAt(0).type, rel::ValueType::kInt64);    // station
    EXPECT_EQ(schema.ColumnAt(1).type, rel::ValueType::kInt64);    // COUNT(*)
    EXPECT_EQ(schema.ColumnAt(2).type, rel::ValueType::kInt64);    // SUM(int)
    EXPECT_EQ(schema.ColumnAt(3).type, rel::ValueType::kFloat64);  // SUM(float)
    EXPECT_EQ(schema.ColumnAt(4).type, rel::ValueType::kFloat64);  // AVG
    EXPECT_EQ(schema.ColumnAt(5).type, rel::ValueType::kString);   // MIN(text)
  }
}

TEST_F(ParallelAggTest, OrderByMultiKeyOracle) {
  // Many reading/note ties: the k-way merge must reproduce the serial
  // stable-sort tie order (input order) exactly.
  ExpectOracle(
      "SELECT o.id, o.reading, o.note FROM obs o "
      "ORDER BY o.reading DESC, o.note ASC");
  ExpectOracle("SELECT o.id, o.station FROM obs o ORDER BY o.station");
}

TEST_F(ParallelAggTest, OrderBySummaryCountOracle) {
  // SUMMARY_COUNT keys interleave with expression keys inside one run
  // comparator.
  ExpectOracle(
      "SELECT o.id FROM obs o "
      "ORDER BY SUMMARY_COUNT(ClassBird1) DESC, o.id ASC");
}

TEST_F(ParallelAggTest, OrderByWithFilterAndLimitOracle) {
  ExpectOracle(
      "SELECT o.id, o.reading FROM obs o WHERE o.reading > 10 "
      "ORDER BY o.reading ASC, o.id DESC LIMIT 20");
}

TEST_F(ParallelAggTest, DistinctOracle) {
  // No ORDER BY: distinct emission order is global first-seen order, which
  // the morsel-ordered fold must reproduce; merged summaries ride along.
  ExpectOracle("SELECT DISTINCT o.note FROM obs o");
  ExpectOracle("SELECT DISTINCT o.station, o.note FROM obs o");
}

TEST_F(ParallelAggTest, ExplainShowsPartialPlanShapes) {
  sql::SqlSession session(engine_.get());
  ASSERT_TRUE(session.Execute("SET PARALLELISM = 4").ok());
  auto agg = session.Execute(
      "EXPLAIN SELECT o.station, COUNT(*) FROM obs o GROUP BY o.station");
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  EXPECT_NE(agg->message.find("AggregateMerge"), std::string::npos) << agg->message;
  EXPECT_NE(agg->message.find("PartialAggregate"), std::string::npos) << agg->message;
  EXPECT_NE(agg->message.find("Gather"), std::string::npos) << agg->message;

  auto sort = session.Execute("EXPLAIN SELECT o.id FROM obs o ORDER BY o.id");
  ASSERT_TRUE(sort.ok()) << sort.status().ToString();
  EXPECT_NE(sort->message.find("SortMerge"), std::string::npos) << sort->message;
  EXPECT_NE(sort->message.find("PartialSort"), std::string::npos) << sort->message;

  auto distinct = session.Execute("EXPLAIN SELECT DISTINCT o.note FROM obs o");
  ASSERT_TRUE(distinct.ok()) << distinct.status().ToString();
  EXPECT_NE(distinct->message.find("DistinctMerge"), std::string::npos)
      << distinct->message;
  EXPECT_NE(distinct->message.find("PartialDistinct"), std::string::npos)
      << distinct->message;
}

TEST_F(ParallelAggTest, ExplainAnalyzeReportsPartialMetrics) {
  sql::SqlSession session(engine_.get());
  ASSERT_TRUE(session.Execute("SET PARALLELISM = 2").ok());
  auto out = session.Execute(
      "EXPLAIN ANALYZE SELECT o.station, COUNT(*), SUM(o.reading) FROM obs o "
      "GROUP BY o.station");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->message.find("partial_groups="), std::string::npos) << out->message;
  EXPECT_NE(out->message.find("AggregateMerge"), std::string::npos) << out->message;
}

// TSAN target: hammer the partial-state publish/merge protocol (aggregate,
// distinct, and sort runs) from repeated 8-worker executions so races in
// the shared sinks or the gather handoff surface under ThreadSanitizer.
TEST_F(ParallelAggTest, StressParallelAggregateRepeatedExecution) {
  const std::string agg =
      "SELECT o.station, COUNT(*), SUM(o.temp) FROM obs o GROUP BY o.station";
  const std::string sort = "SELECT o.id FROM obs o ORDER BY o.reading DESC, o.id";
  const std::string distinct = "SELECT DISTINCT o.note FROM obs o";
  std::vector<std::string> agg_serial = Run(agg, 1, 8);
  std::vector<std::string> sort_serial = Run(sort, 1, 8);
  std::vector<std::string> distinct_serial = Run(distinct, 1, 8);
  for (int iteration = 0; iteration < 8; ++iteration) {
    SCOPED_TRACE(iteration);
    EXPECT_EQ(agg_serial, Run(agg, 8, 8));
    EXPECT_EQ(sort_serial, Run(sort, 8, 8));
    EXPECT_EQ(distinct_serial, Run(distinct, 8, 8));
  }
}

}  // namespace
}  // namespace insightnotes
