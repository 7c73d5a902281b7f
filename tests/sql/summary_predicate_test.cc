// Summary-based predicates (Section 2.1): filtering and sorting tuples by
// the contents of their summary objects, without touching raw annotations.

#include <gtest/gtest.h>

#include "exec/summary_filter.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "sql/session.h"
#include "testutil.h"

namespace insightnotes::sql {
namespace {

class SummaryPredicateTest : public testutil::EngineFixture {
 protected:
  void SetUp() override {
    testutil::EngineFixture::SetUp();
    CreateFigure2Tables();
    CreateFigure2Instances();
    session_ = std::make_unique<SqlSession>(engine_.get());
    // Row 0: 3 behavior + 1 disease; row 1: 1 disease; row 2: none.
    Note(0, "found eating stonewort");
    Note(0, "observed foraging at dusk");
    Note(0, "migration flock flying south");
    Note(0, "signs of influenza infection");
    Note(1, "parasite infestation suspected disease");
  }

  void Note(rel::RowId row, const std::string& body) {
    ASSERT_TRUE(engine_->Annotate(Spec("R", row, body)).ok());
  }

  ExecutionOutput Must(const std::string& sql) {
    auto out = session_->Execute(sql);
    EXPECT_TRUE(out.ok()) << sql << " -> " << out.status().ToString();
    return out.ok() ? std::move(*out) : ExecutionOutput{};
  }

  std::unique_ptr<SqlSession> session_;
};

TEST_F(SummaryPredicateTest, SpecEvaluatesCounts) {
  auto scan = engine_->MakeScan("R", "r");
  ASSERT_TRUE(scan.ok());
  std::vector<core::AnnotatedTuple> rows = testutil::DrainRows(engine_.get(), scan->get());
  ASSERT_FALSE(rows.empty());
  core::AnnotatedTuple& t = rows.front();
  exec::SummaryCountSpec total{"ClassBird1", ""};
  EXPECT_EQ(*total.Evaluate(&t), 4);
  exec::SummaryCountSpec behavior{"ClassBird1", "Behavior"};
  EXPECT_EQ(*behavior.Evaluate(&t), 3);
  exec::SummaryCountSpec unknown_label{"ClassBird1", "Nope"};
  EXPECT_EQ(*unknown_label.Evaluate(&t), 0);
  exec::SummaryCountSpec unknown_instance{"Ghost", ""};
  EXPECT_EQ(*unknown_instance.Evaluate(&t), 0);
}

TEST_F(SummaryPredicateTest, FilterByTotalCount) {
  auto out = Must("SELECT r.a FROM R r WHERE SUMMARY_COUNT(ClassBird1) > 0");
  ASSERT_EQ(out.result.rows.size(), 2u);  // Rows 0 and 1.
}

TEST_F(SummaryPredicateTest, FilterByLabelCount) {
  auto out = Must(
      "SELECT r.a FROM R r WHERE SUMMARY_COUNT(ClassBird1, 'Behavior') >= 3");
  ASSERT_EQ(out.result.rows.size(), 1u);
  EXPECT_EQ(out.result.rows[0].tuple.ValueAt(0).AsInt64(), 1);
}

TEST_F(SummaryPredicateTest, FlippedComparisonNormalized) {
  auto out = Must("SELECT r.a FROM R r WHERE 1 <= SUMMARY_COUNT(ClassBird1, 'Disease')");
  ASSERT_EQ(out.result.rows.size(), 2u);
}

TEST_F(SummaryPredicateTest, CombinesWithRegularPredicates) {
  auto out = Must(
      "SELECT r.a FROM R r WHERE r.b = 2 AND SUMMARY_COUNT(ClassBird1, 'Disease') = 1");
  ASSERT_EQ(out.result.rows.size(), 2u);  // Rows 0 and 1 both have b=2, 1 disease.
}

TEST_F(SummaryPredicateTest, OrderBySummaryCount) {
  auto out = Must(
      "SELECT r.a FROM R r ORDER BY SUMMARY_COUNT(ClassBird1) DESC, r.a ASC");
  ASSERT_EQ(out.result.rows.size(), 3u);
  EXPECT_EQ(out.result.rows[0].tuple.ValueAt(0).AsInt64(), 1);  // 4 annotations.
  EXPECT_EQ(out.result.rows[1].tuple.ValueAt(0).AsInt64(), 2);  // 1 annotation.
  EXPECT_EQ(out.result.rows[2].tuple.ValueAt(0).AsInt64(), 3);  // 0 annotations.
}

TEST_F(SummaryPredicateTest, OrderBySummaryCountHonorsMemoryLimit) {
  ASSERT_TRUE(session_->Execute("SET PARALLELISM = 1").ok());
  ASSERT_TRUE(session_->Execute("SET MEMORY_LIMIT = 1").ok());
  // Control: an expression key already charges its materialized input.
  auto by_column = session_->Execute("SELECT r.a FROM R r ORDER BY r.a");
  EXPECT_TRUE(by_column.status().IsResourceExhausted())
      << by_column.status().ToString();
  // A SUMMARY_COUNT key materializes the same input and must charge it too.
  auto by_summary =
      session_->Execute("SELECT r.a FROM R r ORDER BY SUMMARY_COUNT(ClassBird1)");
  EXPECT_TRUE(by_summary.status().IsResourceExhausted())
      << by_summary.status().ToString();
}

TEST_F(SummaryPredicateTest, SummaryPredicateAfterJoin) {
  // ClassBird2 is on both R and S; the filter applies to the merged object.
  ASSERT_TRUE(engine_->Annotate(Spec("S", 0, "why is this here")).ok());
  auto out = Must(
      "SELECT r.a, s.z FROM R r, S s WHERE r.a = s.x "
      "AND SUMMARY_COUNT(ClassBird2) >= 5");
  // Row (1, z0): merged ClassBird2 has 4 from R + 1 from S = 5.
  ASSERT_EQ(out.result.rows.size(), 1u);
  EXPECT_EQ(out.result.rows[0].tuple.ValueAt(0).AsInt64(), 1);
}

// A projection defers its Theorem-1 restriction, so a SUMMARY_COUNT read
// above it must settle the object it reads. Every row of p carries i % 3
// notes on the kept column `val` and i % 4 notes on the dropped column
// `junk`: untrimmed, many more rows would pass the filter and the count
// order would put rows 11, 23, 35 first.
TEST_F(SummaryPredicateTest, CountsAboveTrimmedProjectionSeeTheTrim) {
  ASSERT_TRUE(engine_
                  ->CreateTable("p", rel::Schema({{"id", rel::ValueType::kInt64, "p"},
                                                  {"val", rel::ValueType::kInt64, "p"},
                                                  {"junk", rel::ValueType::kString, "p"}}))
                  .ok());
  constexpr int64_t kRows = 40;
  for (int64_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(
        engine_->Insert("p", rel::Tuple({testutil::I(i), testutil::I(i), testutil::S("j")}))
            .ok());
  }
  ASSERT_TRUE(engine_->LinkInstance("ClassBird1", "p").ok());
  for (int64_t i = 0; i < kRows; ++i) {
    const rel::RowId row = static_cast<rel::RowId>(i);
    for (int64_t k = 0; k < i % 3; ++k) {
      ASSERT_TRUE(engine_->Annotate(Spec("p", row, "found eating stonewort", {1})).ok());
    }
    for (int64_t k = 0; k < i % 4; ++k) {
      ASSERT_TRUE(engine_->Annotate(Spec("p", row, "signs of influenza", {2})).ok());
    }
  }
  auto run = [&](const std::string& sql, size_t parallelism) {
    auto statement = Parse(sql);
    EXPECT_TRUE(statement.ok()) << statement.status().ToString();
    PlannerOptions options;
    options.parallelism = parallelism;
    options.morsel_size = 4;
    auto plan = PlanSelect(std::get<SelectStatement>(*statement), engine_.get(), options);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    auto result = engine_->Execute(std::move(*plan));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::vector<std::pair<int64_t, size_t>> rows;  // (id, ClassBird1 count).
    if (!result.ok()) return rows;
    for (const core::AnnotatedTuple& row : result->rows) {
      const core::SummaryObject* object = row.FindSummary("ClassBird1");
      rows.emplace_back(row.tuple.ValueAt(0).AsInt64(),
                        object != nullptr ? object->NumAnnotations() : 0);
    }
    return rows;
  };
  for (size_t parallelism : {1u, 4u}) {
    SCOPED_TRACE("parallelism=" + std::to_string(parallelism));
    using Rows = std::vector<std::pair<int64_t, size_t>>;
    EXPECT_EQ(run("SELECT p.id, p.val FROM p p WHERE SUMMARY_COUNT(ClassBird1) >= 2 "
                  "ORDER BY p.id DESC LIMIT 4",
                  parallelism),
              (Rows{{38, 2}, {35, 2}, {32, 2}, {29, 2}}));
    EXPECT_EQ(run("SELECT p.id, p.val FROM p p "
                  "ORDER BY SUMMARY_COUNT(ClassBird1) DESC, p.id LIMIT 3",
                  parallelism),
              (Rows{{2, 2}, {5, 2}, {8, 2}}));
  }
}

TEST_F(SummaryPredicateTest, NonLiteralComparisonRejected) {
  auto out = session_->Execute(
      "SELECT r.a FROM R r WHERE SUMMARY_COUNT(ClassBird1) > r.b");
  EXPECT_TRUE(out.status().IsInvalidArgument());
}

TEST_F(SummaryPredicateTest, SummaryCountOutsideConjunctRejected) {
  auto out = session_->Execute(
      "SELECT r.a FROM R r WHERE SUMMARY_COUNT(ClassBird1) + 1 = 2");
  EXPECT_FALSE(out.ok());
}

TEST_F(SummaryPredicateTest, ParserRoundTrip) {
  auto out = Must("SELECT r.a FROM R r WHERE SUMMARY_COUNT(SimCluster) >= 0");
  EXPECT_EQ(out.result.rows.size(), 3u);
}

}  // namespace
}  // namespace insightnotes::sql
