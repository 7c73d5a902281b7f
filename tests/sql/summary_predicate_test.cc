// Summary-based predicates (Section 2.1): filtering and sorting tuples by
// the contents of their summary objects, without touching raw annotations.

#include <gtest/gtest.h>

#include "exec/summary_filter.h"
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
  std::vector<core::AnnotatedTuple> rows = testutil::DrainRows(scan->get());
  ASSERT_FALSE(rows.empty());
  const core::AnnotatedTuple& t = rows.front();
  exec::SummaryCountSpec total{"ClassBird1", ""};
  EXPECT_EQ(*total.Evaluate(t), 4);
  exec::SummaryCountSpec behavior{"ClassBird1", "Behavior"};
  EXPECT_EQ(*behavior.Evaluate(t), 3);
  exec::SummaryCountSpec unknown_label{"ClassBird1", "Nope"};
  EXPECT_EQ(*unknown_label.Evaluate(t), 0);
  exec::SummaryCountSpec unknown_instance{"Ghost", ""};
  EXPECT_EQ(*unknown_instance.Evaluate(t), 0);
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
