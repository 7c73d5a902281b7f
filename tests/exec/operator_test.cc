#include <gtest/gtest.h>

#include <memory>

#include "exec/aggregate.h"
#include "exec/distinct.h"
#include "exec/filter.h"
#include "exec/projection.h"
#include "exec/sort.h"
#include "testutil.h"

namespace insightnotes::exec {
namespace {

using core::AnnotatedTuple;
using rel::CompareOp;
using rel::MakeCompare;
using rel::MakeLiteral;
using testutil::Col;
using testutil::DrainRows;
using testutil::I;
using testutil::S;

class OperatorTest : public testutil::EngineFixture {
 protected:
  void SetUp() override {
    testutil::EngineFixture::SetUp();
    CreateFigure2Tables();
    CreateFigure2Instances();
  }

  std::unique_ptr<Operator> Scan(const std::string& table, const std::string& alias) {
    auto scan = engine_->MakeScan(table, alias);
    EXPECT_TRUE(scan.ok());
    return std::move(*scan);
  }
};

TEST_F(OperatorTest, SeqScanProducesAllRowsWithSummaries) {
  auto scan = Scan("R", "r");
  auto rows = DrainRows(scan.get());
  ASSERT_EQ(rows.size(), 3u);
  // Four instances linked to R.
  EXPECT_EQ(rows[0].summaries.size(), 4u);
  EXPECT_EQ(scan->OutputSchema().ToString(),
            "(r.a BIGINT, r.b BIGINT, r.c TEXT, r.d TEXT)");
}

TEST_F(OperatorTest, SeqScanWithoutSummaries) {
  auto scan = engine_->MakeScan("R", "r", /*with_summaries=*/false);
  ASSERT_TRUE(scan.ok());
  auto rows = DrainRows(scan->get());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_TRUE(rows[0].summaries.empty());
  EXPECT_TRUE(rows[0].attachments.empty());
}

TEST_F(OperatorTest, SeqScanCarriesAttachmentMetadata) {
  ASSERT_TRUE(engine_->Annotate(Spec("R", 0, "eating stonewort", {2})).ok());
  ASSERT_TRUE(engine_->Annotate(Spec("R", 0, "whole row note")).ok());
  auto scan = Scan("R", "r");
  auto rows = DrainRows(scan.get());
  ASSERT_EQ(rows[0].attachments.size(), 2u);
  EXPECT_EQ(rows[0].attachments[0].columns, (std::vector<size_t>{2}));
  EXPECT_TRUE(rows[0].attachments[1].columns.empty());
}

TEST_F(OperatorTest, FilterKeepsMatching) {
  auto scan = Scan("R", "r");
  const auto& schema = scan->OutputSchema();
  auto filter = std::make_unique<FilterOperator>(
      std::move(scan),
      MakeCompare(CompareOp::kEq, Col(schema, "r.b"), MakeLiteral(I(2))));
  auto rows = DrainRows(filter.get());
  ASSERT_EQ(rows.size(), 2u);
  for (const auto& row : rows) {
    EXPECT_EQ(row.tuple.ValueAt(1).AsInt64(), 2);
    EXPECT_EQ(row.summaries.size(), 4u);  // Selection leaves summaries alone.
  }
}

TEST_F(OperatorTest, ProjectionTrimsAnnotationsOnDroppedColumns) {
  // Annotation on column c (position 2) must vanish when projecting (a, b);
  // annotation on column a must survive; whole-row annotation survives.
  ASSERT_TRUE(engine_->Annotate(Spec("R", 0, "eating stonewort", {2})).ok());
  ASSERT_TRUE(engine_->Annotate(Spec("R", 0, "wingspan is large", {0})).ok());
  ASSERT_TRUE(engine_->Annotate(Spec("R", 0, "influenza suspected")).ok());

  auto scan = Scan("R", "r");
  auto project = ProjectOperator::FromColumns(std::move(scan), {"r.a", "r.b"});
  ASSERT_TRUE(project.ok());
  auto rows = DrainRows(project->get());
  ASSERT_EQ(rows.size(), 3u);
  const AnnotatedTuple& row0 = rows[0];
  EXPECT_EQ(row0.tuple.NumValues(), 2u);
  ASSERT_EQ(row0.attachments.size(), 2u);
  // ClassBird1 object must have dropped exactly the column-c annotation.
  auto* class1 = row0.FindSummary("ClassBird1");
  ASSERT_NE(class1, nullptr);
  EXPECT_EQ(class1->NumAnnotations(), 2u);
  EXPECT_FALSE(class1->Contains(0));
  EXPECT_TRUE(class1->Contains(1));
  EXPECT_TRUE(class1->Contains(2));
}

TEST_F(OperatorTest, ProjectionRemapsAttachmentColumns) {
  ASSERT_TRUE(engine_->Annotate(Spec("R", 0, "note on c", {2})).ok());
  auto scan = Scan("R", "r");
  // Output order (c, a): child column 2 -> output position 0.
  auto project = ProjectOperator::FromColumns(std::move(scan), {"r.c", "r.a"});
  ASSERT_TRUE(project.ok());
  auto rows = DrainRows(project->get());
  ASSERT_EQ(rows[0].attachments.size(), 1u);
  EXPECT_EQ(rows[0].attachments[0].columns, (std::vector<size_t>{0}));
}

TEST_F(OperatorTest, HashJoinMergesSummaries) {
  // ClassBird2 is linked to both R and S -> counterparts merge. ClassBird1
  // and TextSummary1 exist only on R -> propagate unchanged.
  ASSERT_TRUE(engine_->Annotate(Spec("R", 0, "produced by experiment alpha")).ok());
  ASSERT_TRUE(engine_->Annotate(Spec("S", 0, "why is this value so high")).ok());

  auto left = Scan("R", "r");
  auto right = Scan("S", "s");
  auto join = testutil::HashJoin(
      std::move(left), std::move(right),
      Col(engine_->catalog()->GetTable("R").value()->schema().WithQualifier("r"), "r.a"),
      Col(engine_->catalog()->GetTable("S").value()->schema().WithQualifier("s"), "s.x"));
  auto rows = DrainRows(join.get());
  // R.a values {1,2,3} join S.x values {1,3,4} -> matches on 1 and 3.
  ASSERT_EQ(rows.size(), 2u);
  const AnnotatedTuple* joined_row0 = nullptr;
  for (const auto& row : rows) {
    if (row.tuple.ValueAt(0).AsInt64() == 1) joined_row0 = &row;
  }
  ASSERT_NE(joined_row0, nullptr);
  EXPECT_EQ(joined_row0->tuple.NumValues(), 7u);
  // Summary objects: ClassBird1, ClassBird2 (merged), SimCluster (merged),
  // TextSummary1 -> 4 distinct instances.
  EXPECT_EQ(joined_row0->summaries.size(), 4u);
  auto* class2 = joined_row0->FindSummary("ClassBird2");
  ASSERT_NE(class2, nullptr);
  EXPECT_EQ(class2->NumAnnotations(), 2u);  // One from each side.
}

TEST_F(OperatorTest, HashJoinSharedAnnotationCountedOnce) {
  // The same annotation attached to R row 0 and S row 0.
  auto id = engine_->Annotate(Spec("R", 0, "produced by experiment shared"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine_->AttachAnnotation(*id, "S", 0).ok());

  auto join = testutil::HashJoin(
      Scan("R", "r"), Scan("S", "s"),
      Col(engine_->catalog()->GetTable("R").value()->schema().WithQualifier("r"), "r.a"),
      Col(engine_->catalog()->GetTable("S").value()->schema().WithQualifier("s"), "s.x"));
  auto rows = DrainRows(join.get());
  for (const auto& row : rows) {
    if (row.tuple.ValueAt(0).AsInt64() != 1) continue;
    auto* class2 = row.FindSummary("ClassBird2");
    ASSERT_NE(class2, nullptr);
    EXPECT_EQ(class2->NumAnnotations(), 1u);  // Not double counted.
    // Attachment metadata also deduplicated.
    size_t count = 0;
    for (const auto& att : row.attachments) {
      if (att.id == *id) ++count;
    }
    EXPECT_EQ(count, 1u);
  }
}

TEST_F(OperatorTest, CrossProductMatchesHashJoinOnEquiPredicate) {
  ASSERT_TRUE(engine_->Annotate(Spec("R", 2, "note on row three")).ok());
  auto r_schema = engine_->catalog()->GetTable("R").value()->schema().WithQualifier("r");
  auto s_schema = engine_->catalog()->GetTable("S").value()->schema().WithQualifier("s");
  auto joined_schema = rel::Schema::Concat(r_schema, s_schema);

  auto hash_join = testutil::HashJoin(Scan("R", "r"), Scan("S", "s"),
                                      Col(r_schema, "r.a"), Col(s_schema, "s.x"));
  // A cross product is the hash join keyed on one literal on both sides;
  // the equality then applies as a filter above it.
  auto cross_join = std::make_unique<FilterOperator>(
      testutil::HashJoin(Scan("R", "r"), Scan("S", "s"), MakeLiteral(I(1)),
                         MakeLiteral(I(1))),
      MakeCompare(CompareOp::kEq, Col(joined_schema, "r.a"), Col(joined_schema, "s.x")));
  auto hash_rows = DrainRows(hash_join.get());
  auto cross_rows = DrainRows(cross_join.get());
  ASSERT_EQ(hash_rows.size(), cross_rows.size());
  for (size_t i = 0; i < hash_rows.size(); ++i) {
    EXPECT_EQ(hash_rows[i].tuple, cross_rows[i].tuple);
  }
}

TEST_F(OperatorTest, AggregateCountsAndMergesSummaries) {
  ASSERT_TRUE(engine_->Annotate(Spec("R", 0, "eating stonewort")).ok());
  ASSERT_TRUE(engine_->Annotate(Spec("R", 1, "influenza signs")).ok());
  auto scan = Scan("R", "r");
  const auto& schema = scan->OutputSchema();
  std::vector<rel::ExprPtr> group;
  group.push_back(Col(schema, "r.b"));
  std::vector<AggregateItem> aggs;
  aggs.push_back(AggregateItem{AggregateFunction::kCountStar, nullptr, "cnt"});
  aggs.push_back(AggregateItem{AggregateFunction::kSum, Col(schema, "r.a"), "suma"});
  auto agg = std::make_unique<AggregateOperator>(
      std::move(scan), std::move(group),
      std::vector<rel::Column>{{"b", rel::ValueType::kInt64, ""}}, std::move(aggs));
  auto rows = DrainRows(agg.get());
  ASSERT_EQ(rows.size(), 2u);  // b = 2 (rows 0,1) and b = 9 (row 2).
  const AnnotatedTuple* b2 = nullptr;
  for (const auto& row : rows) {
    if (row.tuple.ValueAt(0).AsInt64() == 2) b2 = &row;
  }
  ASSERT_NE(b2, nullptr);
  EXPECT_EQ(b2->tuple.ValueAt(1).AsInt64(), 2);   // COUNT(*).
  EXPECT_EQ(b2->tuple.ValueAt(2).AsInt64(), 3);   // SUM(a) = 1 + 2.
  // Both rows' annotations merged into the group summary.
  auto* class1 = b2->FindSummary("ClassBird1");
  ASSERT_NE(class1, nullptr);
  EXPECT_EQ(class1->NumAnnotations(), 2u);
}

TEST_F(OperatorTest, GlobalAggregateOverEmptyInput) {
  auto scan = Scan("R", "r");
  const auto& schema = scan->OutputSchema();
  auto filter = std::make_unique<FilterOperator>(
      std::move(scan),
      MakeCompare(CompareOp::kEq, Col(schema, "r.a"), MakeLiteral(I(999))));
  std::vector<AggregateItem> aggs;
  aggs.push_back(AggregateItem{AggregateFunction::kCountStar, nullptr, "cnt"});
  auto agg = std::make_unique<AggregateOperator>(std::move(filter),
                                                 std::vector<rel::ExprPtr>{},
                                                 std::vector<rel::Column>{},
                                                 std::move(aggs));
  auto rows = DrainRows(agg.get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].tuple.ValueAt(0).AsInt64(), 0);
}

TEST_F(OperatorTest, DistinctMergesDuplicateSummaries) {
  ASSERT_TRUE(engine_->Annotate(Spec("R", 0, "eating stonewort")).ok());
  ASSERT_TRUE(engine_->Annotate(Spec("R", 1, "influenza detected")).ok());
  // Project b only: rows 0 and 1 both give (2) -> duplicates to eliminate.
  auto project = ProjectOperator::FromColumns(Scan("R", "r"), {"r.b"});
  ASSERT_TRUE(project.ok());
  auto distinct = std::make_unique<DistinctOperator>(std::move(*project));
  auto rows = DrainRows(distinct.get());
  ASSERT_EQ(rows.size(), 2u);  // b = 2 and b = 9.
  const AnnotatedTuple* b2 = nullptr;
  for (const auto& row : rows) {
    if (row.tuple.ValueAt(0).AsInt64() == 2) b2 = &row;
  }
  ASSERT_NE(b2, nullptr);
  auto* class1 = b2->FindSummary("ClassBird1");
  ASSERT_NE(class1, nullptr);
  // Whole-row annotations of both collapsed rows merged.
  EXPECT_EQ(class1->NumAnnotations(), 2u);
}

TEST_F(OperatorTest, SortOrdersRows) {
  auto scan = Scan("R", "r");
  const auto& schema = scan->OutputSchema();
  std::vector<SortKey> keys;
  keys.push_back(SortKey{Col(schema, "r.a"), /*ascending=*/false});
  auto sort = std::make_unique<SortOperator>(std::move(scan), std::move(keys));
  auto rows = DrainRows(sort.get());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].tuple.ValueAt(0).AsInt64(), 3);
  EXPECT_EQ(rows[2].tuple.ValueAt(0).AsInt64(), 1);
}

TEST_F(OperatorTest, LimitStopsEarly) {
  auto limit = std::make_unique<LimitOperator>(Scan("R", "r"), 2);
  auto rows = DrainRows(limit.get());
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(OperatorTest, OperatorsAreReopenable) {
  auto scan = Scan("R", "r");
  auto first = DrainRows(scan.get());
  auto second = DrainRows(scan.get());
  EXPECT_EQ(first.size(), second.size());
}

TEST_F(OperatorTest, TraceSinkSeesTupleFlow) {
  auto filter = std::make_unique<FilterOperator>(
      Scan("R", "r"),
      MakeCompare(CompareOp::kEq,
                  Col(engine_->catalog()->GetTable("R").value()->schema().WithQualifier("r"), "r.b"),
                  MakeLiteral(I(2))));
  std::vector<core::TraceEvent> trace;
  auto result = engine_->Execute(std::move(filter), &trace);
  ASSERT_TRUE(result.ok());
  // 3 scan emissions + 2 filter emissions.
  EXPECT_EQ(trace.size(), 5u);
  int scans = 0;
  int filters = 0;
  for (const auto& event : trace) {
    if (event.op.rfind("SeqScan", 0) == 0) ++scans;
    if (event.op.rfind("Filter", 0) == 0) ++filters;
  }
  EXPECT_EQ(scans, 3);
  EXPECT_EQ(filters, 2);
}

}  // namespace
}  // namespace insightnotes::exec
