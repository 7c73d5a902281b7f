// Raw-propagation baseline tests: the comparator engine must implement the
// same annotation semantics (region trimming, join dedup) so E2 compares
// like for like.

#include "core/raw_baseline.h"

#include <gtest/gtest.h>

#include "exec/filter.h"
#include "testutil.h"

namespace insightnotes::core {
namespace {

using testutil::I;
using testutil::S;

class RawBaselineTest : public testutil::EngineFixture {
 protected:
  void SetUp() override {
    testutil::EngineFixture::SetUp();
    CreateFigure2Tables();  // R(a,b,c,d), S(x,y,z); no instances needed.
    raw_ = std::make_unique<RawPropagationEngine>(engine_->annotations());
  }

  const rel::Table& Table(const std::string& name) {
    return *engine_->catalog()->GetTable(name).value();
  }

  std::unique_ptr<RawPropagationEngine> raw_;
};

TEST_F(RawBaselineTest, ScanAttachesFullBodies) {
  ASSERT_TRUE(engine_->Annotate(Spec("R", 0, "first note")).ok());
  ASSERT_TRUE(engine_->Annotate(Spec("R", 0, "second note", {2})).ok());
  auto scanned = raw_->Scan(Table("R"));
  ASSERT_TRUE(scanned.ok());
  ASSERT_EQ(scanned->size(), 3u);
  EXPECT_EQ((*scanned)[0].annotations.size(), 2u);
  EXPECT_EQ((*scanned)[0].annotations[0].body, "first note");
  EXPECT_TRUE((*scanned)[0].coverage[0].empty());
  EXPECT_EQ((*scanned)[0].coverage[1], (std::vector<size_t>{2}));
  EXPECT_TRUE((*scanned)[1].annotations.empty());
}

TEST_F(RawBaselineTest, ScanSkipsArchived) {
  auto id = engine_->Annotate(Spec("R", 0, "obsolete"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine_->annotations()->Archive(*id).ok());
  auto scanned = raw_->Scan(Table("R"));
  ASSERT_TRUE(scanned.ok());
  EXPECT_TRUE((*scanned)[0].annotations.empty());
}

TEST_F(RawBaselineTest, FilterPropagatesAnnotationsUntouched) {
  ASSERT_TRUE(engine_->Annotate(Spec("R", 0, "note")).ok());
  auto scanned = raw_->Scan(Table("R"));
  ASSERT_TRUE(scanned.ok());
  auto pred = rel::MakeCompare(rel::CompareOp::kEq, rel::MakeColumn(1, "b"),
                               rel::MakeLiteral(I(2)));
  auto filtered = raw_->Filter(std::move(*scanned), *pred);
  ASSERT_TRUE(filtered.ok());
  ASSERT_EQ(filtered->size(), 2u);  // Rows with b = 2.
  EXPECT_EQ((*filtered)[0].annotations.size(), 1u);
}

TEST_F(RawBaselineTest, ProjectTrimsByRegion) {
  ASSERT_TRUE(engine_->Annotate(Spec("R", 0, "on dropped c", {2})).ok());
  ASSERT_TRUE(engine_->Annotate(Spec("R", 0, "on kept a", {0})).ok());
  ASSERT_TRUE(engine_->Annotate(Spec("R", 0, "whole row")).ok());
  auto scanned = raw_->Scan(Table("R"));
  ASSERT_TRUE(scanned.ok());
  auto projected = raw_->Project(*scanned, {0, 1});
  ASSERT_EQ(projected[0].tuple.NumValues(), 2u);
  ASSERT_EQ(projected[0].annotations.size(), 2u);
  EXPECT_EQ(projected[0].annotations[0].body, "on kept a");
  EXPECT_EQ(projected[0].annotations[0].body, "on kept a");
  EXPECT_EQ(projected[0].coverage[0], (std::vector<size_t>{0}));
  EXPECT_EQ(projected[0].annotations[1].body, "whole row");
}

TEST_F(RawBaselineTest, JoinUnionsWithDedup) {
  auto shared = engine_->Annotate(Spec("R", 0, "shared provenance"));
  ASSERT_TRUE(shared.ok());
  ASSERT_TRUE(engine_->AttachAnnotation(*shared, "S", 0).ok());
  ASSERT_TRUE(engine_->Annotate(Spec("S", 0, "s-only note", {0})).ok());
  auto left = raw_->Scan(Table("R"));
  auto right = raw_->Scan(Table("S"));
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(right.ok());
  auto lkey = rel::MakeColumn(0, "a");
  auto rkey = rel::MakeColumn(0, "x");
  auto joined = raw_->Join(*left, *right, *lkey, *rkey);
  ASSERT_TRUE(joined.ok());
  // R.a {1,2,3} x S.x {1,3,4} -> 2 matches.
  ASSERT_EQ(joined->size(), 2u);
  const RawTuple& first = (*joined)[0];
  EXPECT_EQ(first.tuple.NumValues(), 7u);
  // shared counted once + s-only note.
  EXPECT_EQ(first.annotations.size(), 2u);
  // s-only coverage shifted by R's width (4).
  EXPECT_EQ(first.coverage[1], (std::vector<size_t>{4}));
}

/// Rows (k, tag) with annotations given as (id, covered columns).
std::vector<RawTuple> HandRows() {
  auto row = [](int64_t k, const std::string& tag,
                std::vector<std::pair<ann::AnnotationId, std::vector<size_t>>> notes) {
    RawTuple rt;
    rt.tuple = rel::Tuple({I(k), S(tag)});
    for (auto& [id, columns] : notes) {
      ann::Annotation note;
      note.id = id;
      note.body = "note " + std::to_string(id);
      rt.annotations.push_back(std::move(note));
      rt.coverage.push_back(std::move(columns));
    }
    return rt;
  };
  return {row(2, "x", {{1, {0}}}), row(9, "y", {{2, {}}}),
          row(2, "x", {{3, {1}}, {1, {1}}}), row(2, "x", {{4, {0}}}),
          row(9, "y", {{2, {0}}})};
}

std::vector<ann::AnnotationId> Ids(const RawTuple& rt) {
  std::vector<ann::AnnotationId> ids;
  for (const ann::Annotation& note : rt.annotations) ids.push_back(note.id);
  return ids;
}

TEST_F(RawBaselineTest, GroupUnionsAnnotationsInFirstSeenOrder) {
  std::vector<rel::ExprPtr> keys;
  keys.push_back(rel::MakeColumn(0, "k"));
  auto groups = raw_->Group(HandRows(), keys);
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  ASSERT_EQ(groups->size(), 2u);
  const RawGroup& two = (*groups)[0];
  EXPECT_EQ(two.row.tuple, rel::Tuple({I(2)}));
  EXPECT_EQ(two.members, (std::vector<size_t>{0, 2, 3}));
  // Annotation 1 sits on rows 0 and 2 and counts once; all cover the row.
  EXPECT_EQ(Ids(two.row), (std::vector<ann::AnnotationId>{1, 3, 4}));
  for (const auto& columns : two.row.coverage) EXPECT_TRUE(columns.empty());
  const RawGroup& nine = (*groups)[1];
  EXPECT_EQ(nine.row.tuple, rel::Tuple({I(9)}));
  EXPECT_EQ(nine.members, (std::vector<size_t>{1, 4}));
  EXPECT_EQ(Ids(nine.row), (std::vector<ann::AnnotationId>{2}));
}

TEST_F(RawBaselineTest, DistinctUnionsAnnotationsAndCoverage) {
  std::vector<RawTuple> distinct = raw_->Distinct(HandRows());
  ASSERT_EQ(distinct.size(), 2u);
  EXPECT_EQ(distinct[0].tuple, rel::Tuple({I(2), S("x")}));
  EXPECT_EQ(Ids(distinct[0]), (std::vector<ann::AnnotationId>{1, 3, 4}));
  // Annotation 1 covers column 0 on one duplicate and column 1 on another.
  EXPECT_EQ(distinct[0].coverage[0], (std::vector<size_t>{0, 1}));
  EXPECT_EQ(distinct[0].coverage[1], (std::vector<size_t>{1}));
  EXPECT_EQ(distinct[0].coverage[2], (std::vector<size_t>{0}));
  EXPECT_EQ(distinct[1].tuple, rel::Tuple({I(9), S("y")}));
  EXPECT_EQ(Ids(distinct[1]), (std::vector<ann::AnnotationId>{2}));
  // Whole-row coverage absorbs column 0.
  EXPECT_TRUE(distinct[1].coverage[0].empty());
}

TEST_F(RawBaselineTest, AgreesWithSummaryEngineOnRowCounts) {
  CreateFigure2Instances();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine_->Annotate(Spec("R", i % 3, "note " + std::to_string(i))).ok());
  }
  // Raw pipeline.
  auto scanned = raw_->Scan(Table("R"));
  ASSERT_TRUE(scanned.ok());
  auto pred = rel::MakeCompare(rel::CompareOp::kEq, rel::MakeColumn(1, "b"),
                               rel::MakeLiteral(I(2)));
  auto filtered = raw_->Filter(std::move(*scanned), *pred);
  ASSERT_TRUE(filtered.ok());
  // Summary pipeline.
  auto scan = engine_->MakeScan("R", "r");
  ASSERT_TRUE(scan.ok());
  auto filter = std::make_unique<exec::FilterOperator>(
      std::move(*scan), rel::MakeCompare(rel::CompareOp::kEq,
                                         rel::MakeColumn(1, "r.b"),
                                         rel::MakeLiteral(I(2))));
  auto result = engine_->Execute(std::move(filter));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(filtered->size(), result->rows.size());
  for (size_t i = 0; i < filtered->size(); ++i) {
    // Raw annotation count == summary's distinct annotation count.
    auto* class1 = result->rows[i].FindSummary("ClassBird1");
    ASSERT_NE(class1, nullptr);
    EXPECT_EQ((*filtered)[i].annotations.size(), class1->NumAnnotations());
  }
}

}  // namespace
}  // namespace insightnotes::core
