// Engine facade tests: the public API surface a downstream user programs
// against (tables, annotations, instances, execution, zoom-in plumbing).

#include "core/engine.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/raw_baseline.h"
#include "exec/projection.h"
#include "testutil.h"

namespace insightnotes::core {
namespace {

using testutil::I;
using testutil::S;

class EngineTest : public testutil::EngineFixture {
 protected:
  void SetUp() override {
    testutil::EngineFixture::SetUp();
    ASSERT_TRUE(engine_
                    ->CreateTable("birds",
                                  rel::Schema({{"id", rel::ValueType::kInt64, "birds"},
                                               {"name", rel::ValueType::kString,
                                                "birds"}}))
                    .ok());
    ASSERT_TRUE(engine_->Insert("birds", rel::Tuple({I(1), S("Swan Goose")})).ok());
    auto instance = SummaryInstance::MakeClassifier("NB", {"x", "y"});
    ASSERT_TRUE(instance->classifier()->Train(0, "xray xylophone").ok());
    ASSERT_TRUE(instance->classifier()->Train(1, "yellow yonder").ok());
    ASSERT_TRUE(engine_->RegisterInstance(std::move(instance)).ok());
    ASSERT_TRUE(engine_->LinkInstance("NB", "birds").ok());
  }
};

TEST_F(EngineTest, AnnotateValidatesTarget) {
  EXPECT_TRUE(engine_->Annotate(Spec("ghosts", 0, "x")).status().IsNotFound());
  EXPECT_TRUE(engine_->Annotate(Spec("birds", 99, "x")).status().IsNotFound());
  EXPECT_TRUE(engine_->Annotate(Spec("birds", 0, "x", {17})).status().IsOutOfRange());
  EXPECT_TRUE(engine_->Annotate(Spec("birds", 0, "valid")).ok());
}

TEST_F(EngineTest, AttachValidatesTarget) {
  auto id = engine_->Annotate(Spec("birds", 0, "note"));
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(engine_->AttachAnnotation(*id, "ghosts", 0).IsNotFound());
  EXPECT_TRUE(engine_->AttachAnnotation(*id, "birds", 99).IsNotFound());
  EXPECT_TRUE(engine_->AttachAnnotation(99999, "birds", 0).IsNotFound());
  EXPECT_TRUE(engine_->AttachAnnotation(*id, "birds", 0, {17}).IsOutOfRange());
}

TEST_F(EngineTest, ArchiveRemovesEffectEverywhere) {
  ASSERT_TRUE(engine_->Insert("birds", rel::Tuple({I(2), S("Heron")})).ok());
  auto id = engine_->Annotate(Spec("birds", 0, "xray shared note"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine_->AttachAnnotation(*id, "birds", 1).ok());
  auto table = engine_->catalog()->GetTable("birds");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(engine_->summaries()->RowObjects((*table)->id(), 0)->at(0)->NumAnnotations(), 1u);
  ASSERT_TRUE(engine_->ArchiveAnnotation(*id).ok());
  auto pinned = engine_->PinSnapshot();
  ASSERT_TRUE(pinned.ok());
  for (rel::RowId row : {0, 1}) {
    EXPECT_EQ((*pinned)->SummariesFor((*table)->id(), row)[0]->NumAnnotations(), 0u) << row;
  }
  EXPECT_TRUE(engine_->ArchiveAnnotation(424242).IsNotFound());
}

TEST_F(EngineTest, ExecuteAssignsMonotonicQids) {
  auto scan1 = engine_->MakeScan("birds");
  ASSERT_TRUE(scan1.ok());
  auto r1 = engine_->Execute(std::move(*scan1));
  ASSERT_TRUE(r1.ok());
  auto scan2 = engine_->MakeScan("birds");
  ASSERT_TRUE(scan2.ok());
  auto r2 = engine_->Execute(std::move(*scan2));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->qid, r1->qid + 1);
  EXPECT_GE(r1->execute_seconds, 0.0);
}

TEST_F(EngineTest, SchemaOfReturnsStoredSchema) {
  auto scan = engine_->MakeScan("birds", "b");
  ASSERT_TRUE(scan.ok());
  auto result = engine_->Execute(std::move(*scan));
  ASSERT_TRUE(result.ok());
  auto schema = engine_->SchemaOf(result->qid);
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->ToString(), "(b.id BIGINT, b.name TEXT)");
  EXPECT_TRUE(engine_->SchemaOf(9999).status().IsNotFound());
}

TEST_F(EngineTest, MakeScanUnknownTable) {
  EXPECT_TRUE(engine_->MakeScan("ghosts").status().IsNotFound());
}

TEST_F(EngineTest, ResultsCachedForZoomIn) {
  ASSERT_TRUE(engine_->Annotate(Spec("birds", 0, "xray observation")).ok());
  auto scan = engine_->MakeScan("birds");
  ASSERT_TRUE(scan.ok());
  auto result = engine_->Execute(std::move(*scan));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(engine_->cache()->Contains(result->qid));
  ZoomInRequest request;
  request.qid = result->qid;
  request.instance_name = "NB";
  request.component_index = 0;
  auto zoom = engine_->ZoomIn(request);
  ASSERT_TRUE(zoom.ok());
  EXPECT_TRUE(zoom->served_from_cache);
  EXPECT_EQ(zoom->rows[0].annotations.size(), 1u);
}

TEST_F(EngineTest, FileBackedEngineWorks) {
  EngineOptions options;
  options.db_path = ::testing::TempDir() + "/insightnotes_engine_test.db";
  Engine engine(options);
  ASSERT_TRUE(engine.Init().ok());
  ASSERT_TRUE(engine
                  .CreateTable("t", rel::Schema({{"v", rel::ValueType::kString, "t"}}))
                  .ok());
  ASSERT_TRUE(engine.Insert("t", rel::Tuple({S("persisted to a real file")})).ok());
  auto scan = engine.MakeScan("t");
  ASSERT_TRUE(scan.ok());
  auto result = engine.Execute(std::move(*scan));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0].tuple.ValueAt(0).AsString(), "persisted to a real file");
  std::remove(options.db_path.c_str());
  // The WAL is segmented: remove the manifest and every segment file.
  std::remove((options.db_path + ".wal.manifest").c_str());
  for (uint64_t id = 1; id <= 4; ++id) {
    std::remove(
        storage::SegmentedWal::SegmentPathFor(options.db_path + ".wal", id).c_str());
  }
}

TEST_F(EngineTest, MaintainedSummariesUnaffectedByQueryMutation) {
  // COW safety: a query trims a clone; the maintained object must not see it.
  ASSERT_TRUE(engine_->Annotate(Spec("birds", 0, "xray note", {1})).ok());
  auto table = engine_->catalog()->GetTable("birds");
  ASSERT_TRUE(table.ok());
  std::string before =
      engine_->summaries()->RowObjects((*table)->id(), 0)->at(0)->Render();
  // Project only id: the annotation on column 1 gets trimmed in the clone.
  auto scan = engine_->MakeScan("birds", "b");
  ASSERT_TRUE(scan.ok());
  auto project = exec::ProjectOperator::FromColumns(std::move(*scan), {"b.id"});
  ASSERT_TRUE(project.ok());
  auto result = engine_->Execute(std::move(*project));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0].FindSummary("NB")->NumAnnotations(), 0u);
  std::string after =
      engine_->summaries()->RowObjects((*table)->id(), 0)->at(0)->Render();
  EXPECT_EQ(before, after);
}

/// Per result tuple, its attachments (id-sorted) as the raw-propagation
/// engine reports them.
std::map<std::string, std::vector<testutil::Att>> RawAttachments(
    const std::vector<RawTuple>& rows) {
  std::map<std::string, std::vector<testutil::Att>> out;
  for (const RawTuple& row : rows) {
    std::vector<testutil::Att> atts;
    for (size_t i = 0; i < row.annotations.size(); ++i) {
      atts.push_back(testutil::Att{row.annotations[i].id, row.coverage[i]});
    }
    std::sort(atts.begin(), atts.end(),
              [](const testutil::Att& a, const testutil::Att& b) { return a.id < b.id; });
    out[row.tuple.ToString()] = std::move(atts);
  }
  return out;
}

std::map<std::string, std::vector<testutil::Att>> PipelineAttachments(
    const std::vector<AnnotatedTuple>& rows) {
  std::map<std::string, std::vector<testutil::Att>> out;
  for (const AnnotatedTuple& row : rows) {
    out[row.tuple.ToString()] = testutil::Entries(row.attachments);
  }
  return out;
}

// A self-join of a 40-column table is 80 columns wide, so the right
// side's coverage lands past the first mask word. Row i joins row i + 1
// (c1 = i + 1 against c0), each side carrying cell notes on columns 35-39
// and a whole-row note; coverage must match the raw-propagation engine's,
// through the join and through a projection of the wide tuple.
TEST_F(EngineTest, JoinWiderThanSixtyFourColumnsMatchesRawPropagation) {
  constexpr size_t kColumns = 40;
  constexpr int64_t kRows = 6;
  std::vector<rel::Column> columns;
  for (size_t c = 0; c < kColumns; ++c) {
    columns.push_back({std::string("c").append(std::to_string(c)), rel::ValueType::kInt64,
                       "wide"});
  }
  ASSERT_TRUE(engine_->CreateTable("wide", rel::Schema(columns)).ok());
  for (int64_t i = 0; i < kRows; ++i) {
    std::vector<rel::Value> values;
    for (size_t c = 0; c < kColumns; ++c) values.push_back(I(i + static_cast<int64_t>(c)));
    ASSERT_TRUE(engine_->Insert("wide", rel::Tuple(std::move(values))).ok());
  }
  ASSERT_TRUE(engine_->LinkInstance("NB", "wide").ok());
  for (rel::RowId row = 0; row < kRows; ++row) {
    ASSERT_TRUE(engine_->Annotate(Spec("wide", row, "xray", {35})).ok());
    ASSERT_TRUE(engine_->Annotate(Spec("wide", row, "yellow", {36, 39})).ok());
    ASSERT_TRUE(engine_->Annotate(Spec("wide", row, "xylophone", {37, 38})).ok());
    if (row % 2 == 0) {
      ASSERT_TRUE(engine_->Annotate(Spec("wide", row, "yonder")).ok());
    }
  }

  auto join = [&] {
    return testutil::HashJoin(*engine_->MakeScan("wide", "l"), *engine_->MakeScan("wide", "r"),
                              rel::MakeColumn(1, "l.c1"), rel::MakeColumn(0, "r.c0"));
  };
  RawPropagationEngine raw(engine_->annotations());
  auto table = engine_->catalog()->GetTable("wide");
  ASSERT_TRUE(table.ok());
  auto scanned = raw.Scan(**table);
  ASSERT_TRUE(scanned.ok());
  auto raw_joined = raw.Join(*scanned, *scanned, *rel::MakeColumn(1, "c1"),
                             *rel::MakeColumn(0, "c0"));
  ASSERT_TRUE(raw_joined.ok());

  const auto joined = testutil::DrainRows(engine_.get(), join().get());
  ASSERT_EQ(joined.size(), static_cast<size_t>(kRows - 1));
  EXPECT_EQ(joined[0].attachments->words(), 2u);
  EXPECT_EQ(PipelineAttachments(joined), RawAttachments(*raw_joined));

  const std::vector<std::string> kept = {"l.c0", "l.c36", "r.c35", "l.c38", "r.c39", "r.c1"};
  auto project = exec::ProjectOperator::FromColumns(join(), kept);
  ASSERT_TRUE(project.ok());
  std::vector<size_t> kept_positions;
  for (const std::string& name : kept) {
    kept_positions.push_back(*(*project)->Children()[0]->OutputSchema().IndexOf(name));
  }
  const auto projected = testutil::DrainRows(engine_.get(), project->get());
  ASSERT_EQ(projected.size(), static_cast<size_t>(kRows - 1));
  EXPECT_EQ(PipelineAttachments(projected),
            RawAttachments(raw.Project(*raw_joined, kept_positions)));
}

}  // namespace
}  // namespace insightnotes::core
