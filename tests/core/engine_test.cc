// Engine facade tests: the public API surface a downstream user programs
// against (tables, annotations, instances, execution, zoom-in plumbing).

#include "core/engine.h"

#include <gtest/gtest.h>

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
    auto summaries = (*pinned)->SummariesFor((*table)->id(), row);
    ASSERT_TRUE(summaries.ok());
    EXPECT_EQ((*summaries)[0]->NumAnnotations(), 0u) << row;
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

}  // namespace
}  // namespace insightnotes::core
