#include "core/summary_manager.h"

#include <gtest/gtest.h>

#include <memory>

#include "annotation/annotation_store.h"
#include "core/engine_snapshot.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "testutil.h"

namespace insightnotes::core {
namespace {

class SummaryManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(disk_.Open("").ok());
    pool_ = std::make_unique<storage::BufferPool>(&disk_, 128);
    store_ = std::make_unique<ann::AnnotationStore>(pool_.get());
    manager_ = std::make_unique<SummaryManager>(store_.get());

    auto classifier = SummaryInstance::MakeClassifier(
        "ClassBird1", {"Behavior", "Disease", "Anatomy", "Other"});
    auto* nb = classifier->classifier();
    ASSERT_TRUE(nb->Train(0, "eating stonewort foraging flying").ok());
    ASSERT_TRUE(nb->Train(1, "influenza infection sick parasite").ok());
    ASSERT_TRUE(nb->Train(2, "size weight wingspan beak").ok());
    ASSERT_TRUE(nb->Train(3, "article wikipedia photo").ok());
    ASSERT_TRUE(manager_->RegisterInstance(std::move(classifier)).ok());
    ASSERT_TRUE(
        manager_->RegisterInstance(SummaryInstance::MakeCluster("SimCluster", 0.3)).ok());
  }

  /// Folds annotation `id`, just added to or attached at `region`, into the
  /// maintained summaries as a batch of one, as the engine does.
  Status Fold(ann::AnnotationId id, const ann::CellRegion& region) {
    auto note = store_->Get(id);
    if (!note.ok()) return note.status();
    std::vector<BatchAnnotation> batch{{std::move(*note), region}};
    return manager_->ApplyAnnotationBatch(batch);
  }

  /// Adds an annotation and routes it through maintenance, as the engine
  /// does.
  ann::AnnotationId Annotate(rel::TableId table, rel::RowId row, const std::string& body,
                             std::vector<size_t> columns = {}) {
    ann::Annotation note;
    note.body = body;
    note.author = "tester";
    auto id = store_->Add(std::move(note), ann::CellRegion{table, row, columns});
    EXPECT_TRUE(id.ok());
    EXPECT_TRUE(Fold(*id, ann::CellRegion{table, row, columns}).ok());
    return *id;
  }

  /// The current store/manager state as a published epoch — what a scan
  /// reads row summaries from.
  std::shared_ptr<const EngineSnapshot> Pinned() const {
    return EngineSnapshot::BuildFull({store_.get(), manager_.get()}, /*bounds=*/{},
                                     /*epoch=*/1, /*retire_counter=*/nullptr);
  }

  storage::DiskManager disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<ann::AnnotationStore> store_;
  std::unique_ptr<SummaryManager> manager_;
};

TEST_F(SummaryManagerTest, RegisterAndLookup) {
  EXPECT_TRUE(manager_->GetInstance("ClassBird1").ok());
  EXPECT_TRUE(manager_->GetInstance("nope").status().IsNotFound());
  EXPECT_EQ(manager_->InstanceNames(),
            (std::vector<std::string>{"ClassBird1", "SimCluster"}));
  EXPECT_TRUE(manager_
                  ->RegisterInstance(SummaryInstance::MakeCluster("SimCluster"))
                  .IsAlreadyExists());
}

TEST_F(SummaryManagerTest, LinkUnlink) {
  ASSERT_TRUE(manager_->Link("ClassBird1", 0).ok());
  EXPECT_TRUE(manager_->IsLinked("ClassBird1", 0));
  EXPECT_FALSE(manager_->IsLinked("SimCluster", 0));
  EXPECT_TRUE(manager_->Link("ClassBird1", 0).IsAlreadyExists());
  EXPECT_EQ(manager_->LinkedTo(0).size(), 1u);
  ASSERT_TRUE(manager_->Unlink("ClassBird1", 0).ok());
  EXPECT_FALSE(manager_->IsLinked("ClassBird1", 0));
  EXPECT_TRUE(manager_->Unlink("ClassBird1", 0).IsNotFound());
  EXPECT_TRUE(manager_->Link("ghost", 0).IsNotFound());
}

TEST_F(SummaryManagerTest, ManyToManyLinks) {
  ASSERT_TRUE(manager_->Link("ClassBird1", 0).ok());
  ASSERT_TRUE(manager_->Link("ClassBird1", 1).ok());
  ASSERT_TRUE(manager_->Link("SimCluster", 0).ok());
  EXPECT_EQ(manager_->LinkedTo(0).size(), 2u);
  EXPECT_EQ(manager_->LinkedTo(1).size(), 1u);
}

TEST_F(SummaryManagerTest, IncrementalMaintenanceOnInsert) {
  ASSERT_TRUE(manager_->Link("ClassBird1", 0).ok());
  Annotate(0, 5, "found eating stonewort");
  Annotate(0, 5, "influenza infection observed");
  const auto* objects = manager_->RowObjects(0, 5);
  ASSERT_NE(objects, nullptr);
  ASSERT_EQ(objects->size(), 1u);
  EXPECT_EQ((*objects)[0]->NumAnnotations(), 2u);
  EXPECT_EQ((*objects)[0]->Render(),
            "[(Behavior, 1), (Disease, 1), (Anatomy, 0), (Other, 0)]");
}

TEST_F(SummaryManagerTest, LinkSummarizesExistingAnnotations) {
  // Annotations arrive before any instance is linked.
  Annotate(0, 1, "eating stonewort");
  Annotate(0, 1, "wingspan measured");
  Annotate(0, 2, "influenza detected");
  EXPECT_EQ(manager_->RowObjects(0, 1), nullptr);
  ASSERT_TRUE(manager_->Link("ClassBird1", 0).ok());
  const auto* row1 = manager_->RowObjects(0, 1);
  ASSERT_NE(row1, nullptr);
  EXPECT_EQ((*row1)[0]->NumAnnotations(), 2u);
  const auto* row2 = manager_->RowObjects(0, 2);
  ASSERT_NE(row2, nullptr);
  EXPECT_EQ((*row2)[0]->NumAnnotations(), 1u);
}

TEST_F(SummaryManagerTest, MultipleInstancesMaintainedTogether) {
  ASSERT_TRUE(manager_->Link("ClassBird1", 0).ok());
  ASSERT_TRUE(manager_->Link("SimCluster", 0).ok());
  Annotate(0, 3, "goose eating stonewort");
  Annotate(0, 3, "goose eating stonewort again");
  const auto* objects = manager_->RowObjects(0, 3);
  ASSERT_NE(objects, nullptr);
  EXPECT_EQ(objects->size(), 2u);
  for (const auto& object : *objects) {
    EXPECT_EQ(object->NumAnnotations(), 2u);
  }
}

TEST_F(SummaryManagerTest, UnlinkDropsObjects) {
  ASSERT_TRUE(manager_->Link("ClassBird1", 0).ok());
  ASSERT_TRUE(manager_->Link("SimCluster", 0).ok());
  Annotate(0, 3, "goose eating stonewort");
  ASSERT_TRUE(manager_->Unlink("SimCluster", 0).ok());
  const auto* objects = manager_->RowObjects(0, 3);
  ASSERT_NE(objects, nullptr);
  ASSERT_EQ(objects->size(), 1u);
  EXPECT_EQ((*objects)[0]->instance_name(), "ClassBird1");
}

TEST_F(SummaryManagerTest, SummariesForClonesMaintainedState) {
  ASSERT_TRUE(manager_->Link("ClassBird1", 0).ok());
  Annotate(0, 4, "eating stonewort");
  const auto pinned = Pinned();
  const SummaryList& clones = pinned->SummariesFor(0, 4);
  ASSERT_EQ(clones.size(), 1u);
  // A later fold into the maintained object leaves the epoch's clone as
  // published, and every read of the row shares that clone.
  Annotate(0, 4, "influenza signs");
  EXPECT_EQ((*manager_->RowObjects(0, 4))[0]->NumAnnotations(), 2u);
  EXPECT_EQ(clones[0]->NumAnnotations(), 1u);
  EXPECT_EQ(pinned->SummariesFor(0, 4)[0], clones[0]);
}

TEST_F(SummaryManagerTest, SummariesForUnannotatedRowGivesEmptyObjects) {
  ASSERT_TRUE(manager_->Link("ClassBird1", 0).ok());
  const auto pinned = Pinned();
  const SummaryList& clones = pinned->SummariesFor(0, 77);
  ASSERT_EQ(clones.size(), 1u);
  EXPECT_EQ(clones[0]->NumAnnotations(), 0u);
  // Every unsummarized row of the table shares the epoch's empty objects.
  EXPECT_EQ(pinned->SummariesFor(0, 78)[0], clones[0]);
}

TEST_F(SummaryManagerTest, ArchivedAnnotationsSkipped) {
  ASSERT_TRUE(manager_->Link("ClassBird1", 0).ok());
  auto id = Annotate(0, 6, "eating stonewort");
  ASSERT_TRUE(store_->Archive(id).ok());
  // Future maintenance skips it; a rebuild removes its effect, leaving the
  // row indistinguishable from a never-annotated one.
  ASSERT_TRUE(manager_->RebuildRow(0, 6).ok());
  const auto pinned = Pinned();
  const SummaryList& summaries = pinned->SummariesFor(0, 6);
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_EQ(summaries[0]->NumAnnotations(), 0u);
}

TEST_F(SummaryManagerTest, RebuildMatchesIncremental) {
  ASSERT_TRUE(manager_->Link("ClassBird1", 0).ok());
  Annotate(0, 8, "eating stonewort");
  Annotate(0, 8, "influenza signs");
  Annotate(0, 8, "wingspan large");
  std::string incremental = (*manager_->RowObjects(0, 8))[0]->Render();
  ASSERT_TRUE(manager_->RebuildTable(0).ok());
  std::string rebuilt = (*manager_->RowObjects(0, 8))[0]->Render();
  EXPECT_EQ(incremental, rebuilt);
}

TEST_F(SummaryManagerTest, SharedAnnotationCacheHits) {
  ASSERT_TRUE(manager_->Link("ClassBird1", 0).ok());
  auto instance = manager_->GetInstance("ClassBird1");
  ASSERT_TRUE(instance.ok());
  (*instance)->ResetCacheCounters();
  // One annotation attached to 10 rows: classified once, 9 cache hits
  // (AnnotationInvariant + DataInvariant optimization).
  ann::Annotation note;
  note.body = "produced by experiment E";
  auto id = store_->Add(std::move(note), ann::CellRegion{0, 0, {}});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(Fold(*id, ann::CellRegion{0, 0, {}}).ok());
  for (rel::RowId row = 1; row < 10; ++row) {
    ASSERT_TRUE(store_->Attach(*id, ann::CellRegion{0, row, {}}).ok());
    ASSERT_TRUE(Fold(*id, ann::CellRegion{0, row, {}}).ok());
  }
  EXPECT_EQ((*instance)->cache_misses(), 1u);
  EXPECT_EQ((*instance)->cache_hits(), 9u);
}

TEST_F(SummaryManagerTest, NonInvariantInstanceSkipsCache) {
  SummaryProperties props;
  props.annotation_invariant = false;
  props.data_invariant = false;
  ASSERT_TRUE(manager_
                  ->RegisterInstance(SummaryInstance::MakeClassifier(
                      "NoCache", {"x", "y"}, props))
                  .ok());
  ASSERT_TRUE(manager_->Link("NoCache", 2).ok());
  auto instance = manager_->GetInstance("NoCache");
  ASSERT_TRUE(instance.ok());
  ann::Annotation note;
  note.body = "shared note";
  auto id = store_->Add(std::move(note), ann::CellRegion{2, 0, {}});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(Fold(*id, ann::CellRegion{2, 0, {}}).ok());
  for (rel::RowId row = 1; row < 5; ++row) {
    ASSERT_TRUE(store_->Attach(*id, ann::CellRegion{2, row, {}}).ok());
    ASSERT_TRUE(Fold(*id, ann::CellRegion{2, row, {}}).ok());
  }
  EXPECT_EQ((*instance)->cache_hits(), 0u);
  EXPECT_EQ((*instance)->cache_misses(), 5u);
}

// Attachment lists of a group do not depend on the order its duplicates
// fold in: every fold is one id-ordered union, so two fold orders (and a
// Combine of partial states) give identical lists.
TEST(PartialSummaryStateTest, FoldOrderDoesNotChangeAttachments) {
  const std::vector<std::vector<testutil::Att>> inputs = {
      {{2, {0}}, {4, {1}}, {9, {}}},
      {{4, {0, 2}}, {7, {1}}},
      {{1, {2}}, {4, {1}}, {9, {0}}},
  };
  auto tuple = [&](size_t i) {
    AnnotatedTuple t;
    t.attachments = testutil::MakeList(inputs[i]);
    return t;
  };
  auto fold = [&](std::vector<size_t> order) {
    PartialSummaryState state;
    AnnotatedTuple first = tuple(order[0]);
    state.Seed(&first);
    for (size_t k = 1; k < order.size(); ++k) {
      EXPECT_TRUE(state.Fold(tuple(order[k])).ok());
    }
    AnnotatedTuple out;
    state.Release(&out);
    return testutil::Entries(out.attachments);
  };

  const std::vector<testutil::Att> expected = {
      {1, {2}}, {2, {0}}, {4, {0, 1, 2}}, {7, {1}}, {9, {}}};
  EXPECT_EQ(fold({0, 1, 2}), expected);
  EXPECT_EQ(fold({2, 1, 0}), expected);
  EXPECT_EQ(fold({1, 2, 0}), expected);

  // The parallel shape: a later morsel's state combined into an earlier one.
  PartialSummaryState early;
  AnnotatedTuple first = tuple(2);
  early.Seed(&first);
  PartialSummaryState late;
  AnnotatedTuple second = tuple(1);
  late.Seed(&second);
  ASSERT_TRUE(late.Fold(tuple(0)).ok());
  ASSERT_TRUE(early.Combine(std::move(late)).ok());
  AnnotatedTuple out;
  early.Release(&out);
  EXPECT_EQ(testutil::Entries(out.attachments), expected);
}

}  // namespace
}  // namespace insightnotes::core
