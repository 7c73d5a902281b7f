#include "workload/workload.h"

#include <gtest/gtest.h>

#include "workload/annotation_gen.h"
#include "workload/bird_data.h"

namespace insightnotes::workload {
namespace {

TEST(BirdDataTest, CuratedSpeciesAreWellFormed) {
  const auto& curated = CuratedSpecies();
  ASSERT_GE(curated.size(), 20u);
  for (const auto& s : curated) {
    EXPECT_FALSE(s.common_name.empty());
    EXPECT_FALSE(s.scientific_name.empty());
    EXPECT_GT(s.weight_kg, 0.0);
    EXPECT_GT(s.population_estimate, 0);
  }
}

TEST(BirdDataTest, GenerateSpeciesIsDeterministic) {
  auto a = GenerateSpecies(100, 7);
  auto b = GenerateSpecies(100, 7);
  ASSERT_EQ(a.size(), 100u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].common_name, b[i].common_name);
    EXPECT_EQ(a[i].weight_kg, b[i].weight_kg);
  }
  // Synthetic names are unique.
  std::set<std::string> names;
  for (const auto& s : a) names.insert(s.common_name);
  EXPECT_EQ(names.size(), 100u);
}

TEST(AnnotationGenTest, CommentsMatchRequestedClass) {
  AnnotationGenerator gen(3);
  const auto& species = CuratedSpecies()[0];
  auto behavior = gen.GenerateComment(species, AnnotationClass::kBehavior);
  EXPECT_EQ(behavior.label, AnnotationClass::kBehavior);
  EXPECT_EQ(behavior.annotation.kind, ann::AnnotationKind::kComment);
  EXPECT_FALSE(behavior.annotation.body.empty());
  EXPECT_FALSE(behavior.annotation.author.empty());
}

TEST(AnnotationGenTest, TemplatesExpandPlaceholders) {
  AnnotationGenerator gen(5);
  const auto& species = CuratedSpecies()[0];  // Swan Goose.
  bool saw_expansion = false;
  for (int i = 0; i < 50; ++i) {
    auto g = gen.GenerateComment(species);
    EXPECT_EQ(g.annotation.body.find('%'), std::string::npos) << g.annotation.body;
    if (g.annotation.body.find("Swan Goose") != std::string::npos ||
        g.annotation.body.find("East Asia") != std::string::npos) {
      saw_expansion = true;
    }
  }
  EXPECT_TRUE(saw_expansion);
}

TEST(AnnotationGenTest, DocumentsAreLarge) {
  AnnotationGenerator gen(7);
  auto doc = gen.GenerateDocument(CuratedSpecies()[0], 30);
  EXPECT_EQ(doc.annotation.kind, ann::AnnotationKind::kDocument);
  EXPECT_GT(doc.annotation.body.size(), 1000u);
  EXPECT_FALSE(doc.annotation.title.empty());
}

TEST(AnnotationGenTest, TrainingDataCoversAllLabels) {
  auto t1 = AnnotationGenerator::ClassBird1Training();
  std::set<size_t> labels1;
  for (const auto& [label, text] : t1) labels1.insert(label);
  EXPECT_EQ(labels1, (std::set<size_t>{0, 1, 2, 3}));
  auto t2 = AnnotationGenerator::ClassBird2Training();
  std::set<size_t> labels2;
  for (const auto& [label, text] : t2) labels2.insert(label);
  EXPECT_EQ(labels2, (std::set<size_t>{0, 1, 2}));
}

class WorkloadBuilderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<core::Engine>();
    ASSERT_TRUE(engine_->Init().ok());
  }
  std::unique_ptr<core::Engine> engine_;
};

TEST_F(WorkloadBuilderTest, BuildsFullyAnnotatedDatabase) {
  WorkloadConfig config;
  config.num_species = 20;
  config.annotations_per_tuple = 10;
  WorkloadBuilder builder(config);
  auto stats = builder.Build(engine_.get());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->num_rows, 20u);
  EXPECT_EQ(stats->num_annotations, 200u);
  EXPECT_GE(stats->num_attachments, stats->num_annotations);
  auto table = engine_->catalog()->GetTable("birds");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->NumRows(), 20u);
  EXPECT_EQ(engine_->annotations()->NumAnnotations(), 200u);
  // All four instances linked.
  EXPECT_EQ(engine_->summaries()->LinkedTo((*table)->id()).size(), 4u);
}

TEST_F(WorkloadBuilderTest, SummariesMaintainedDuringBuild) {
  WorkloadConfig config;
  config.num_species = 10;
  config.annotations_per_tuple = 20;
  config.zipf_skew = 0.0;  // Spread evenly so every row gets some.
  WorkloadBuilder builder(config);
  auto stats = builder.Build(engine_.get());
  ASSERT_TRUE(stats.ok());
  auto table = engine_->catalog()->GetTable("birds");
  ASSERT_TRUE(table.ok());
  auto pinned = engine_->PinSnapshot();
  ASSERT_TRUE(pinned.ok());
  uint64_t total = 0;
  for (rel::RowId row = 0; row < 10; ++row) {
    const core::SummaryList& summaries = (*pinned)->SummariesFor((*table)->id(), row);
    ASSERT_EQ(summaries.size(), 4u);
    total += summaries[0]->NumAnnotations();
  }
  EXPECT_GE(total, stats->num_annotations);  // Shared attachments add more.
}

TEST_F(WorkloadBuilderTest, ClassifierBeatsChanceOnGroundTruth) {
  WorkloadConfig config;
  config.num_species = 10;
  config.annotations_per_tuple = 50;
  config.document_fraction = 0.0;
  WorkloadBuilder builder(config);
  auto stats = builder.Build(engine_.get());
  ASSERT_TRUE(stats.ok());
  auto instance = engine_->summaries()->GetInstance("ClassBird1");
  ASSERT_TRUE(instance.ok());
  // Check classification accuracy on the first four classes.
  size_t correct = 0;
  size_t considered = 0;
  for (ann::AnnotationId id = 0; id < stats->labels.size(); ++id) {
    auto label = stats->labels[id];
    if (static_cast<int>(label) > 3) continue;  // ClassBird2 territory.
    auto note = engine_->annotations()->Get(id);
    ASSERT_TRUE(note.ok());
    size_t predicted = (*instance)->classifier()->Classify(note->body);
    considered++;
    if (predicted == static_cast<size_t>(label)) ++correct;
  }
  ASSERT_GT(considered, 50u);
  // Far better than the 25% chance baseline.
  EXPECT_GT(static_cast<double>(correct) / considered, 0.7);
}

TEST_F(WorkloadBuilderTest, ZipfSkewConcentratesAnnotations) {
  WorkloadConfig config;
  config.num_species = 50;
  config.annotations_per_tuple = 20;
  config.zipf_skew = 1.2;
  config.shared_fraction = 0.0;
  WorkloadBuilder builder(config);
  auto stats = builder.Build(engine_.get());
  ASSERT_TRUE(stats.ok());
  auto table = engine_->catalog()->GetTable("birds");
  ASSERT_TRUE(table.ok());
  size_t first_row = engine_->annotations()->OnRow((*table)->id(), 0).size();
  size_t tail_row = engine_->annotations()->OnRow((*table)->id(), 40).size();
  EXPECT_GT(first_row, tail_row * 3);
}

TEST_F(WorkloadBuilderTest, StreamRequiresBase) {
  WorkloadBuilder builder(WorkloadConfig{});
  EXPECT_TRUE(builder.StreamAnnotations(engine_.get(), 5).status().IsInternal());
}

}  // namespace
}  // namespace insightnotes::workload
