#include "core/summary_object.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/summary_instance.h"
#include "workload/annotation_gen.h"

namespace insightnotes::core {
namespace {

ann::Annotation Note(ann::AnnotationId id, const std::string& body,
                     ann::AnnotationKind kind = ann::AnnotationKind::kComment) {
  ann::Annotation a;
  a.id = id;
  a.kind = kind;
  a.author = "tester";
  a.body = body;
  return a;
}

std::vector<ann::AnnotationId> Ids(std::initializer_list<ann::AnnotationId> ids) {
  return std::vector<ann::AnnotationId>(ids);
}

class ClassifierObjectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    instance_ = SummaryInstance::MakeClassifier(
        "ClassBird1", {"Behavior", "Disease", "Anatomy", "Other"});
    auto* nb = instance_->classifier();
    ASSERT_TRUE(nb->Train(0, "eating stonewort foraging flying migration").ok());
    ASSERT_TRUE(nb->Train(1, "influenza infection sick parasite disease").ok());
    ASSERT_TRUE(nb->Train(2, "size weight wingspan beak feathers large").ok());
    ASSERT_TRUE(nb->Train(3, "article wikipedia photo link reference").ok());
    object_ = instance_->NewObject();
  }

  std::unique_ptr<SummaryInstance> instance_;
  std::unique_ptr<SummaryObject> object_;
};

TEST_F(ClassifierObjectTest, EmptyObjectRenders) {
  EXPECT_EQ(object_->NumAnnotations(), 0u);
  EXPECT_EQ(object_->NumComponents(), 4u);
  EXPECT_EQ(object_->Render(),
            "[(Behavior, 0), (Disease, 0), (Anatomy, 0), (Other, 0)]");
}

TEST_F(ClassifierObjectTest, AddClassifiesIntoLabels) {
  ASSERT_TRUE(object_->AddAnnotation(Note(1, "found eating stonewort")).ok());
  ASSERT_TRUE(object_->AddAnnotation(Note(2, "signs of influenza infection")).ok());
  ASSERT_TRUE(object_->AddAnnotation(Note(3, "large size and wingspan")).ok());
  auto* classifier = static_cast<ClassifierObject*>(object_.get());
  EXPECT_EQ(classifier->LabelCount(0), 1u);
  EXPECT_EQ(classifier->LabelCount(1), 1u);
  EXPECT_EQ(classifier->LabelCount(2), 1u);
  EXPECT_EQ(object_->NumAnnotations(), 3u);
  EXPECT_TRUE(object_->Contains(2));
  EXPECT_FALSE(object_->Contains(9));
}

TEST_F(ClassifierObjectTest, DuplicateAddRejected) {
  ASSERT_TRUE(object_->AddAnnotation(Note(1, "eating stonewort")).ok());
  EXPECT_TRUE(object_->AddAnnotation(Note(1, "eating stonewort")).IsAlreadyExists());
}

TEST_F(ClassifierObjectTest, RestrictDecrementsLabel) {
  ASSERT_TRUE(object_->AddAnnotation(Note(1, "eating stonewort")).ok());
  ASSERT_TRUE(object_->AddAnnotation(Note(2, "eating plants daily")).ok());
  ASSERT_TRUE(object_->Restrict(Ids({1})).ok());
  auto* classifier = static_cast<ClassifierObject*>(object_.get());
  EXPECT_EQ(classifier->LabelCount(0), 1u);
  EXPECT_FALSE(object_->Contains(1));
  // An id that no longer contributes is ignored.
  ASSERT_TRUE(object_->Restrict(Ids({1})).ok());
  EXPECT_EQ(classifier->LabelCount(0), 1u);
}

TEST_F(ClassifierObjectTest, MergeDoesNotDoubleCountShared) {
  // Figure 2: five common annotations must not be counted twice
  // (sum = 22 instead of 27).
  auto left = instance_->NewObject();
  auto right = instance_->NewObject();
  for (int i = 1; i <= 10; ++i) {
    ASSERT_TRUE(left->AddAnnotation(Note(i, "eating stonewort daily")).ok());
  }
  for (int i = 6; i <= 22; ++i) {  // ids 6..10 shared with left.
    ASSERT_TRUE(right->AddAnnotation(Note(i, "eating stonewort daily")).ok());
  }
  ASSERT_TRUE(left->MergeWith(*right).ok());
  EXPECT_EQ(left->NumAnnotations(), 22u);
}

TEST_F(ClassifierObjectTest, MergeAcrossInstancesRejected) {
  auto other_instance = SummaryInstance::MakeClassifier("ClassBird2", {"a", "b"});
  auto other = other_instance->NewObject();
  EXPECT_TRUE(object_->MergeWith(*other).IsInvalidArgument());
}

TEST_F(ClassifierObjectTest, ZoomInReturnsExactIds) {
  ASSERT_TRUE(object_->AddAnnotation(Note(5, "eating stonewort")).ok());
  ASSERT_TRUE(object_->AddAnnotation(Note(3, "foraging and eating")).ok());
  ASSERT_TRUE(object_->AddAnnotation(Note(8, "influenza detected")).ok());
  auto behavior = object_->ZoomIn(0);
  ASSERT_TRUE(behavior.ok());
  EXPECT_EQ(*behavior, (std::vector<ann::AnnotationId>{3, 5}));
  auto disease = object_->ZoomIn(1);
  ASSERT_TRUE(disease.ok());
  EXPECT_EQ(*disease, (std::vector<ann::AnnotationId>{8}));
  EXPECT_TRUE(object_->ZoomIn(4).status().IsOutOfRange());
  std::string label;
  object_->AppendComponent(0, &label);
  EXPECT_EQ(label, "Behavior");
}

TEST_F(ClassifierObjectTest, CloneIsIndependent) {
  ASSERT_TRUE(object_->AddAnnotation(Note(1, "eating stonewort")).ok());
  auto clone = object_->Clone();
  ASSERT_TRUE(clone->Restrict(Ids({1})).ok());
  EXPECT_TRUE(object_->Contains(1));
  EXPECT_FALSE(clone->Contains(1));
}

class ClusterObjectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    instance_ = SummaryInstance::MakeCluster("SimCluster", 0.3);
    object_ = instance_->NewObject();
  }
  std::unique_ptr<SummaryInstance> instance_;
  std::unique_ptr<SummaryObject> object_;
};

TEST_F(ClusterObjectTest, SimilarAnnotationsGroup) {
  ASSERT_TRUE(object_->AddAnnotation(Note(1, "goose eating stonewort in the lake")).ok());
  ASSERT_TRUE(object_->AddAnnotation(Note(2, "goose eating stonewort daily")).ok());
  ASSERT_TRUE(object_->AddAnnotation(Note(3, "wingspan and weight measured")).ok());
  EXPECT_EQ(object_->NumComponents(), 2u);
  EXPECT_EQ(object_->NumAnnotations(), 3u);
}

TEST_F(ClusterObjectTest, RestrictReelectsRepresentative) {
  ASSERT_TRUE(object_->AddAnnotation(Note(1, "goose eating stonewort lake plants")).ok());
  ASSERT_TRUE(object_->AddAnnotation(Note(2, "goose eating stonewort")).ok());
  ASSERT_TRUE(object_->AddAnnotation(Note(3, "eating stonewort lake")).ok());
  ASSERT_EQ(object_->NumComponents(), 1u);
  auto* cluster = static_cast<ClusterObject*>(object_.get());
  mining::DocId rep = cluster->clusters().groups()[0].representative;
  ASSERT_TRUE(object_->Restrict(Ids({rep})).ok());
  EXPECT_EQ(object_->NumComponents(), 1u);
  EXPECT_NE(cluster->clusters().groups()[0].representative, rep);
}

TEST_F(ClusterObjectTest, ZoomInReturnsGroupMembers) {
  ASSERT_TRUE(object_->AddAnnotation(Note(7, "goose eating stonewort")).ok());
  ASSERT_TRUE(object_->AddAnnotation(Note(9, "goose eating stonewort too")).ok());
  ASSERT_EQ(object_->NumComponents(), 1u);
  auto members = object_->ZoomIn(0);
  ASSERT_TRUE(members.ok());
  EXPECT_EQ(*members, (std::vector<ann::AnnotationId>{7, 9}));
}

TEST_F(ClusterObjectTest, MergeSharedAnnotationOnce) {
  auto left = instance_->NewObject();
  auto right = instance_->NewObject();
  ASSERT_TRUE(left->AddAnnotation(Note(1, "goose eating stonewort")).ok());
  ASSERT_TRUE(right->AddAnnotation(Note(1, "goose eating stonewort")).ok());
  ASSERT_TRUE(right->AddAnnotation(Note(2, "disease influenza outbreak")).ok());
  ASSERT_TRUE(left->MergeWith(*right).ok());
  EXPECT_EQ(left->NumAnnotations(), 2u);
}

TEST_F(ClusterObjectTest, RenderShowsRepresentativeAndSize) {
  ASSERT_TRUE(object_->AddAnnotation(Note(4, "goose eating stonewort")).ok());
  std::string rendered = object_->Render();
  EXPECT_NE(rendered.find("A4"), std::string::npos);
  EXPECT_NE(rendered.find("x1"), std::string::npos);
}

class SnippetObjectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mining::SnippetOptions opts;
    opts.max_sentences = 1;
    opts.max_chars = 100;
    instance_ = SummaryInstance::MakeSnippet("TextSummary1", opts);
    object_ = instance_->NewObject();
  }
  std::unique_ptr<SummaryInstance> instance_;
  std::unique_ptr<SummaryObject> object_;
};

TEST_F(SnippetObjectTest, OnlyDocumentsContribute) {
  ASSERT_TRUE(object_->AddAnnotation(Note(1, "a short comment")).ok());
  EXPECT_EQ(object_->NumAnnotations(), 0u);
  ann::Annotation doc = Note(2, "The swan goose breeds in Mongolia. It winters in China.",
                             ann::AnnotationKind::kDocument);
  doc.title = "Wikipedia article";
  ASSERT_TRUE(object_->AddAnnotation(doc).ok());
  EXPECT_EQ(object_->NumAnnotations(), 1u);
  EXPECT_EQ(object_->NumComponents(), 1u);
  std::string label;
  object_->AppendComponent(0, &label);
  EXPECT_EQ(label, "Wikipedia article");
}

TEST_F(SnippetObjectTest, SnippetIsShortAndExtractive) {
  std::string article =
      "The swan goose is a large goose. It breeds in Mongolia and winters in "
      "eastern China where large flocks gather.";
  ASSERT_TRUE(object_
                  ->AddAnnotation(Note(1, article, ann::AnnotationKind::kDocument))
                  .ok());
  std::string rendered = object_->Render();
  EXPECT_LE(rendered.size(), 110u);
  EXPECT_NE(rendered.find("goose"), std::string::npos);
}

TEST_F(SnippetObjectTest, RestrictDeletesSnippet) {
  ASSERT_TRUE(object_->AddAnnotation(Note(1, "Doc one.", ann::AnnotationKind::kDocument)).ok());
  ASSERT_TRUE(object_->AddAnnotation(Note(2, "Doc two.", ann::AnnotationKind::kDocument)).ok());
  // Removing the Wikipedia article during projection (Figure 2 step 1).
  ASSERT_TRUE(object_->Restrict(Ids({2})).ok());
  EXPECT_EQ(object_->NumComponents(), 1u);
  // Dropping a non-contributing id is a tolerated no-op.
  EXPECT_TRUE(object_->Restrict(Ids({99})).ok());
  EXPECT_EQ(object_->NumComponents(), 1u);
}

TEST_F(SnippetObjectTest, MergeUnionsDocuments) {
  auto left = instance_->NewObject();
  auto right = instance_->NewObject();
  ASSERT_TRUE(left->AddAnnotation(Note(1, "Doc A.", ann::AnnotationKind::kDocument)).ok());
  ASSERT_TRUE(right->AddAnnotation(Note(1, "Doc A.", ann::AnnotationKind::kDocument)).ok());
  ASSERT_TRUE(right->AddAnnotation(Note(2, "Doc B.", ann::AnnotationKind::kDocument)).ok());
  ASSERT_TRUE(left->MergeWith(*right).ok());
  EXPECT_EQ(left->NumAnnotations(), 2u);
  auto ids = left->ZoomIn(1);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(*ids, (std::vector<ann::AnnotationId>{2}));
}

TEST(SummaryObjectAlgebraTest, AddThenRestrictIsIdentityAcrossTypes) {
  auto classifier_instance = SummaryInstance::MakeClassifier("c", {"x", "y"});
  auto cluster_instance = SummaryInstance::MakeCluster("g", 0.3);
  mining::SnippetOptions opts;
  auto snippet_instance = SummaryInstance::MakeSnippet("s", opts);
  std::vector<std::unique_ptr<SummaryObject>> objects;
  objects.push_back(classifier_instance->NewObject());
  objects.push_back(cluster_instance->NewObject());
  objects.push_back(snippet_instance->NewObject());
  for (auto& object : objects) {
    ann::Annotation base = Note(1, "base annotation body text",
                                ann::AnnotationKind::kDocument);
    ASSERT_TRUE(object->AddAnnotation(base).ok());
    std::string before = object->Render();
    ann::Annotation extra = Note(2, "another extra annotation here",
                                 ann::AnnotationKind::kDocument);
    ASSERT_TRUE(object->AddAnnotation(extra).ok());
    ASSERT_TRUE(object->Restrict(Ids({2})).ok());
    EXPECT_EQ(object->Render(), before) << object->instance_name();
  }
}

// --- Restrict across the three types ----------------------------------------

/// One instance of each type over the same generated annotation population
/// (every fourth annotation a document, so snippet objects see some).
class RestrictTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    switch (GetParam()) {
      case 0:
        instance_ = SummaryInstance::MakeClassifier(
            "c", {"Behavior", "Disease", "Anatomy", "Other"});
        for (const auto& [label, text] :
             workload::AnnotationGenerator::ClassBird1Training()) {
          ASSERT_TRUE(instance_->classifier()->Train(label, text).ok());
        }
        break;
      case 1:
        instance_ = SummaryInstance::MakeCluster("g", 0.3);
        break;
      default:
        instance_ = SummaryInstance::MakeSnippet("s");
        break;
    }
    workload::AnnotationGenerator gen(17);
    for (ann::AnnotationId id = 0; id < kPopulation; ++id) {
      const auto& species = workload::CuratedSpecies()[id % 6];
      workload::GeneratedAnnotation g =
          id % 4 == 0 ? gen.GenerateDocument(species, 3) : gen.GenerateComment(species);
      g.annotation.id = id;
      notes_.push_back(g.annotation);
    }
  }

  std::unique_ptr<SummaryObject> Build() {
    auto object = instance_->NewObject();
    for (const ann::Annotation& note : notes_) {
      EXPECT_TRUE(object->AddAnnotation(note).ok());
    }
    return object;
  }

  /// Every component's zoom-in, plus the rendering (cluster
  /// representatives included).
  static std::string Membership(const SummaryObject& object) {
    std::string out = object.Render();
    for (size_t c = 0; c < object.NumComponents(); ++c) {
      out += " |";
      std::vector<ann::AnnotationId> ids = *object.ZoomIn(c);
      for (ann::AnnotationId id : ids) out.append(" ").append(std::to_string(id));
    }
    return out;
  }

  static constexpr ann::AnnotationId kPopulation = 80;
  std::unique_ptr<SummaryInstance> instance_;
  std::vector<ann::Annotation> notes_;
};

TEST_P(RestrictTest, SetMatchesOneIdAtATime) {
  Random rng(GetParam() + 5);
  for (int round = 0; round < 20; ++round) {
    std::vector<ann::AnnotationId> dropped;
    // Ids past the population never contributed: they must be ignored.
    for (ann::AnnotationId id = 0; id < kPopulation + 10; ++id) {
      if (rng.Bernoulli(0.4)) dropped.push_back(id);
    }
    auto at_once = Build();
    ASSERT_TRUE(at_once->Restrict(dropped).ok());
    auto one_by_one = Build();
    for (ann::AnnotationId id : dropped) {
      ASSERT_TRUE(one_by_one->Restrict(std::span<const ann::AnnotationId>(&id, 1)).ok());
    }
    EXPECT_EQ(Membership(*at_once), Membership(*one_by_one)) << "round " << round;
    for (ann::AnnotationId id : dropped) EXPECT_FALSE(at_once->Contains(id)) << id;
  }
}

TEST_P(RestrictTest, AbsentIdsAreIgnored) {
  auto object = Build();
  std::string before = Membership(*object);
  auto clone = object->Clone();
  std::vector<ann::AnnotationId> absent = {kPopulation, kPopulation + 7, 1000000};
  ASSERT_TRUE(clone->Restrict(absent).ok());
  ASSERT_TRUE(clone->Restrict({}).ok());
  EXPECT_EQ(Membership(*clone), before);
  EXPECT_EQ(Membership(*object), before);
}

TEST_P(RestrictTest, RestrictingEverythingEmptiesObject) {
  auto object = Build();
  std::vector<ann::AnnotationId> all;
  for (ann::AnnotationId id = 0; id < kPopulation; ++id) all.push_back(id);
  auto clone = object->Clone();
  ASSERT_TRUE(clone->Restrict(all).ok());
  EXPECT_EQ(clone->NumAnnotations(), 0u);
  // Classifier objects keep their (empty) label components; cluster groups
  // and snippets vanish.
  EXPECT_EQ(clone->NumComponents(), GetParam() == 0 ? 4u : 0u);
  for (size_t c = 0; c < clone->NumComponents(); ++c) {
    EXPECT_TRUE(clone->ZoomIn(c)->empty());
  }
  // The source of the copy-on-write clone is untouched.
  EXPECT_GT(object->NumAnnotations(), 0u);
}

std::string TypeName(const ::testing::TestParamInfo<int>& info) {
  static const char* const kNames[] = {"classifier", "cluster", "snippet"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllTypes, RestrictTest, ::testing::Values(0, 1, 2), TypeName);

TEST_F(ClusterObjectTest, RestrictDropsEmptiedGroups) {
  ASSERT_TRUE(object_->AddAnnotation(Note(1, "goose eating stonewort lake")).ok());
  ASSERT_TRUE(object_->AddAnnotation(Note(2, "goose eating stonewort")).ok());
  ASSERT_TRUE(object_->AddAnnotation(Note(3, "wingspan and weight measured")).ok());
  ASSERT_EQ(object_->NumComponents(), 2u);
  ASSERT_TRUE(object_->Restrict(Ids({3})).ok());
  EXPECT_EQ(object_->NumComponents(), 1u);
  EXPECT_EQ(*object_->ZoomIn(0), Ids({1, 2}));
}

}  // namespace
}  // namespace insightnotes::core
