// Property-based suites over the summary algebra (DESIGN.md §6): for
// randomized annotation populations across all three summary types we check
//   * counts partition: per-component sizes sum to NumAnnotations;
//   * zoom-in completeness: the union of ZoomIn(component) over all
//     components is exactly the contributing annotation id set;
//   * merge commutativity (up to representative choice);
//   * add/restrict round trips;
//   * shared-annotation idempotence: merging an object with itself is a
//     no-op;
//   * cluster maintenance under random Add / Merge / Restrict sequences
//     matches a from-scratch recomputation after every step.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "common/random.h"
#include "core/summary_instance.h"
#include "core/summary_object.h"
#include "workload/annotation_gen.h"

namespace insightnotes::core {
namespace {

struct PropertyCase {
  int type;  // 0 classifier, 1 cluster, 2 snippet.
  uint64_t seed;
  size_t population;
};

std::string CaseName(const ::testing::TestParamInfo<PropertyCase>& info) {
  const char* types[] = {"classifier", "cluster", "snippet"};
  return std::string(types[info.param.type]) + "_seed" +
         std::to_string(info.param.seed) + "_n" +
         std::to_string(info.param.population);
}

class SummaryAlgebraProperty : public ::testing::TestWithParam<PropertyCase> {
 protected:
  void SetUp() override {
    const PropertyCase& param = GetParam();
    switch (param.type) {
      case 0: {
        instance_ = SummaryInstance::MakeClassifier(
            "p", {"Behavior", "Disease", "Anatomy", "Other"});
        for (const auto& [label, text] :
             workload::AnnotationGenerator::ClassBird1Training()) {
          ASSERT_TRUE(instance_->classifier()->Train(label, text).ok());
        }
        break;
      }
      case 1:
        instance_ = SummaryInstance::MakeCluster("p", 0.3);
        break;
      default:
        instance_ = SummaryInstance::MakeSnippet("p");
        break;
    }
    gen_ = std::make_unique<workload::AnnotationGenerator>(param.seed);
  }

  /// Generates annotation `id` deterministically for this test's seed.
  ann::Annotation MakeAnnotation(ann::AnnotationId id) {
    auto it = generated_.find(id);
    if (it != generated_.end()) return it->second;
    const auto& species = workload::CuratedSpecies()[id % 20];
    // Mix comments and documents so snippet objects see contributions.
    workload::GeneratedAnnotation g =
        (id % 4 == 0) ? gen_->GenerateDocument(species, 4)
                      : gen_->GenerateComment(species);
    g.annotation.id = id;
    generated_[id] = g.annotation;
    return g.annotation;
  }

  std::unique_ptr<SummaryObject> BuildObject(const std::vector<ann::AnnotationId>& ids) {
    auto object = instance_->NewObject();
    for (ann::AnnotationId id : ids) {
      Status s = object->AddAnnotation(MakeAnnotation(id));
      EXPECT_TRUE(s.ok() || s.IsAlreadyExists()) << s.ToString();
    }
    return object;
  }

  /// Ids the object actually holds (snippets ignore comments).
  std::set<ann::AnnotationId> ContributingIds(
      const SummaryObject& object, const std::vector<ann::AnnotationId>& ids) {
    std::set<ann::AnnotationId> out;
    for (ann::AnnotationId id : ids) {
      if (object.Contains(id)) out.insert(id);
    }
    return out;
  }

  std::unique_ptr<SummaryInstance> instance_;
  std::unique_ptr<workload::AnnotationGenerator> gen_;
  std::map<ann::AnnotationId, ann::Annotation> generated_;
};

TEST_P(SummaryAlgebraProperty, ComponentsPartitionAnnotations) {
  const PropertyCase& param = GetParam();
  std::vector<ann::AnnotationId> ids;
  for (size_t i = 0; i < param.population; ++i) ids.push_back(i);
  auto object = BuildObject(ids);

  std::set<ann::AnnotationId> via_zoom;
  size_t total_component_sizes = 0;
  for (size_t c = 0; c < object->NumComponents(); ++c) {
    auto members = object->ZoomIn(c);
    ASSERT_TRUE(members.ok());
    total_component_sizes += members->size();
    for (ann::AnnotationId id : *members) {
      EXPECT_TRUE(via_zoom.insert(id).second)
          << "annotation " << id << " in two components";
    }
  }
  EXPECT_EQ(via_zoom, ContributingIds(*object, ids));
  EXPECT_EQ(total_component_sizes, object->NumAnnotations());
}

TEST_P(SummaryAlgebraProperty, AddRestrictRoundTrip) {
  const PropertyCase& param = GetParam();
  std::vector<ann::AnnotationId> ids;
  for (size_t i = 0; i < param.population; ++i) ids.push_back(i);
  auto object = BuildObject(ids);
  std::string before = object->Render();

  ann::Annotation extra = MakeAnnotation(10000 + param.seed);
  ASSERT_TRUE(object->AddAnnotation(extra).ok());
  ASSERT_TRUE(object->Restrict(std::span<const ann::AnnotationId>(&extra.id, 1)).ok());
  EXPECT_EQ(object->Render(), before);
}

TEST_P(SummaryAlgebraProperty, MergeCommutativeOnMembership) {
  const PropertyCase& param = GetParam();
  std::vector<ann::AnnotationId> left_ids;
  std::vector<ann::AnnotationId> right_ids;
  Random rng(param.seed);
  for (size_t i = 0; i < param.population; ++i) {
    if (rng.Bernoulli(0.5)) left_ids.push_back(i);
    if (rng.Bernoulli(0.5)) right_ids.push_back(i);  // Overlap is intended.
  }
  auto ab = BuildObject(left_ids);
  auto ab_rhs = BuildObject(right_ids);
  ASSERT_TRUE(ab->MergeWith(*ab_rhs).ok());
  auto ba = BuildObject(right_ids);
  auto ba_rhs = BuildObject(left_ids);
  ASSERT_TRUE(ba->MergeWith(*ba_rhs).ok());

  EXPECT_EQ(ab->NumAnnotations(), ba->NumAnnotations());
  std::vector<ann::AnnotationId> all_ids;
  for (size_t i = 0; i < param.population; ++i) all_ids.push_back(i);
  EXPECT_EQ(ContributingIds(*ab, all_ids), ContributingIds(*ba, all_ids));
}

TEST_P(SummaryAlgebraProperty, SelfMergeIsIdempotent) {
  const PropertyCase& param = GetParam();
  std::vector<ann::AnnotationId> ids;
  for (size_t i = 0; i < param.population; ++i) ids.push_back(i);
  auto object = BuildObject(ids);
  size_t before = object->NumAnnotations();
  auto twin = object->Clone();
  ASSERT_TRUE(object->MergeWith(*twin).ok());
  EXPECT_EQ(object->NumAnnotations(), before);
}

TEST_P(SummaryAlgebraProperty, RestrictEveryAnnotationEmptiesObject) {
  const PropertyCase& param = GetParam();
  std::vector<ann::AnnotationId> ids;
  for (size_t i = 0; i < param.population; ++i) ids.push_back(i);
  auto object = BuildObject(ids);
  ASSERT_TRUE(object->Restrict(ids).ok());
  EXPECT_EQ(object->NumAnnotations(), 0u);
  // Classifier keeps its (empty) label components; cluster/snippet have none.
  for (size_t c = 0; c < object->NumComponents(); ++c) {
    auto members = object->ZoomIn(c);
    ASSERT_TRUE(members.ok());
    EXPECT_TRUE(members->empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SummaryAlgebraProperty,
    ::testing::Values(PropertyCase{0, 1, 10}, PropertyCase{0, 2, 60},
                      PropertyCase{0, 3, 200}, PropertyCase{1, 1, 10},
                      PropertyCase{1, 2, 60}, PropertyCase{1, 3, 200},
                      PropertyCase{2, 1, 10}, PropertyCase{2, 2, 60},
                      PropertyCase{2, 3, 200}),
    CaseName);

// Cluster objects under random Add / Merge / Restrict / Clone sequences.
// After every step each group is recomputed from scratch out of its member
// vectors: centroid_sum must equal that refold entry for entry, and the
// representative must be the member closest to it by cosine, ties to the
// lowest id. Every vector the instance holds must be integer-valued (raw
// term counts): that is what makes the maintained sum exact and so the
// election independent of fold order.
class ClusterMaintenanceProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  static constexpr ann::AnnotationId kUniverse = 240;

  void SetUp() override {
    instance_ = SummaryInstance::MakeCluster("SimCluster", 0.3);
    workload::AnnotationGenerator gen(GetParam());
    for (ann::AnnotationId id = 0; id < kUniverse; ++id) {
      const auto& species = workload::CuratedSpecies()[id % 5];
      workload::GeneratedAnnotation g =
          id % 7 == 0 ? gen.GenerateDocument(species, 2) : gen.GenerateComment(species);
      g.annotation.id = id;
      notes_.push_back(g.annotation);
    }
  }

  void CheckAgainstRefold(const SummaryObject& object, const std::string& where) {
    const auto& clusters = static_cast<const ClusterObject&>(object).clusters();
    size_t members_total = 0;
    for (const mining::ClusterGroup& group : clusters.groups()) {
      ASSERT_FALSE(group.members.empty()) << where;
      members_total += group.members.size();
      std::vector<const txt::SparseVector*> vectors;
      instance_->GetVectors(group.members, &vectors);
      std::map<txt::TermId, double> refold;
      for (size_t k = 0; k < vectors.size(); ++k) {
        ASSERT_NE(vectors[k], nullptr) << where << ": doc " << group.members[k];
        for (const auto& e : vectors[k]->entries()) {
          ASSERT_EQ(e.value, std::floor(e.value)) << where << ": non-integer count";
          refold[e.term] += e.value;
        }
      }
      const auto& sum = group.centroid_sum.entries();
      ASSERT_EQ(sum.size(), refold.size()) << where;
      size_t k = 0;
      double norm_sq = 0.0;
      for (const auto& [term, value] : refold) {
        EXPECT_EQ(sum[k].term, term) << where;
        EXPECT_EQ(sum[k].value, value) << where;
        norm_sq += value * value;
        ++k;
      }
      // Cosine of each member against the refold, from scratch.
      const double norm = std::sqrt(norm_sq);
      double best_sim = -1.0;
      mining::DocId best = group.members.front();
      for (size_t m = 0; m < vectors.size(); ++m) {
        double dot = 0.0;
        double vec_sq = 0.0;
        for (const auto& e : vectors[m]->entries()) {
          dot += e.value * refold.at(e.term);
          vec_sq += e.value * e.value;
        }
        double vec_norm = std::sqrt(vec_sq);
        double sim = (norm < 1e-12 || vec_norm < 1e-12)
                         ? 0.0
                         : std::clamp(dot / (norm * vec_norm), 0.0, 1.0);
        if (sim > best_sim) {
          best_sim = sim;
          best = group.members[m];
        }
      }
      EXPECT_EQ(group.representative, best) << where;
    }
    EXPECT_EQ(members_total, clusters.NumDocuments()) << where;
  }

  std::unique_ptr<SummaryInstance> instance_;
  std::vector<ann::Annotation> notes_;
};

TEST_P(ClusterMaintenanceProperty, AddMergeRestrictMatchRefold) {
  Random rng(GetParam());
  std::vector<std::unique_ptr<SummaryObject>> objects;
  for (int i = 0; i < 4; ++i) objects.push_back(instance_->NewObject());
  for (int step = 0; step < 150; ++step) {
    size_t a = rng.Uniform(objects.size());
    size_t b = rng.Uniform(objects.size());
    std::string where = "step " + std::to_string(step);
    switch (rng.Uniform(10)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // Add a handful of annotations.
        for (int n = 0; n < 6; ++n) {
          const ann::Annotation& note = notes_[rng.Uniform(kUniverse)];
          if (objects[a]->Contains(note.id)) continue;
          ASSERT_TRUE(objects[a]->AddAnnotation(note).ok()) << where;
        }
        where += " add";
        break;
      }
      case 4:
      case 5:
      case 6: {  // Merge (possibly with itself or a shared clone).
        ASSERT_TRUE(objects[a]->MergeWith(*objects[b]).ok()) << where;
        where += " merge";
        break;
      }
      case 7:
      case 8: {  // Restrict a random id set, members and non-members alike.
        std::vector<ann::AnnotationId> dropped;
        double p = rng.NextDouble() * 0.6;
        for (ann::AnnotationId id = 0; id < kUniverse + 5; ++id) {
          if (rng.Bernoulli(p)) dropped.push_back(id);
        }
        ASSERT_TRUE(objects[a]->Restrict(dropped).ok()) << where;
        where += " restrict";
        break;
      }
      default:  // Copy-on-write clone.
        objects[a] = objects[b]->Clone();
        where += " clone";
        break;
    }
    for (const auto& object : objects) {
      ASSERT_NO_FATAL_FAILURE(CheckAgainstRefold(*object, where));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterMaintenanceProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace insightnotes::core
