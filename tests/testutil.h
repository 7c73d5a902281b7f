// Shared test fixtures: a fully wired engine with the Figure 2 setup —
// tables R(a,b,c,d) and S(x,y,z), classifier instances ClassBird1 (on R),
// ClassBird2 (on R and S), a SimCluster instance (R and S) and a
// TextSummary1 snippet instance (R).

#ifndef INSIGHTNOTES_TESTS_TESTUTIL_H_
#define INSIGHTNOTES_TESTS_TESTUTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/summary_instance.h"
#include "exec/hash_join.h"
#include "exec/operator.h"
#include "exec/parallel.h"
#include "rel/expression.h"

namespace insightnotes::testutil {

inline rel::Value I(int64_t v) { return rel::Value(v); }
inline rel::Value S(const std::string& v) { return rel::Value(v); }
inline rel::Value F(double v) { return rel::Value(v); }

/// Bound column reference by (qualified) name against `schema`.
inline rel::ExprPtr Col(const rel::Schema& schema, const std::string& name) {
  auto index = schema.IndexOf(name);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return rel::MakeColumn(index.ok() ? *index : 0, name);
}

/// Opens `op` and drains it batch by batch, expecting every call to
/// succeed; returns the rows in emission order.
inline std::vector<core::AnnotatedTuple> DrainRows(exec::Operator* op) {
  std::vector<core::AnnotatedTuple> rows;
  Status open = op->Open();
  EXPECT_TRUE(open.ok()) << open.ToString();
  if (!open.ok()) return rows;
  core::AnnotatedBatch batch;
  while (true) {
    auto more = op->NextBatch(&batch);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !*more) break;
    for (core::AnnotatedTuple& tuple : batch.tuples) rows.push_back(std::move(tuple));
  }
  return rows;
}

/// Hash join of two complete inputs on left_key == right_key, assembled
/// the way the planner runs it with one worker: a Gather(1) over a probe
/// of `left` against a build of `right`.
inline std::unique_ptr<exec::Operator> HashJoin(std::unique_ptr<exec::Operator> left,
                                                std::unique_ptr<exec::Operator> right,
                                                rel::ExprPtr left_key,
                                                rel::ExprPtr right_key) {
  auto build = std::make_shared<exec::HashJoinBuildState>(
      std::move(right), std::move(right_key), /*num_partitions=*/1, /*pool=*/nullptr);
  std::vector<std::unique_ptr<exec::Operator>> workers;
  workers.push_back(std::make_unique<exec::HashJoinProbeOperator>(
      std::move(left), build, std::move(left_key), /*expose_build=*/true));
  return std::make_unique<exec::GatherOperator>(
      std::move(workers), std::vector<std::shared_ptr<exec::SharedPlanState>>{build},
      /*pool=*/nullptr);
}

class EngineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<core::Engine>(options_);
    ASSERT_TRUE(engine_->Init().ok()) << "engine init failed";
  }

  /// Creates R(a BIGINT, b BIGINT, c TEXT, d TEXT) and
  /// S(x BIGINT, y TEXT, z TEXT) with a few rows.
  void CreateFigure2Tables() {
    ASSERT_TRUE(engine_
                    ->CreateTable("R", rel::Schema({{"a", rel::ValueType::kInt64, "R"},
                                                    {"b", rel::ValueType::kInt64, "R"},
                                                    {"c", rel::ValueType::kString, "R"},
                                                    {"d", rel::ValueType::kString, "R"}}))
                    .ok());
    ASSERT_TRUE(engine_
                    ->CreateTable("S", rel::Schema({{"x", rel::ValueType::kInt64, "S"},
                                                    {"y", rel::ValueType::kString, "S"},
                                                    {"z", rel::ValueType::kString, "S"}}))
                    .ok());
    // R rows: (1,2,c0,d0), (2,2,c1,d1), (3,9,c2,d2).
    for (int64_t i = 1; i <= 3; ++i) {
      auto row = engine_->Insert(
          "R", rel::Tuple({I(i), I(i <= 2 ? 2 : 9), S("c" + std::to_string(i - 1)),
                           S("d" + std::to_string(i - 1))}));
      ASSERT_TRUE(row.ok());
    }
    // S rows: (1,y0,z0), (3,y1,z1), (4,y2,z2).
    ASSERT_TRUE(engine_->Insert("S", rel::Tuple({I(1), S("y0"), S("z0")})).ok());
    ASSERT_TRUE(engine_->Insert("S", rel::Tuple({I(3), S("y1"), S("z1")})).ok());
    ASSERT_TRUE(engine_->Insert("S", rel::Tuple({I(4), S("y2"), S("z2")})).ok());
  }

  /// Registers and links the Figure 2 summary instances.
  void CreateFigure2Instances() {
    auto class1 = core::SummaryInstance::MakeClassifier(
        "ClassBird1", {"Behavior", "Disease", "Anatomy", "Other"});
    TrainBirdClassifier(class1->classifier());
    ASSERT_TRUE(engine_->RegisterInstance(std::move(class1)).ok());

    auto class2 = core::SummaryInstance::MakeClassifier(
        "ClassBird2", {"Provenance", "Comment", "Question"});
    auto* nb2 = class2->classifier();
    ASSERT_TRUE(nb2->Train(0, "produced by experiment lineage derived source").ok());
    ASSERT_TRUE(nb2->Train(1, "observed noted comment remark general").ok());
    ASSERT_TRUE(nb2->Train(2, "why what unclear question wondering unsure").ok());
    ASSERT_TRUE(engine_->RegisterInstance(std::move(class2)).ok());

    ASSERT_TRUE(
        engine_->RegisterInstance(core::SummaryInstance::MakeCluster("SimCluster", 0.3)).ok());
    mining::SnippetOptions snippet_opts;
    snippet_opts.max_sentences = 1;
    snippet_opts.max_chars = 120;
    ASSERT_TRUE(engine_
                    ->RegisterInstance(core::SummaryInstance::MakeSnippet(
                        "TextSummary1", snippet_opts))
                    .ok());

    ASSERT_TRUE(engine_->LinkInstance("ClassBird1", "R").ok());
    ASSERT_TRUE(engine_->LinkInstance("ClassBird2", "R").ok());
    ASSERT_TRUE(engine_->LinkInstance("ClassBird2", "S").ok());
    ASSERT_TRUE(engine_->LinkInstance("SimCluster", "R").ok());
    ASSERT_TRUE(engine_->LinkInstance("SimCluster", "S").ok());
    ASSERT_TRUE(engine_->LinkInstance("TextSummary1", "R").ok());
  }

  static void TrainBirdClassifier(mining::NaiveBayesClassifier* nb) {
    ASSERT_TRUE(nb->Train(0, "eating stonewort foraging flying migration behavior").ok());
    ASSERT_TRUE(nb->Train(1, "influenza infection sick parasite disease lesion").ok());
    ASSERT_TRUE(nb->Train(2, "size weight wingspan beak feathers anatomy large").ok());
    ASSERT_TRUE(nb->Train(3, "article wikipedia photo link reference misc").ok());
  }

  core::AnnotateSpec Spec(const std::string& table, rel::RowId row,
                          const std::string& body, std::vector<size_t> columns = {}) {
    core::AnnotateSpec spec;
    spec.table = table;
    spec.row = row;
    spec.columns = std::move(columns);
    spec.body = body;
    spec.author = "tester";
    return spec;
  }

  core::EngineOptions options_;
  std::unique_ptr<core::Engine> engine_;
};

}  // namespace insightnotes::testutil

#endif  // INSIGHTNOTES_TESTS_TESTUTIL_H_
