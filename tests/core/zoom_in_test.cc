// Zoom-in end-to-end tests, mirroring Figure 3: query results carry
// classifier/snippet summaries; ZoomIn commands retrieve the refuting
// annotations / the attached article.

#include "core/zoom_in.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "exec/filter.h"
#include "testutil.h"

namespace insightnotes::core {
namespace {

using testutil::Col;
using testutil::I;
using testutil::S;

class ZoomInTest : public testutil::EngineFixture {
 protected:
  void SetUp() override {
    testutil::EngineFixture::SetUp();
    // Figure 3 schema: T(c1 TEXT, c2 TEXT, c3 BIGINT).
    ASSERT_TRUE(engine_
                    ->CreateTable("T", rel::Schema({{"c1", rel::ValueType::kString, "T"},
                                                    {"c2", rel::ValueType::kString, "T"},
                                                    {"c3", rel::ValueType::kInt64, "T"}}))
                    .ok());
    ASSERT_TRUE(engine_->Insert("T", rel::Tuple({S("x"), S("y"), I(5)})).ok());
    ASSERT_TRUE(engine_->Insert("T", rel::Tuple({S("x"), S("y"), I(10)})).ok());

    // NaiveBayesClass with {refute, approve}; TextSummary for documents.
    auto classifier = SummaryInstance::MakeClassifier(
        "NaiveBayesClass", {"refute", "approve", "other"});
    auto* nb = classifier->classifier();
    ASSERT_TRUE(nb->Train(0, "wrong invalid incorrect needs verification bogus").ok());
    ASSERT_TRUE(nb->Train(1, "confirmed verified correct agree accurate").ok());
    ASSERT_TRUE(nb->Train(2, "article wikipedia describes species goose breeds").ok());
    ASSERT_TRUE(engine_->RegisterInstance(std::move(classifier)).ok());
    ASSERT_TRUE(engine_
                    ->RegisterInstance(SummaryInstance::MakeSnippet("TextSummary"))
                    .ok());
    ASSERT_TRUE(engine_->LinkInstance("NaiveBayesClass", "T").ok());
    ASSERT_TRUE(engine_->LinkInstance("TextSummary", "T").ok());

    // Figure 3 annotations: one refuting note on r1, two on r2, plus an
    // approving note on r1 and a Wikipedia article on r1.
    refute_r1_ = *engine_->Annotate(Spec("T", 0, "Value 5 is wrong"));
    ASSERT_TRUE(engine_->Annotate(Spec("T", 0, "confirmed correct by survey")).ok());
    refute_r2_a_ = *engine_->Annotate(Spec("T", 1, "Needs verification"));
    refute_r2_b_ = *engine_->Annotate(Spec("T", 1, "Invalid experiment"));
    AnnotateSpec doc = Spec("T", 0,
                            "The swan goose is a large goose. It breeds in Mongolia.");
    doc.kind = ann::AnnotationKind::kDocument;
    doc.title = "Wikipedia article";
    wiki_ = *engine_->Annotate(doc);
  }

  Result<QueryResult> RunSelectAll() {
    auto scan = engine_->MakeScan("T", "t");
    EXPECT_TRUE(scan.ok());
    return engine_->Execute(std::move(*scan));
  }

  ann::AnnotationId refute_r1_ = 0;
  ann::AnnotationId refute_r2_a_ = 0;
  ann::AnnotationId refute_r2_b_ = 0;
  ann::AnnotationId wiki_ = 0;
};

TEST_F(ZoomInTest, RetrieveRefutingAnnotations) {
  auto result = RunSelectAll();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 2u);

  // "ZoomIn Reference QID <qid> Where c1 = 'x' On NaiveBayesClass Index 0".
  ZoomInRequest request;
  request.qid = result->qid;
  request.predicate = rel::MakeCompare(rel::CompareOp::kEq,
                                       Col(result->schema, "t.c1"),
                                       rel::MakeLiteral(S("x")));
  request.instance_name = "NaiveBayesClass";
  request.component_index = 0;  // "refute".
  auto zoom = engine_->ZoomIn(request);
  ASSERT_TRUE(zoom.ok());
  ASSERT_EQ(zoom->rows.size(), 2u);
  EXPECT_TRUE(zoom->served_from_cache);

  // r1: one refuting annotation.
  EXPECT_EQ(zoom->rows[0].component_label, "refute");
  ASSERT_EQ(zoom->rows[0].annotations.size(), 1u);
  EXPECT_EQ(zoom->rows[0].annotations[0].body, "Value 5 is wrong");
  // r2: two refuting annotations.
  ASSERT_EQ(zoom->rows[1].annotations.size(), 2u);
  EXPECT_EQ(zoom->rows[1].annotations[0].body, "Needs verification");
  EXPECT_EQ(zoom->rows[1].annotations[1].body, "Invalid experiment");
}

TEST_F(ZoomInTest, RetrieveWikipediaArticle) {
  auto result = RunSelectAll();
  ASSERT_TRUE(result.ok());
  // "ZoomIn Reference QID ... Where c3 = 5 On TextSummary Index 0".
  ZoomInRequest request;
  request.qid = result->qid;
  request.predicate = rel::MakeCompare(rel::CompareOp::kEq,
                                       Col(result->schema, "t.c3"),
                                       rel::MakeLiteral(I(5)));
  request.instance_name = "TextSummary";
  request.component_index = 0;
  auto zoom = engine_->ZoomIn(request);
  ASSERT_TRUE(zoom.ok());
  ASSERT_EQ(zoom->rows.size(), 1u);
  EXPECT_EQ(zoom->rows[0].component_label, "Wikipedia article");
  ASSERT_EQ(zoom->rows[0].annotations.size(), 1u);
  EXPECT_EQ(zoom->rows[0].annotations[0].id, wiki_);
  EXPECT_NE(zoom->rows[0].annotations[0].body.find("Mongolia"), std::string::npos);
}

TEST_F(ZoomInTest, UnknownQidFails) {
  ZoomInRequest request;
  request.qid = 424242;
  request.instance_name = "NaiveBayesClass";
  EXPECT_TRUE(engine_->ZoomIn(request).status().IsNotFound());
}

TEST_F(ZoomInTest, UnknownInstanceFails) {
  auto result = RunSelectAll();
  ASSERT_TRUE(result.ok());
  ZoomInRequest request;
  request.qid = result->qid;
  request.instance_name = "NoSuchInstance";
  EXPECT_TRUE(engine_->ZoomIn(request).status().IsNotFound());
}

TEST_F(ZoomInTest, NoPredicateSelectsAllRows) {
  auto result = RunSelectAll();
  ASSERT_TRUE(result.ok());
  ZoomInRequest request;
  request.qid = result->qid;
  request.instance_name = "NaiveBayesClass";
  request.component_index = 1;  // "approve".
  auto zoom = engine_->ZoomIn(request);
  ASSERT_TRUE(zoom.ok());
  ASSERT_EQ(zoom->rows.size(), 2u);
  EXPECT_EQ(zoom->rows[0].annotations.size(), 1u);  // r1's approving note.
  EXPECT_EQ(zoom->rows[1].annotations.size(), 0u);
}

TEST_F(ZoomInTest, CacheMissTriggersReexecution) {
  // Cache too small for any snapshot: every zoom-in re-runs the plan.
  options_.cache_budget_bytes = 16;
  engine_ = std::make_unique<Engine>(options_);
  ASSERT_TRUE(engine_->Init().ok());
  ASSERT_TRUE(engine_
                  ->CreateTable("T", rel::Schema({{"c1", rel::ValueType::kString, "T"}}))
                  .ok());
  ASSERT_TRUE(engine_->Insert("T", rel::Tuple({S("x")})).ok());
  auto classifier = SummaryInstance::MakeClassifier("NB", {"refute", "approve"});
  ASSERT_TRUE(classifier->classifier()->Train(0, "wrong").ok());
  ASSERT_TRUE(engine_->RegisterInstance(std::move(classifier)).ok());
  ASSERT_TRUE(engine_->LinkInstance("NB", "T").ok());
  ASSERT_TRUE(engine_->Annotate(Spec("T", 0, "wrong value")).ok());

  auto scan = engine_->MakeScan("T");
  ASSERT_TRUE(scan.ok());
  auto result = engine_->Execute(std::move(*scan));
  ASSERT_TRUE(result.ok());

  ZoomInRequest request;
  request.qid = result->qid;
  request.instance_name = "NB";
  request.component_index = 0;
  auto zoom = engine_->ZoomIn(request);
  ASSERT_TRUE(zoom.ok());
  EXPECT_FALSE(zoom->served_from_cache);  // Re-executed transparently.
  ASSERT_EQ(zoom->rows.size(), 1u);
  EXPECT_EQ(zoom->rows[0].annotations.size(), 1u);
}

// A QID names the result of one epoch: a zoom-in that misses the cache
// after further ingest re-executes against the stored epoch and reproduces
// that epoch's answer, while a fresh query sees the new annotation.
TEST_F(ZoomInTest, CacheMissAfterIngestReproducesStoredEpoch) {
  options_.cache_budget_bytes = 16;  // Every zoom-in misses.
  engine_ = std::make_unique<Engine>(options_);
  ASSERT_TRUE(engine_->Init().ok());
  ASSERT_TRUE(engine_
                  ->CreateTable("T", rel::Schema({{"c1", rel::ValueType::kString, "T"}}))
                  .ok());
  ASSERT_TRUE(engine_->Insert("T", rel::Tuple({S("x")})).ok());
  auto classifier = SummaryInstance::MakeClassifier("NB", {"refute", "approve"});
  ASSERT_TRUE(classifier->classifier()->Train(0, "wrong").ok());
  ASSERT_TRUE(engine_->RegisterInstance(std::move(classifier)).ok());
  ASSERT_TRUE(engine_->LinkInstance("NB", "T").ok());
  ASSERT_TRUE(engine_->Annotate(Spec("T", 0, "wrong value")).ok());

  auto run = [&]() {
    auto scan = engine_->MakeScan("T");
    EXPECT_TRUE(scan.ok());
    auto result = engine_->Execute(std::move(*scan));
    EXPECT_TRUE(result.ok());
    return result->qid;
  };
  auto zoom_ids = [&](QueryId qid) {
    ZoomInRequest request;
    request.qid = qid;
    request.instance_name = "NB";
    request.component_index = 0;
    auto zoom = engine_->ZoomIn(request);
    EXPECT_TRUE(zoom.ok());
    EXPECT_FALSE(zoom->served_from_cache);
    std::vector<std::string> rendered;
    for (const ZoomInRowResult& row : zoom->rows) {
      for (const ann::Annotation& note : row.annotations) {
        rendered.push_back(row.tuple.ToString() + " " + row.component_label + " " +
                           std::to_string(note.id) + " " + note.body);
      }
    }
    return rendered;
  };

  const QueryId qid = run();
  const std::vector<std::string> before = zoom_ids(qid);
  ASSERT_EQ(before.size(), 1u);
  ASSERT_TRUE(engine_->Annotate(Spec("T", 0, "wrong again")).ok());
  EXPECT_EQ(zoom_ids(qid), before);
  EXPECT_EQ(zoom_ids(run()).size(), 2u);
}

TEST_F(ZoomInTest, ZoomInAfterArchiveReflectsCuration) {
  ASSERT_TRUE(engine_->ArchiveAnnotation(refute_r1_).ok());
  auto result = RunSelectAll();
  ASSERT_TRUE(result.ok());
  ZoomInRequest request;
  request.qid = result->qid;
  request.instance_name = "NaiveBayesClass";
  request.component_index = 0;
  auto zoom = engine_->ZoomIn(request);
  ASSERT_TRUE(zoom.ok());
  // r1's refuting annotation was archived: its effect is gone.
  EXPECT_EQ(zoom->rows[0].annotations.size(), 0u);
  EXPECT_EQ(zoom->rows[1].annotations.size(), 2u);
}

TEST_F(ZoomInTest, QidsAreUniquePerExecution) {
  auto a = RunSelectAll();
  auto b = RunSelectAll();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->qid, b->qid);
  EXPECT_GT(a->qid, 100u);  // Figure 3 style QIDs (101, 102, ...).
}

}  // namespace
}  // namespace insightnotes::core
