// Zoom-in end-to-end tests, mirroring Figure 3: query results carry
// classifier/snippet summaries; ZoomIn commands retrieve the refuting
// annotations / the attached article.

#include "core/zoom_in.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <limits>
#include <thread>

#include "common/random.h"
#include "core/engine.h"
#include "core/rco_cache.h"
#include "exec/filter.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "sql/session.h"
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

// --- Retained results: admission before encoding, misses without a full
// capture. The reference everywhere is the two-step path the engine no
// longer takes: Serialize(Capture(rows)) handed to ZoomInCache::Put.

constexpr size_t kRetainRows = 24;

/// An engine over B(id BIGINT, name TEXT) whose rows carry a classifier, a
/// cluster and a snippet summary, annotated from a fixed seed: engines
/// built with any cache settings hold equal data and annotation ids.
std::unique_ptr<Engine> BuildRetainEngine(CachePolicy policy, size_t budget_bytes) {
  EngineOptions options;
  options.cache_policy = policy;
  options.cache_budget_bytes = budget_bytes;
  auto engine = std::make_unique<Engine>(options);
  EXPECT_TRUE(engine->Init().ok());
  EXPECT_TRUE(engine
                  ->CreateTable("B", rel::Schema({{"id", rel::ValueType::kInt64, "B"},
                                                  {"name", rel::ValueType::kString, "B"}}))
                  .ok());
  for (size_t i = 0; i < kRetainRows; ++i) {
    EXPECT_TRUE(engine
                    ->Insert("B", rel::Tuple({I(static_cast<int64_t>(i)),
                                              S("bird " + std::to_string(i))}))
                    .ok());
  }
  auto classifier =
      SummaryInstance::MakeClassifier("NB", {"refute", "approve", "other"});
  EXPECT_TRUE(classifier->classifier()->Train(0, "wrong invalid incorrect bogus").ok());
  EXPECT_TRUE(classifier->classifier()->Train(1, "confirmed verified correct").ok());
  EXPECT_TRUE(classifier->classifier()->Train(2, "article describes species").ok());
  EXPECT_TRUE(engine->RegisterInstance(std::move(classifier)).ok());
  EXPECT_TRUE(engine->RegisterInstance(SummaryInstance::MakeCluster("Sim", 0.3)).ok());
  EXPECT_TRUE(engine->RegisterInstance(SummaryInstance::MakeSnippet("Text")).ok());
  for (const char* instance : {"NB", "Sim", "Text"}) {
    EXPECT_TRUE(engine->LinkInstance(instance, "B").ok());
  }
  const std::vector<std::string> bodies = {
      "this value is wrong and invalid", "confirmed and verified by a survey",
      "the count looks incorrect",       "verified correct in the field",
      "bogus entry, needs a recount",    "an article describes this species",
  };
  Random rng(29);
  for (int i = 0; i < 160; ++i) {
    AnnotateSpec spec;
    spec.table = "B";
    spec.row = static_cast<rel::RowId>(rng.Uniform(kRetainRows));
    spec.body = bodies[rng.Uniform(bodies.size())];
    if (i % 9 == 0) {
      spec.kind = ann::AnnotationKind::kDocument;
      spec.body = "The goose breeds in Mongolia. It is a large goose. " + spec.body;
      // Untitled documents are labelled by id ("doc <id>").
      spec.title = i % 18 == 0 ? "" : "Article " + std::to_string(i);
    }
    EXPECT_TRUE(engine->Annotate(spec).ok());
  }
  return engine;
}

/// Runs `sql` at parallelism 1; retained unless `retain` is false.
QueryResult RunSql(Engine* engine, const std::string& sql, bool retain = true) {
  auto statement = sql::Parse(sql);
  EXPECT_TRUE(statement.ok()) << statement.status().ToString();
  auto* select = std::get_if<sql::SelectStatement>(&*statement);
  EXPECT_NE(select, nullptr);
  sql::PlannerOptions planner;
  planner.parallelism = 1;
  auto plan = sql::PlanSelect(*select, engine, planner);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  ExecuteOptions options;
  options.retain = retain;
  auto result = engine->Execute(std::move(*plan), std::move(options));
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(*result) : QueryResult{};
}

std::string ReferenceRecord(const QueryResult& result) {
  auto snapshot = ResultSnapshot::Capture(result.schema, result.rows);
  EXPECT_TRUE(snapshot.ok());
  std::string bytes;
  snapshot->Serialize(&bytes);
  return bytes;
}

const char* const kRetainQueries[] = {
    "SELECT * FROM B b",
    "SELECT b.name FROM B b WHERE b.id < 7",
    "SELECT * FROM B b WHERE b.id = 3",
    "SELECT b.id FROM B b WHERE SUMMARY_COUNT(NB) > 5",
    "SELECT * FROM B b WHERE b.id > 1000",
};

TEST(RetainedResultTest, EncoderMatchesSerializedCaptureAndBoundsIt) {
  auto engine = BuildRetainEngine(CachePolicy::kRco, 64 << 20);
  for (const char* sql : kRetainQueries) {
    SCOPED_TRACE(sql);
    QueryResult result = RunSql(engine.get(), sql, /*retain=*/false);
    // Every prefix of the result, the empty one included.
    for (size_t n = 0; n <= result.rows.size(); ++n) {
      std::vector<AnnotatedTuple> rows;
      for (size_t r = 0; r < n; ++r) rows.push_back(result.rows[r].Clone());
      auto snapshot = ResultSnapshot::Capture(result.schema, rows);
      ASSERT_TRUE(snapshot.ok());
      std::string reference;
      snapshot->Serialize(&reference);
      std::string encoded = "prefix";  // The encoder appends.
      ASSERT_TRUE(EncodeSnapshotRecord(result.schema, rows,
                                       std::numeric_limits<size_t>::max(), &encoded));
      EXPECT_EQ(encoded.substr(6), reference) << "rows=" << n;
      EXPECT_LE(SnapshotRecordBound(result.schema, rows), reference.size()) << "rows=" << n;
      std::string exact;
      EXPECT_TRUE(EncodeSnapshotRecord(result.schema, rows, reference.size(), &exact));
      EXPECT_EQ(exact, reference);
      std::string short_by_one;
      EXPECT_FALSE(
          EncodeSnapshotRecord(result.schema, rows, reference.size() - 1, &short_by_one));
    }
  }
}

// A real record cut at every byte fails with a typed parse error; the
// whole record decodes back to itself. Each byte overwritten with 0xFF
// (a corrupt count or length) decodes or fails cleanly, never allocating
// for counts the record cannot hold.
TEST(SnapshotTest, DeserializeRejectsEveryTruncationOfARealRecord) {
  auto engine = BuildRetainEngine(CachePolicy::kRco, 64 << 20);
  const std::string record =
      ReferenceRecord(RunSql(engine.get(), "SELECT * FROM B b WHERE b.id < 3", false));
  auto whole = ResultSnapshot::Deserialize(record);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  ASSERT_EQ(whole->rows.size(), 3u);
  std::string again;
  whole->Serialize(&again);
  EXPECT_EQ(again, record);
  for (size_t cut = 0; cut < record.size(); ++cut) {
    auto back = ResultSnapshot::Deserialize(std::string_view(record).substr(0, cut));
    ASSERT_FALSE(back.ok()) << "cut=" << cut;
    ASSERT_TRUE(back.status().IsParseError()) << "cut=" << cut << " "
                                              << back.status().ToString();
  }
  for (size_t at = 0; at < record.size(); ++at) {
    std::string corrupt = record;
    corrupt[at] = static_cast<char>(0xFF);
    auto back = ResultSnapshot::Deserialize(corrupt);
    if (!back.ok()) {
      ASSERT_TRUE(back.status().IsParseError()) << "at=" << at << " "
                                                << back.status().ToString();
    }
  }
}

// Budgets one byte under, at and over a result's record size admit and
// reject exactly as Put of the serialized capture does, with equal
// CacheStats after every statement, under every policy; small results
// between the large ones force evictions at the larger budgets.
TEST(RetainedResultTest, AdmissionMatchesPutOfSerializedCapture) {
  auto probe = BuildRetainEngine(CachePolicy::kRco, 64 << 20);
  const size_t size = ReferenceRecord(RunSql(probe.get(), "SELECT * FROM B b")).size();
  for (CachePolicy policy :
       {CachePolicy::kRco, CachePolicy::kLru, CachePolicy::kLfu, CachePolicy::kNone}) {
    for (size_t budget : {size - 1, size, size + 1}) {
      SCOPED_TRACE(std::string(CachePolicyToString(policy)) +
                   " budget=" + std::to_string(budget));
      auto engine = BuildRetainEngine(policy, budget);
      ZoomInCache reference(policy, budget);
      ASSERT_TRUE(reference.Init().ok());
      for (int i = 0; i < 6; ++i) {
        const std::string sql = i % 2 == 0 ? "SELECT * FROM B b"
                                           : "SELECT * FROM B b WHERE b.id = " +
                                                 std::to_string(i);
        QueryResult result = RunSql(engine.get(), sql);
        ASSERT_TRUE(
            reference.Put(result.qid, ReferenceRecord(result), result.execute_seconds).ok());
        const CacheStats got = engine->cache()->stats();
        const CacheStats want = reference.stats();
        EXPECT_EQ(got.hits, want.hits) << sql;
        EXPECT_EQ(got.misses, want.misses) << sql;
        EXPECT_EQ(got.insertions, want.insertions) << sql;
        EXPECT_EQ(got.evictions, want.evictions) << sql;
        EXPECT_EQ(got.rejected, want.rejected) << sql;
        EXPECT_EQ(got.bytes_used, want.bytes_used) << sql;
        EXPECT_EQ(engine->cache()->Contains(result.qid), reference.Contains(result.qid));
      }
    }
  }
}

/// A zoom-in's answer, or its error, as comparable text.
std::vector<std::string> ZoomAnswer(Engine* engine, const ZoomInRequest& request,
                                    bool expect_cached) {
  auto zoom = engine->ZoomIn(request);
  if (!zoom.ok()) return {"error " + zoom.status().ToString()};
  EXPECT_EQ(zoom->served_from_cache, expect_cached);
  std::vector<std::string> out;
  for (const ZoomInRowResult& row : zoom->rows) {
    std::string line = std::to_string(row.row_index) + " " + row.tuple.ToString() + " " +
                       row.component_label + ":";
    for (const ann::Annotation& note : row.annotations) {
      line += " " + std::to_string(note.id) + (note.archived ? "a" : "") + "/" + note.body;
    }
    out.push_back(std::move(line));
  }
  return out;
}

// Zoom-ins on results the cache cannot hold (rejected by the size bound,
// or by the encoder passing the budget) answer exactly what a roomy
// engine's cache hit answers: every instance, every component and one
// past the last, an unknown instance, with and without predicates.
TEST(RetainedResultTest, OverBudgetZoomInsMatchCacheHits) {
  auto roomy = BuildRetainEngine(CachePolicy::kRco, 64 << 20);
  ASSERT_TRUE(roomy->ArchiveAnnotation(5).ok());
  const std::string full_sql = "SELECT * FROM B b";
  const size_t size = ReferenceRecord(RunSql(roomy.get(), full_sql, false)).size();
  const QueryResult roomy_result = RunSql(roomy.get(), full_sql);
  ASSERT_TRUE(roomy->cache()->Contains(roomy_result.qid));

  for (size_t budget : {size_t{16}, size - 1}) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    auto tight = BuildRetainEngine(CachePolicy::kRco, budget);
    ASSERT_TRUE(tight->ArchiveAnnotation(5).ok());
    const QueryResult tight_result = RunSql(tight.get(), full_sql);
    ASSERT_FALSE(tight->cache()->Contains(tight_result.qid));
    const uint64_t rejected = tight->cache()->stats().rejected;

    std::vector<std::function<rel::ExprPtr(const rel::Schema&)>> predicates = {
        [](const rel::Schema&) { return rel::ExprPtr(); },
        [](const rel::Schema& schema) {
          return rel::MakeCompare(rel::CompareOp::kEq, Col(schema, "b.id"),
                                  rel::MakeLiteral(I(4)));
        },
        [](const rel::Schema& schema) {
          return rel::MakeCompare(rel::CompareOp::kLt, Col(schema, "b.id"),
                                  rel::MakeLiteral(I(9)));
        },
        [](const rel::Schema& schema) {
          return rel::MakeCompare(rel::CompareOp::kGt, Col(schema, "b.id"),
                                  rel::MakeLiteral(I(1000)));
        },
    };
    size_t answered = 0;
    for (const char* instance : {"NB", "Sim", "Text", "Nope"}) {
      for (size_t component = 0; component < 8; ++component) {
        for (const auto& predicate : predicates) {
          auto request_on = [&](const QueryResult& result) {
            ZoomInRequest request;
            request.qid = result.qid;
            request.instance_name = instance;
            request.component_index = component;
            request.predicate = predicate(result.schema);
            return request;
          };
          const auto want =
              ZoomAnswer(roomy.get(), request_on(roomy_result), /*expect_cached=*/true);
          const auto got =
              ZoomAnswer(tight.get(), request_on(tight_result), /*expect_cached=*/false);
          EXPECT_EQ(got, want) << instance << " component " << component;
          if (!got.empty() && got[0].rfind("error", 0) != 0) ++answered;
        }
      }
    }
    EXPECT_GT(answered, 0u);
    // Every miss re-executed the result, and the cache rejected it again.
    EXPECT_GT(tight->cache()->stats().rejected, rejected);
    EXPECT_EQ(tight->cache()->stats().insertions, 0u);
  }
  // An unknown QID fails the same way on both.
  ZoomInRequest unknown;
  unknown.qid = 999999;
  unknown.instance_name = "NB";
  EXPECT_TRUE(roomy->ZoomIn(unknown).status().IsNotFound());
}

// Results that spill into overflow chains, retained far past the budget:
// evicted records' chains are reused, so the cache's backing file stops
// growing except for the few bytes of each record's in-page stub.
TEST(RetainedResultTest, CacheBackingPagesPlateau) {
  EngineOptions options;
  options.cache_budget_bytes = 64 << 10;
  Engine engine(options);
  ASSERT_TRUE(engine.Init().ok());
  ASSERT_TRUE(
      engine.CreateTable("W", rel::Schema({{"text", rel::ValueType::kString, "W"}})).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine.Insert("W", rel::Tuple({S(std::string(3000, 'a' + i))})).ok());
  }
  uint32_t pages_at_1000 = 0;
  for (int i = 1; i <= 3000; ++i) {
    auto scan = engine.MakeScan("W", "w");
    ASSERT_TRUE(scan.ok());
    auto result = engine.Execute(std::move(*scan));
    ASSERT_TRUE(result.ok());
    if (i == 1) {
      ASSERT_TRUE(engine.cache()->Contains(result->qid));
    }
    if (i == 1000) pages_at_1000 = engine.cache()->backing_pages();
  }
  const CacheStats stats = engine.cache()->stats();
  EXPECT_EQ(stats.insertions, 3000u);
  EXPECT_GT(stats.evictions, 2900u);
  // Each record is ~12 KB (three overflow pages); each Put also leaves a
  // tombstoned stub of under 16 bytes with its slot entry.
  const uint32_t stub_pages = 2000 * 16 / storage::kPageSize + 1;
  EXPECT_LE(engine.cache()->backing_pages() - pages_at_1000, stub_pages)
      << "at 1000 statements: " << pages_at_1000;
}

// Sessions zoom in on an over-budget QID (every zoom-in re-executes it)
// while another session retains small results that force evictions.
TEST(RetainedResultTest, ConcurrentOverBudgetZoomInsAndEvictions) {
  auto probe = BuildRetainEngine(CachePolicy::kRco, 64 << 20);
  size_t largest_row = 0;
  for (size_t id = 0; id < kRetainRows; ++id) {
    largest_row = std::max(
        largest_row,
        ReferenceRecord(RunSql(probe.get(),
                               "SELECT * FROM B b WHERE b.id = " + std::to_string(id),
                               false))
            .size());
  }
  // Room for about three one-row results; the full table never fits.
  auto engine = BuildRetainEngine(CachePolicy::kRco, 3 * largest_row);
  const QueryResult full = RunSql(engine.get(), "SELECT * FROM B b");
  ASSERT_FALSE(engine->cache()->Contains(full.qid));

  auto request_for = [&](int64_t id) {
    ZoomInRequest request;
    request.qid = full.qid;
    request.instance_name = "NB";
    request.component_index = 0;
    request.predicate =
        rel::MakeCompare(rel::CompareOp::kEq, Col(full.schema, "b.id"), rel::MakeLiteral(I(id)));
    return request;
  };
  std::vector<std::vector<std::string>> expected(kRetainRows);
  for (size_t id = 0; id < kRetainRows; ++id) {
    expected[id] = ZoomAnswer(engine.get(), request_for(static_cast<int64_t>(id)), false);
  }

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 40; ++i) {
        const size_t id = (static_cast<size_t>(i) * 7 + t) % kRetainRows;
        auto zoom = engine->ZoomIn(request_for(static_cast<int64_t>(id)));
        if (!zoom.ok() || zoom->served_from_cache || zoom->rows.size() != 1) {
          failures.fetch_add(1);
          continue;
        }
        std::string line = std::to_string(zoom->rows[0].row_index) + " " +
                           zoom->rows[0].tuple.ToString() + " " +
                           zoom->rows[0].component_label + ":";
        for (const ann::Annotation& note : zoom->rows[0].annotations) {
          line += " " + std::to_string(note.id) + (note.archived ? "a" : "") + "/" + note.body;
        }
        if (expected[id] != std::vector<std::string>{line}) mismatches.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&] {
    sql::SqlSession session(engine.get());
    for (int i = 0; i < 60; ++i) {
      auto out = session.Execute("SELECT * FROM B b WHERE b.id = " +
                                 std::to_string(i % kRetainRows));
      if (!out.ok()) failures.fetch_add(1);
    }
  });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  const CacheStats stats = engine->cache()->stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_FALSE(engine->cache()->Contains(full.qid));
}

}  // namespace
}  // namespace insightnotes::core
