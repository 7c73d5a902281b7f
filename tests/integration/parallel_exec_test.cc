// Parallel-execution oracle: morsel-driven plans with several workers
// must produce results BYTE-IDENTICAL to the same plan with one inline
// worker — same tuples in the same order, identical summary renderings (including cluster
// representative election), identical attachment metadata. We run a
// spread of plan shapes (scan / filter / projection / equi hash join /
// summary filter / aggregate / order-by / distinct) at parallelism
// {1, 2, 8} with small morsels and compare full renderings.
//
// The stress tests at the bottom double as the TSAN target for the
// parallel partitioned hash-join build (see .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "sql/session.h"
#include "testutil.h"

namespace insightnotes {
namespace {

using testutil::EngineFixture;
using testutil::I;
using testutil::S;

class ParallelExecTest : public EngineFixture {
 protected:
  void SetUp() override {
    EngineFixture::SetUp();
    CreateFigure2Tables();
    CreateFigure2Instances();
    CreateObservationTables();
  }

  /// obs(id, station, reading, note) with kObsRows rows spread over a few
  /// stations, plus station(sid, name); big enough that a small morsel
  /// size yields many morsels per scan.
  void CreateObservationTables() {
    ASSERT_TRUE(engine_
                    ->CreateTable("obs",
                                  rel::Schema({{"id", rel::ValueType::kInt64, "obs"},
                                               {"station", rel::ValueType::kInt64, "obs"},
                                               {"reading", rel::ValueType::kInt64, "obs"},
                                               {"note", rel::ValueType::kString, "obs"}}))
                    .ok());
    ASSERT_TRUE(engine_
                    ->CreateTable("station",
                                  rel::Schema({{"sid", rel::ValueType::kInt64, "station"},
                                               {"name", rel::ValueType::kString, "station"}}))
                    .ok());
    Random rng(42);
    for (int64_t i = 0; i < kObsRows; ++i) {
      auto row = engine_->Insert(
          "obs", rel::Tuple({I(i), I(i % 7), I(static_cast<int64_t>(rng.Uniform(50))),
                             S("n" + std::to_string(i % 11))}));
      ASSERT_TRUE(row.ok());
    }
    for (int64_t s = 0; s < 7; ++s) {
      ASSERT_TRUE(engine_
                      ->Insert("station",
                               rel::Tuple({I(s), S("st" + std::to_string(s))}))
                      .ok());
    }
    ASSERT_TRUE(engine_->LinkInstance("ClassBird1", "obs").ok());
    ASSERT_TRUE(engine_->LinkInstance("SimCluster", "obs").ok());

    // Annotations on a spread of rows/columns so summaries and attachment
    // trimming are exercised; some shared with `station` so join merges
    // must de-duplicate.
    const std::vector<std::string> bodies = {
        "found eating stonewort near the shore",
        "signs of influenza infection detected",
        "wingspan and body size measured today",
        "why is this measurement so high",
        "general remark about the observation",
    };
    for (int i = 0; i < 90; ++i) {
      rel::RowId row = static_cast<rel::RowId>(rng.Uniform(kObsRows));
      std::vector<size_t> columns;
      if (rng.Bernoulli(0.5)) columns.push_back(rng.Uniform(4));
      auto id =
          engine_->Annotate(Spec("obs", row, bodies[rng.Uniform(bodies.size())], columns));
      ASSERT_TRUE(id.ok());
      if (rng.Bernoulli(0.15)) {
        ASSERT_TRUE(
            engine_->AttachAnnotation(*id, "station", rng.Uniform(7)).ok());
      }
    }
  }

  /// Plans `sql_text` at the given parallelism/morsel size and executes it.
  Result<core::QueryResult> Execute(const std::string& sql_text, size_t parallelism,
                                    size_t morsel_size) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(sql::Statement statement, sql::Parse(sql_text));
    auto* select = std::get_if<sql::SelectStatement>(&statement);
    if (select == nullptr) return Status::InvalidArgument("not a SELECT");
    sql::PlannerOptions options;
    options.parallelism = parallelism;
    options.morsel_size = morsel_size;
    INSIGHTNOTES_ASSIGN_OR_RETURN(auto plan,
                                  sql::PlanSelect(*select, engine_.get(), options));
    return engine_->Execute(std::move(plan));
  }

  /// Plans `sql_text` at the given parallelism/morsel size, executes it,
  /// and renders every row byte-for-byte: data values, summaries in
  /// pipeline order (instance=Render(), so representative election and
  /// component order count), attachments in order.
  std::vector<std::string> Run(const std::string& sql_text, size_t parallelism,
                               size_t morsel_size) {
    auto result = Execute(sql_text, parallelism, morsel_size);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::vector<std::string> rows;
    if (!result.ok()) return rows;
    for (const core::AnnotatedTuple& row : result->rows) {
      std::ostringstream os;
      os << row.tuple.ToString();
      for (const auto& summary : row.summaries) {
        os << " || " << summary->instance_name() << "=" << summary->Render();
      }
      for (const testutil::Att& attachment : testutil::Entries(row.attachments)) {
        os << " [A" << attachment.id << ":";
        for (size_t c : attachment.columns) os << c << ",";
        os << "]";
      }
      rows.push_back(os.str());
    }
    return rows;
  }

  /// Asserts parallel runs at 2 and 8 workers reproduce the serial run
  /// byte-for-byte, across two morsel sizes (one that divides the table
  /// unevenly on purpose).
  void ExpectOracle(const std::string& sql_text) {
    SCOPED_TRACE(sql_text);
    std::vector<std::string> serial = Run(sql_text, 1, 16);
    ASSERT_FALSE(::testing::Test::HasFailure());
    for (size_t parallelism : {2u, 8u}) {
      for (size_t morsel : {16u, 13u}) {
        SCOPED_TRACE("parallelism=" + std::to_string(parallelism) +
                     " morsel=" + std::to_string(morsel));
        EXPECT_EQ(serial, Run(sql_text, parallelism, morsel));
      }
    }
  }

  // Above one morsel (256): smaller driving tables now plan serial even
  // with the parallelism knob raised.
  static constexpr int64_t kObsRows = 300;
};

TEST_F(ParallelExecTest, SeqScanOracle) {
  ExpectOracle("SELECT * FROM obs o");
}

TEST_F(ParallelExecTest, FilterProjectionOracle) {
  ExpectOracle("SELECT o.id, o.reading FROM obs o WHERE o.reading > 20");
}

TEST_F(ParallelExecTest, HashJoinOracle) {
  ExpectOracle(
      "SELECT o.id, o.reading, s.name FROM obs o, station s "
      "WHERE o.station = s.sid");
}

TEST_F(ParallelExecTest, HashJoinWithResidualFilterOracle) {
  ExpectOracle(
      "SELECT o.id, s.name FROM obs o, station s "
      "WHERE o.station = s.sid AND o.reading > 10 AND o.id < 100");
}

TEST_F(ParallelExecTest, SummaryFilterOracle) {
  ExpectOracle("SELECT o.id FROM obs o WHERE SUMMARY_COUNT(ClassBird1) > 0");
}

TEST_F(ParallelExecTest, AggregateOracle) {
  ExpectOracle(
      "SELECT o.station, COUNT(*), SUM(o.reading) FROM obs o "
      "GROUP BY o.station ORDER BY o.station");
}

TEST_F(ParallelExecTest, OrderByLimitOracle) {
  ExpectOracle(
      "SELECT o.id, o.reading FROM obs o ORDER BY o.reading DESC, o.id ASC "
      "LIMIT 25");
}

TEST_F(ParallelExecTest, DistinctOracle) {
  ExpectOracle("SELECT DISTINCT o.note FROM obs o ORDER BY o.note");
}

TEST_F(ParallelExecTest, Figure2JoinOracle) {
  // The original small Figure 2 tables: fewer rows than one morsel, so
  // most workers see no work — results must still match exactly.
  ExpectOracle(
      "SELECT r.a, r.b, s.z FROM R r, S s WHERE r.a = s.x AND r.b = 2");
}

TEST_F(ParallelExecTest, CrossProductRunsAsLiteralKeyHashJoin) {
  // No equi-join conjunct: the section joins on one literal key on both
  // sides, a hash join in which every probe tuple matches every build row.
  std::vector<std::string> serial = Run("SELECT r.a, s.x FROM R r, S s", 1, 16);
  EXPECT_EQ(serial.size(), 9u);
  EXPECT_EQ(serial, Run("SELECT r.a, s.x FROM R r, S s", 8, 16));
  sql::SqlSession session(engine_.get());
  ASSERT_TRUE(session.Execute("SET PARALLELISM = 8").ok());
  auto out = session.Execute("EXPLAIN SELECT r.a, s.x FROM R r, S s");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->message.find("Gather("), std::string::npos) << out->message;
  EXPECT_NE(out->message.find("HashJoinProbe"), std::string::npos) << out->message;
}

TEST_F(ParallelExecTest, SetParallelismKnob) {
  sql::SqlSession session(engine_.get());
  auto out = session.Execute("SET PARALLELISM = 3");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->message, "parallelism = 3");
  EXPECT_EQ(session.parallelism(), 3u);
  // Clamped to >= 1.
  ASSERT_TRUE(session.Execute("SET PARALLELISM = 0").ok());
  EXPECT_EQ(session.parallelism(), 1u);
  EXPECT_FALSE(session.Execute("SET FROBNICATION = 9").ok());
}

TEST_F(ParallelExecTest, SessionQueriesMatchAcrossKnobSettings) {
  sql::SqlSession session(engine_.get());
  const std::string q =
      "SELECT o.id, s.name FROM obs o, station s "
      "WHERE o.station = s.sid AND o.reading > 5";
  ASSERT_TRUE(session.Execute("SET PARALLELISM = 1").ok());
  auto serial = session.Execute(q);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(session.Execute("SET PARALLELISM = 8").ok());
  auto parallel = session.Execute(q);
  ASSERT_TRUE(parallel.ok());
  // Drop the "QID n (..)" header: each execution is assigned a fresh QID.
  auto body = [](const core::QueryResult& result) {
    std::string text = sql::FormatResult(result);
    return text.substr(text.find('\n') + 1);
  };
  EXPECT_EQ(body(serial->result), body(parallel->result));
}

TEST_F(ParallelExecTest, ExplainRendersPlanShape) {
  sql::SqlSession session(engine_.get());
  ASSERT_TRUE(session.Execute("SET PARALLELISM = 4").ok());
  auto out = session.Execute(
      "EXPLAIN SELECT o.id, s.name FROM obs o, station s WHERE o.station = s.sid");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->message.find("Gather"), std::string::npos) << out->message;
  EXPECT_NE(out->message.find("HashJoinProbe"), std::string::npos) << out->message;
}

TEST_F(ParallelExecTest, ExplainAnalyzeReportsCounters) {
  sql::SqlSession session(engine_.get());
  ASSERT_TRUE(session.Execute("SET PARALLELISM = 2").ok());
  auto out = session.Execute(
      "EXPLAIN ANALYZE SELECT o.id FROM obs o WHERE o.reading > 20");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->message.find("rows_out="), std::string::npos) << out->message;
  EXPECT_NE(out->message.find("row(s)"), std::string::npos) << out->message;
}

TEST_F(ParallelExecTest, TracedQueriesStaySerial) {
  // Trace events observe per-operator tuple order; a traced SELECT must
  // plan one inline worker even with the knob raised.
  sql::SqlSession session(engine_.get());
  ASSERT_TRUE(session.Execute("SET PARALLELISM = 8").ok());
  std::vector<core::TraceEvent> trace;
  auto out = session.Execute("SELECT o.id FROM obs o WHERE o.reading > 20", &trace);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_FALSE(trace.empty());
}

// Build rows are shared by every probe worker and carry the build-side
// projection's trim pending until their first match settles them, once.
// Each station row here matches ~43 obs rows (many-to-one) or every probe
// row (cross product) across 4 workers, and its cell notes on `name` are
// trimmed by the projection to `sid`: results must be byte-identical to
// one worker, and no joined row may hold a trimmed note. Repeated under
// TSAN in CI (concurrent first matches of one build row).
TEST_F(ParallelExecTest, SharedBuildRowsSettleOnceAcrossWorkers) {
  ASSERT_TRUE(engine_->LinkInstance("ClassBird1", "station").ok());
  ASSERT_TRUE(engine_->LinkInstance("SimCluster", "station").ok());
  const std::vector<std::string> bodies = {
      "found eating stonewort near the shore",
      "signs of influenza infection detected",
      "wingspan and body size measured today",
  };
  for (rel::RowId sid = 0; sid < 7; ++sid) {
    for (size_t k = 0; k < 3 + sid; ++k) {
      ASSERT_TRUE(
          engine_->Annotate(Spec("station", sid, bodies[k % bodies.size()], {1})).ok());
    }
    ASSERT_TRUE(engine_->Annotate(Spec("station", sid, bodies[sid % 3], {0})).ok());
  }
  for (const std::string q :
       {"SELECT o.id, s.sid FROM obs o, station s WHERE o.station = s.sid",
        "SELECT o.id, s.sid FROM obs o, station s WHERE o.id < 60"}) {
    SCOPED_TRACE(q);
    std::vector<std::string> serial = Run(q, 1, 16);
    ASSERT_FALSE(serial.empty());
    for (int iteration = 0; iteration < 5; ++iteration) {
      EXPECT_EQ(serial, Run(q, 4, 16));
    }
    auto result = Execute(q, 4, 16);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (const core::AnnotatedTuple& row : result->rows) {
      for (const auto& summary : row.summaries) {
        for (size_t c = 0; c < summary->NumComponents(); ++c) {
          auto ids = summary->ZoomIn(c);
          ASSERT_TRUE(ids.ok()) << ids.status().ToString();
          for (ann::AnnotationId id : *ids) {
            const std::vector<testutil::Att> attachments = testutil::Entries(row.attachments);
            EXPECT_TRUE(std::any_of(attachments.begin(), attachments.end(),
                                    [id](const testutil::Att& a) { return a.id == id; }))
                << summary->instance_name() << " kept trimmed note " << id;
          }
        }
      }
    }
  }
}

// TSAN target: hammer the parallel partitioned hash-join build and the
// worker pipelines from repeated executions so data races in the shared
// morsel cursor, partition build, or gather surface under
// ThreadSanitizer.
TEST_F(ParallelExecTest, StressParallelJoinRepeatedExecution) {
  const std::string q =
      "SELECT o.id, o.reading, s.name FROM obs o, station s "
      "WHERE o.station = s.sid AND o.reading > 3";
  std::vector<std::string> serial = Run(q, 1, 8);
  for (int iteration = 0; iteration < 10; ++iteration) {
    SCOPED_TRACE(iteration);
    EXPECT_EQ(serial, Run(q, 8, 8));
  }
}

}  // namespace
}  // namespace insightnotes
