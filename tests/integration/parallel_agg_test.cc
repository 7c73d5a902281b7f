// Parallel aggregation / sort / distinct oracle: the partial-state plan
// shapes (PartialAggregate+AggregateMerge, PartialSort+SortMerge,
// PartialDistinct+DistinctMerge) must produce results BYTE-IDENTICAL at
// every worker count to the one-worker plan — same tuples in the same
// order, identical merged summary objects (shared annotations counted
// once, cluster representative election included), identical attachment
// metadata, and bit-identical float SUM/AVG results (the merge replays
// recorded terms in morsel order). Runs at parallelism {1, 2, 8} with
// morsel sizes that divide the table unevenly on purpose.
//
// The merge operators finish their final groups as jobs on the section's
// pool; hand-built partial + merge operators over scripted morsels make a
// fold fail in a chosen group and a cancellation land mid-finish.
//
// The stress tests at the bottom double as the TSAN targets for the
// partial-aggregation publish/merge protocol and the pooled finish (see
// .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "exec/aggregate.h"
#include "exec/distinct.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "sql/session.h"
#include "testutil.h"

namespace insightnotes {
namespace {

using testutil::EngineFixture;
using testutil::F;
using testutil::I;
using testutil::S;

class ParallelAggTest : public EngineFixture {
 protected:
  void SetUp() override {
    EngineFixture::SetUp();
    CreateFigure2Tables();
    CreateFigure2Instances();
    CreateObservationTable();
  }

  /// obs(id, station, reading, temp, note): kObsRows rows over a few
  /// stations, with a float column whose per-group sums exercise the
  /// non-associative double addition, plus heavy annotation coverage so
  /// group/distinct merges fold real summary objects.
  void CreateObservationTable() {
    ASSERT_TRUE(engine_
                    ->CreateTable("obs",
                                  rel::Schema({{"id", rel::ValueType::kInt64, "obs"},
                                               {"station", rel::ValueType::kInt64, "obs"},
                                               {"reading", rel::ValueType::kInt64, "obs"},
                                               {"temp", rel::ValueType::kFloat64, "obs"},
                                               {"note", rel::ValueType::kString, "obs"}}))
                    .ok());
    Random rng(7);
    for (int64_t i = 0; i < kObsRows; ++i) {
      // Irrational-ish temps: float addition order visibly matters.
      double temp = 0.1 + static_cast<double>(rng.Uniform(1000)) / 7.0;
      auto row = engine_->Insert(
          "obs",
          rel::Tuple({I(i), I(i % 5), I(static_cast<int64_t>(rng.Uniform(40))),
                      F(temp), S("n" + std::to_string(i % 9))}));
      ASSERT_TRUE(row.ok());
    }
    ASSERT_TRUE(engine_->LinkInstance("ClassBird1", "obs").ok());
    ASSERT_TRUE(engine_->LinkInstance("SimCluster", "obs").ok());

    const std::vector<std::string> bodies = {
        "found eating stonewort near the shore",
        "signs of influenza infection detected",
        "wingspan and body size measured today",
        "why is this measurement so high",
        "general remark about the observation",
    };
    for (int i = 0; i < 80; ++i) {
      rel::RowId row = static_cast<rel::RowId>(rng.Uniform(kObsRows));
      std::vector<size_t> columns;
      if (rng.Bernoulli(0.5)) columns.push_back(rng.Uniform(5));
      auto id = engine_->Annotate(
          Spec("obs", row, bodies[rng.Uniform(bodies.size())], columns));
      ASSERT_TRUE(id.ok());
      // Shared annotations: the same annotation on several rows, so group
      // and distinct merges must count it once.
      if (rng.Bernoulli(0.3)) {
        ASSERT_TRUE(engine_
                        ->AttachAnnotation(*id, "obs",
                                           static_cast<rel::RowId>(rng.Uniform(kObsRows)))
                        .ok());
      }
    }
  }

  core::QueryResult Execute(const std::string& sql_text, size_t parallelism,
                            size_t morsel_size) {
    auto statement = sql::Parse(sql_text);
    EXPECT_TRUE(statement.ok()) << statement.status().ToString();
    auto* select = std::get_if<sql::SelectStatement>(&*statement);
    EXPECT_NE(select, nullptr);
    sql::PlannerOptions options;
    options.parallelism = parallelism;
    options.morsel_size = morsel_size;
    auto plan = sql::PlanSelect(*select, engine_.get(), options);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    auto result = engine_->Execute(std::move(*plan));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(*result) : core::QueryResult{};
  }

  /// Full byte-for-byte rendering: data values, summaries in pipeline
  /// order (Render() covers component order and representative election),
  /// attachments in order.
  std::vector<std::string> Run(const std::string& sql_text, size_t parallelism,
                               size_t morsel_size) {
    core::QueryResult result = Execute(sql_text, parallelism, morsel_size);
    std::vector<std::string> rows;
    for (const core::AnnotatedTuple& row : result.rows) {
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

  /// Every value of `tuple`, floats as their bit patterns.
  static std::string Bits(const rel::Tuple& tuple) {
    std::string out;
    for (size_t i = 0; i < tuple.NumValues(); ++i) {
      const rel::Value& v = tuple.ValueAt(i);
      if (v.type() == rel::ValueType::kFloat64) {
        char hex[24];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(std::bit_cast<uint64_t>(v.AsFloat64())));
        out += hex;
      } else {
        out += v.ToString();
      }
      out += "|";
    }
    return out;
  }

  /// ExpectOracle at parallelism 2, 4 and 8, and the raw tuples (float
  /// SUM/AVG bits included) equal to the serial plan's.
  void ExpectOracleAtEveryP(const std::string& sql_text) {
    SCOPED_TRACE(sql_text);
    const std::vector<std::string> serial = Run(sql_text, 1, 16);
    core::QueryResult serial_rows = Execute(sql_text, 1, 16);
    ASSERT_FALSE(::testing::Test::HasFailure());
    for (size_t parallelism : {2u, 4u, 8u}) {
      for (size_t morsel : {16u, 13u}) {
        SCOPED_TRACE("parallelism=" + std::to_string(parallelism) +
                     " morsel=" + std::to_string(morsel));
        EXPECT_EQ(serial, Run(sql_text, parallelism, morsel));
        core::QueryResult parallel = Execute(sql_text, parallelism, morsel);
        ASSERT_EQ(serial_rows.rows.size(), parallel.rows.size());
        for (size_t i = 0; i < serial_rows.rows.size(); ++i) {
          EXPECT_EQ(Bits(serial_rows.rows[i].tuple), Bits(parallel.rows[i].tuple))
              << "row " << i;
        }
      }
    }
  }

  static constexpr int64_t kObsRows = 300;
};

/// Emits `morsels` scripted batches, each tagged with its morsel index:
/// stands in for a worker pipeline under a hand-built partial operator,
/// or (with no morsels) for a drained gather under a merge operator.
class ScriptedMorsels final : public exec::Operator {
 public:
  using Fill = std::function<void(uint64_t morsel, std::vector<core::AnnotatedTuple>*)>;

  ScriptedMorsels(rel::Schema schema, uint64_t morsels, Fill fill)
      : schema_(std::move(schema)), morsels_(morsels), fill_(std::move(fill)) {}

  const rel::Schema& OutputSchema() const override { return schema_; }
  std::string Name() const override { return "ScriptedMorsels"; }

 protected:
  Status OpenImpl() override {
    next_ = 0;
    return Status::OK();
  }
  Result<bool> NextBatchImpl(core::AnnotatedBatch* out) override {
    if (next_ == morsels_) return false;
    out->morsel = next_;
    fill_(next_++, &out->tuples);
    return true;
  }

 private:
  rel::Schema schema_;
  uint64_t morsels_;
  Fill fill_;
  uint64_t next_ = 0;
};

/// `MIN(v), COUNT(*) ... GROUP BY k` and `DISTINCT` over scripted morsels
/// of (k, v) rows, run as partial + merge operators whose groups finish on
/// a pool.
class PooledFinishTest : public EngineFixture {
 protected:
  static rel::Schema KV() {
    return rel::Schema({{"k", rel::ValueType::kInt64, "t"},
                        {"v", rel::ValueType::kInt64, "t"}});
  }
  static std::vector<rel::ExprPtr> GroupExprs() {
    std::vector<rel::ExprPtr> exprs;
    exprs.push_back(testutil::Col(KV(), "k"));
    return exprs;
  }
  static std::vector<exec::AggregateItem> Items() {
    std::vector<exec::AggregateItem> items(2);
    items[0] = {exec::AggregateFunction::kMin, testutil::Col(KV(), "v"), "min_v"};
    items[1] = {exec::AggregateFunction::kCountStar, nullptr, "cnt"};
    return items;
  }

  /// Opens and drains `op`: its rows, or the first error.
  static Result<std::vector<core::AnnotatedTuple>> Drain(exec::Operator* op) {
    INSIGHTNOTES_RETURN_IF_ERROR(op->Open());
    std::vector<core::AnnotatedTuple> rows;
    core::AnnotatedBatch batch;
    while (true) {
      INSIGHTNOTES_ASSIGN_OR_RETURN(bool more, op->NextBatch(&batch));
      if (!more) break;
      for (core::AnnotatedTuple& tuple : batch.tuples) rows.push_back(std::move(tuple));
    }
    return rows;
  }

  /// The pool a plan of `parallelism` workers finishes on (none for one).
  ThreadPool* Pool(size_t parallelism) {
    return parallelism > 1 ? engine_->ExecPool(parallelism) : nullptr;
  }

  /// Partial aggregation of every morsel, then the merge on
  /// Pool(parallelism) under `context` (nullable).
  Result<std::vector<core::AnnotatedTuple>> MergedAggregate(
      uint64_t morsels, const ScriptedMorsels::Fill& fill, size_t parallelism,
      std::shared_ptr<exec::QueryContext> context = nullptr) {
    auto sink = std::make_shared<exec::PartialSink<exec::AggregatePartial>>();
    exec::PartialAggregateOperator partial(
        std::make_unique<ScriptedMorsels>(KV(), morsels, fill), GroupExprs(), Items(),
        sink);
    INSIGHTNOTES_RETURN_IF_ERROR(Drain(&partial).status());
    exec::AggregateMergeOperator merge(std::make_unique<ScriptedMorsels>(KV(), 0, fill),
                                       GroupExprs(), {}, Items(), sink,
                                       Pool(parallelism));
    if (context != nullptr) merge.SetQueryContext(context);
    return Drain(&merge);
  }

  Result<std::vector<core::AnnotatedTuple>> MergedDistinct(
      uint64_t morsels, const ScriptedMorsels::Fill& fill, size_t parallelism) {
    auto sink = std::make_shared<exec::PartialSink<exec::DistinctPartial>>();
    exec::PartialDistinctOperator partial(
        std::make_unique<ScriptedMorsels>(KV(), morsels, fill), sink);
    INSIGHTNOTES_RETURN_IF_ERROR(Drain(&partial).status());
    exec::DistinctMergeOperator merge(std::make_unique<ScriptedMorsels>(KV(), 0, fill),
                                      sink, Pool(parallelism));
    return Drain(&merge);
  }

  static core::AnnotatedTuple Row(int64_t k, rel::Value v) {
    return core::AnnotatedTuple(rel::Tuple({I(k), std::move(v)}));
  }
};

TEST_F(ParallelAggTest, GroupByAllAggregatesOracle) {
  ExpectOracle(
      "SELECT o.station, COUNT(*), COUNT(o.reading), SUM(o.reading), "
      "MIN(o.reading), MAX(o.reading), AVG(o.reading) "
      "FROM obs o GROUP BY o.station ORDER BY o.station");
}

TEST_F(ParallelAggTest, GroupByWithoutOrderByOracle) {
  // No ORDER BY: group emission order is first-seen order, which the
  // morsel-ordered merge must reproduce exactly.
  ExpectOracle("SELECT o.note, COUNT(*) FROM obs o GROUP BY o.note");
}

TEST_F(ParallelAggTest, GroupSummariesAndRepresentativesOracle) {
  // Groups collapse many annotated tuples; merged classifier counts and
  // cluster representative election must match the serial fold.
  ExpectOracle(
      "SELECT o.station, COUNT(*) FROM obs o GROUP BY o.station "
      "ORDER BY o.station");
  ExpectOracle("SELECT o.note, SUM(o.reading) FROM obs o GROUP BY o.note");
}

TEST_F(ParallelAggTest, MinMaxOverStringsOracle) {
  ExpectOracle(
      "SELECT o.station, MIN(o.note), MAX(o.note) FROM obs o "
      "GROUP BY o.station ORDER BY o.station");
}

TEST_F(ParallelAggTest, GlobalAggregateOracle) {
  ExpectOracle(
      "SELECT COUNT(*), SUM(o.reading), MIN(o.note), MAX(o.temp) FROM obs o");
}

TEST_F(ParallelAggTest, EmptyInputOracle) {
  // Global aggregate over empty input still emits one zero-count row;
  // grouped aggregate emits none. Both must match serial exactly.
  ExpectOracle("SELECT COUNT(*), SUM(o.reading) FROM obs o WHERE o.id < 0");
  ExpectOracle(
      "SELECT o.station, COUNT(*) FROM obs o WHERE o.id < 0 GROUP BY o.station");
  ExpectOracle("SELECT o.id FROM obs o WHERE o.id < 0 ORDER BY o.id");
  ExpectOracle("SELECT DISTINCT o.note FROM obs o WHERE o.id < 0");
}

TEST_F(ParallelAggTest, FloatSumBitIdentical) {
  // Rendering rounds doubles; compare the raw tuples so SUM/AVG over the
  // float column must reproduce the serial result bit for bit (the merge
  // replays the recorded terms in morsel order).
  const std::string q =
      "SELECT o.station, SUM(o.temp), AVG(o.temp) FROM obs o "
      "GROUP BY o.station ORDER BY o.station";
  core::QueryResult serial = Execute(q, 1, 16);
  ASSERT_FALSE(::testing::Test::HasFailure());
  for (size_t parallelism : {2u, 8u}) {
    for (size_t morsel : {16u, 13u}) {
      SCOPED_TRACE("parallelism=" + std::to_string(parallelism) +
                   " morsel=" + std::to_string(morsel));
      core::QueryResult parallel = Execute(q, parallelism, morsel);
      ASSERT_EQ(serial.rows.size(), parallel.rows.size());
      for (size_t i = 0; i < serial.rows.size(); ++i) {
        EXPECT_TRUE(serial.rows[i].tuple == parallel.rows[i].tuple)
            << "row " << i << ": " << serial.rows[i].tuple.ToString() << " vs "
            << parallel.rows[i].tuple.ToString();
      }
    }
  }
}

TEST_F(ParallelAggTest, AggregateOutputSchemaTypes) {
  // Aggregate result columns carry real types inferred from the argument
  // expression instead of degrading to NULL.
  auto statement = sql::Parse(
      "SELECT o.station, COUNT(*), SUM(o.reading), SUM(o.temp), AVG(o.reading), "
      "MIN(o.note) FROM obs o GROUP BY o.station");
  ASSERT_TRUE(statement.ok());
  auto* select = std::get_if<sql::SelectStatement>(&*statement);
  ASSERT_NE(select, nullptr);
  for (size_t parallelism : {1u, 4u}) {
    SCOPED_TRACE(parallelism);
    sql::PlannerOptions options;
    options.parallelism = parallelism;
    auto plan = sql::PlanSelect(*select, engine_.get(), options);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const rel::Schema& schema = (*plan)->OutputSchema();
    ASSERT_EQ(schema.NumColumns(), 6u);
    EXPECT_EQ(schema.ColumnAt(0).type, rel::ValueType::kInt64);    // station
    EXPECT_EQ(schema.ColumnAt(1).type, rel::ValueType::kInt64);    // COUNT(*)
    EXPECT_EQ(schema.ColumnAt(2).type, rel::ValueType::kInt64);    // SUM(int)
    EXPECT_EQ(schema.ColumnAt(3).type, rel::ValueType::kFloat64);  // SUM(float)
    EXPECT_EQ(schema.ColumnAt(4).type, rel::ValueType::kFloat64);  // AVG
    EXPECT_EQ(schema.ColumnAt(5).type, rel::ValueType::kString);   // MIN(text)
  }
}

TEST_F(ParallelAggTest, OrderByMultiKeyOracle) {
  // Many reading/note ties: the k-way merge must reproduce the serial
  // stable-sort tie order (input order) exactly.
  ExpectOracle(
      "SELECT o.id, o.reading, o.note FROM obs o "
      "ORDER BY o.reading DESC, o.note ASC");
  ExpectOracle("SELECT o.id, o.station FROM obs o ORDER BY o.station");
}

TEST_F(ParallelAggTest, OrderBySummaryCountOracle) {
  // SUMMARY_COUNT keys interleave with expression keys inside one run
  // comparator.
  ExpectOracle(
      "SELECT o.id FROM obs o "
      "ORDER BY SUMMARY_COUNT(ClassBird1) DESC, o.id ASC");
}

TEST_F(ParallelAggTest, OrderByWithFilterAndLimitOracle) {
  ExpectOracle(
      "SELECT o.id, o.reading FROM obs o WHERE o.reading > 10 "
      "ORDER BY o.reading ASC, o.id DESC LIMIT 20");
}

TEST_F(ParallelAggTest, DistinctOracle) {
  // No ORDER BY: distinct emission order is global first-seen order, which
  // the morsel-ordered fold must reproduce; merged summaries ride along.
  ExpectOracle("SELECT DISTINCT o.note FROM obs o");
  ExpectOracle("SELECT DISTINCT o.station, o.note FROM obs o");
}

TEST_F(ParallelAggTest, ExplainShowsPartialPlanShapes) {
  sql::SqlSession session(engine_.get());
  ASSERT_TRUE(session.Execute("SET PARALLELISM = 4").ok());
  auto agg = session.Execute(
      "EXPLAIN SELECT o.station, COUNT(*) FROM obs o GROUP BY o.station");
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  EXPECT_NE(agg->message.find("AggregateMerge"), std::string::npos) << agg->message;
  EXPECT_NE(agg->message.find("PartialAggregate"), std::string::npos) << agg->message;
  EXPECT_NE(agg->message.find("Gather"), std::string::npos) << agg->message;

  auto sort = session.Execute("EXPLAIN SELECT o.id FROM obs o ORDER BY o.id");
  ASSERT_TRUE(sort.ok()) << sort.status().ToString();
  EXPECT_NE(sort->message.find("SortMerge"), std::string::npos) << sort->message;
  EXPECT_NE(sort->message.find("PartialSort"), std::string::npos) << sort->message;

  auto distinct = session.Execute("EXPLAIN SELECT DISTINCT o.note FROM obs o");
  ASSERT_TRUE(distinct.ok()) << distinct.status().ToString();
  EXPECT_NE(distinct->message.find("DistinctMerge"), std::string::npos)
      << distinct->message;
  EXPECT_NE(distinct->message.find("PartialDistinct"), std::string::npos)
      << distinct->message;
}

TEST_F(ParallelAggTest, ExplainAnalyzeReportsPartialMetrics) {
  sql::SqlSession session(engine_.get());
  ASSERT_TRUE(session.Execute("SET PARALLELISM = 2").ok());
  auto out = session.Execute(
      "EXPLAIN ANALYZE SELECT o.station, COUNT(*), SUM(o.reading) FROM obs o "
      "GROUP BY o.station");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->message.find("partial_groups="), std::string::npos) << out->message;
  EXPECT_NE(out->message.find("AggregateMerge"), std::string::npos) << out->message;
}

TEST_F(ParallelAggTest, OneDominantGroupAmongManyOracle) {
  // o.id / 280 * o.id: group 0 holds 280 of the 300 rows, and the last 20
  // rows are one group each, so there are more groups than workers. (The
  // select list names no group expression: only columns bind above it.)
  ExpectOracleAtEveryP(
      "SELECT COUNT(*), SUM(o.temp), AVG(o.temp), MIN(o.note), MAX(o.reading) "
      "FROM obs o GROUP BY o.id / 280 * o.id");
  ExpectOracleAtEveryP(
      "SELECT o.id, COUNT(*), SUM(o.temp) FROM obs o GROUP BY o.id");
  ExpectOracleAtEveryP("SELECT DISTINCT o.id / 280 * o.id FROM obs o");
  ExpectOracleAtEveryP("SELECT DISTINCT o.reading, o.station FROM obs o");
}

TEST_F(PooledFinishTest, FoldFailureReportsFirstFailingGroupAtEveryP) {
  // 16 groups over 400 morsels, one row per group per morsel, so every
  // fold happens in the merge. Groups 0, 9 and 11 hold strings with a long
  // shared prefix, so their folds are slow and the pool's claimers hold
  // several groups at once. Group 9 fails folding its last morsel (INT64
  // against STRING); group 11, twice as slow, fails after it on the clock
  // (DOUBLE against STRING). The merge must report group 9's error at
  // every P: the first failing group in output order, not the last failure
  // on the clock.
  constexpr uint64_t kMorsels = 400;
  const std::string prefix(16384, 'p');
  const ScriptedMorsels::Fill fill = [&](uint64_t morsel,
                                         std::vector<core::AnnotatedTuple>* rows) {
    const bool last = morsel + 1 == kMorsels;
    const std::string tail = std::to_string(kMorsels - morsel);
    for (int64_t k = 0; k < 16; ++k) {
      rel::Value v = I(static_cast<int64_t>(morsel) * 100 + k);
      if (k == 0) v = S(prefix + tail);
      if (k == 9) v = last ? I(9) : S(prefix + tail);
      if (k == 11) v = last ? F(11.0) : S(prefix + prefix + tail);
      rows->push_back(Row(k, std::move(v)));
    }
  };
  for (size_t parallelism : {1u, 2u, 4u, 8u}) {
    for (int repeat = 0; repeat < 5; ++repeat) {
      SCOPED_TRACE("parallelism=" + std::to_string(parallelism));
      auto merged = MergedAggregate(kMorsels, fill, parallelism);
      ASSERT_FALSE(merged.ok());
      EXPECT_EQ(merged.status().ToString(),
                "type error: cannot compare BIGINT with TEXT");
    }
  }
}

TEST_F(PooledFinishTest, DistinctFoldFailureReportsFirstFailingValueAtEveryP) {
  // Values 5 and 30 each carry, in a later morsel, an object of a second
  // instance under the first one's name: merging the two fails
  // (InvalidArgument naming the instances).
  auto x1 = core::SummaryInstance::MakeClassifier("X", {"a"});
  auto x2 = core::SummaryInstance::MakeClassifier("X", {"a"});
  auto y1 = core::SummaryInstance::MakeClassifier("Y", {"a"});
  auto y2 = core::SummaryInstance::MakeClassifier("Y", {"a"});
  const ScriptedMorsels::Fill fill = [&](uint64_t morsel,
                                         std::vector<core::AnnotatedTuple>* rows) {
    for (int64_t k = 0; k < 48; ++k) {
      core::AnnotatedTuple row = Row(k, I(k));
      const bool odd_x = k == 5 && morsel == 1;
      const bool odd_y = k == 30 && morsel == 2;
      row.summaries.push_back(odd_x ? x2->NewObject() : x1->NewObject());
      row.summaries.push_back(odd_y ? y2->NewObject() : y1->NewObject());
      rows->push_back(std::move(row));
    }
  };
  for (size_t parallelism : {1u, 2u, 4u, 8u}) {
    for (int repeat = 0; repeat < 5; ++repeat) {
      SCOPED_TRACE("parallelism=" + std::to_string(parallelism));
      auto merged = MergedDistinct(3, fill, parallelism);
      ASSERT_FALSE(merged.ok());
      EXPECT_EQ(
          merged.status().ToString(),
          "invalid argument: cannot merge summary objects of instances 'X' and 'X'");
    }
  }
}

TEST_F(PooledFinishTest, CancellationDuringFinishUnwinds) {
  // 2000 groups over 2 morsels; cancellation trips at the 500th interrupt
  // check, which lands among the per-group polls of the finish.
  const ScriptedMorsels::Fill fill = [](uint64_t morsel,
                                        std::vector<core::AnnotatedTuple>* rows) {
    for (int64_t k = 0; k < 2000; ++k) {
      rows->push_back(Row(k, I(static_cast<int64_t>(morsel) * 7 + k)));
    }
  };
  for (size_t parallelism : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("parallelism=" + std::to_string(parallelism));
    auto context = std::make_shared<exec::QueryContext>();
    context->BeginStatement(0, 0);
    context->CancelAtCheck(500);
    auto cancelled = MergedAggregate(2, fill, parallelism, context);
    ASSERT_FALSE(cancelled.ok());
    EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled)
        << cancelled.status().ToString();
    // The merge returned: no job of it is still running. Every claimer
    // stopped within one group of the trip.
    EXPECT_LE(context->cancel_checks(), 500u + parallelism);
    if (ThreadPool* pool = Pool(parallelism)) pool->WaitIdle();
    // The next statement on the same context finishes every group.
    context->CancelAtCheck(0);
    context->BeginStatement(0, 0);
    auto rerun = MergedAggregate(2, fill, parallelism, context);
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    // Group k: MIN(v) = k (morsel 0's row), COUNT(*) = 2.
    ASSERT_EQ(rerun->size(), 2000u);
    for (int64_t k = 0; k < 2000; ++k) {
      EXPECT_TRUE((*rerun)[k].tuple == rel::Tuple({I(k), I(k), I(2)})) << "row " << k;
    }
  }
}

// TSAN target: many small groups finished by up to eight claimers at once,
// for both merge operators, each compared with the serial result.
TEST_F(ParallelAggTest, StressPooledFinishManyGroups) {
  const std::string agg =
      "SELECT o.id, COUNT(*), SUM(o.temp), MIN(o.note) FROM obs o GROUP BY o.id";
  const std::string skewed =
      "SELECT COUNT(*), SUM(o.temp) FROM obs o GROUP BY o.id / 280 * o.id";
  const std::string distinct = "SELECT DISTINCT o.reading, o.station FROM obs o";
  const std::vector<std::string> agg_serial = Run(agg, 1, 8);
  const std::vector<std::string> skewed_serial = Run(skewed, 1, 8);
  const std::vector<std::string> distinct_serial = Run(distinct, 1, 8);
  for (int iteration = 0; iteration < 6; ++iteration) {
    SCOPED_TRACE(iteration);
    for (size_t parallelism : {2u, 8u}) {
      EXPECT_EQ(agg_serial, Run(agg, parallelism, 8));
      EXPECT_EQ(skewed_serial, Run(skewed, parallelism, 8));
      EXPECT_EQ(distinct_serial, Run(distinct, parallelism, 8));
    }
  }
}

// TSAN target: hammer the partial-state publish/merge protocol (aggregate,
// distinct, and sort runs) from repeated 8-worker executions so races in
// the shared sinks or the gather handoff surface under ThreadSanitizer.
TEST_F(ParallelAggTest, StressParallelAggregateRepeatedExecution) {
  const std::string agg =
      "SELECT o.station, COUNT(*), SUM(o.temp) FROM obs o GROUP BY o.station";
  const std::string sort = "SELECT o.id FROM obs o ORDER BY o.reading DESC, o.id";
  const std::string distinct = "SELECT DISTINCT o.note FROM obs o";
  std::vector<std::string> agg_serial = Run(agg, 1, 8);
  std::vector<std::string> sort_serial = Run(sort, 1, 8);
  std::vector<std::string> distinct_serial = Run(distinct, 1, 8);
  for (int iteration = 0; iteration < 8; ++iteration) {
    SCOPED_TRACE(iteration);
    EXPECT_EQ(agg_serial, Run(agg, 8, 8));
    EXPECT_EQ(sort_serial, Run(sort, 8, 8));
    EXPECT_EQ(distinct_serial, Run(distinct, 8, 8));
  }
}

}  // namespace
}  // namespace insightnotes
