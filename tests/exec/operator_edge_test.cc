// Edge-case coverage for the summary-aware operators: duplicate join keys,
// NULL keys, sort stability, string aggregates, empty inputs, expression
// projections — plus the top-k LIMIT pushdown property suite (boundary
// k values, tie groups straddling the cut, the shared TopKBound protocol,
// and the no-ORDER-BY RowQuota with a late-publishing worker), and a
// suite that sends several output batches through every materializing
// operator and LIMIT.

#include <gtest/gtest.h>

#include <algorithm>

#include "exec/aggregate.h"
#include "exec/distinct.h"
#include "exec/filter.h"
#include "exec/hash_join.h"
#include "exec/metrics.h"
#include "exec/parallel.h"
#include "exec/projection.h"
#include "exec/sort.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "testutil.h"

namespace insightnotes::exec {
namespace {

using core::AnnotatedTuple;
using testutil::Col;
using testutil::DrainRows;
using testutil::F;
using testutil::I;
using testutil::S;

class OperatorEdgeTest : public testutil::EngineFixture {
 protected:
  void SetUp() override {
    testutil::EngineFixture::SetUp();
    ASSERT_TRUE(engine_
                    ->CreateTable("L", rel::Schema({{"k", rel::ValueType::kInt64, "L"},
                                                    {"v", rel::ValueType::kString, "L"}}))
                    .ok());
    ASSERT_TRUE(engine_
                    ->CreateTable("R2", rel::Schema({{"k", rel::ValueType::kInt64, "R2"},
                                                     {"w", rel::ValueType::kString, "R2"}}))
                    .ok());
  }

  void Insert(const std::string& table, rel::Tuple tuple) {
    ASSERT_TRUE(engine_->Insert(table, std::move(tuple)).ok());
  }

  std::unique_ptr<Operator> Scan(const std::string& table, const std::string& alias) {
    auto scan = engine_->MakeScan(table, alias);
    EXPECT_TRUE(scan.ok());
    return std::move(*scan);
  }
};

TEST_F(OperatorEdgeTest, HashJoinDuplicateKeysProduceCrossMatches) {
  Insert("L", rel::Tuple({I(1), S("l1")}));
  Insert("L", rel::Tuple({I(1), S("l2")}));
  Insert("R2", rel::Tuple({I(1), S("r1")}));
  Insert("R2", rel::Tuple({I(1), S("r2")}));
  Insert("R2", rel::Tuple({I(2), S("r3")}));
  auto left = Scan("L", "l");
  auto right = Scan("R2", "r");
  auto join = testutil::HashJoin(std::move(left), std::move(right),
                                 rel::MakeColumn(0, "l.k"), rel::MakeColumn(0, "r.k"));
  auto rows = DrainRows(join.get());
  EXPECT_EQ(rows.size(), 4u);  // 2 x 2 on key 1.
}

TEST_F(OperatorEdgeTest, HashJoinNullKeysNeverJoin) {
  Insert("L", rel::Tuple({rel::Value::Null(), S("null-left")}));
  Insert("R2", rel::Tuple({rel::Value::Null(), S("null-right")}));
  Insert("L", rel::Tuple({I(5), S("five")}));
  Insert("R2", rel::Tuple({I(5), S("cinq")}));
  auto join = testutil::HashJoin(Scan("L", "l"), Scan("R2", "r"),
                                 rel::MakeColumn(0, "l.k"), rel::MakeColumn(0, "r.k"));
  auto rows = DrainRows(join.get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].tuple.ValueAt(1).AsString(), "five");
}

TEST_F(OperatorEdgeTest, HashJoinEmptyBuildSide) {
  Insert("L", rel::Tuple({I(1), S("x")}));
  auto join = testutil::HashJoin(Scan("L", "l"), Scan("R2", "r"),
                                 rel::MakeColumn(0, "l.k"), rel::MakeColumn(0, "r.k"));
  EXPECT_TRUE(DrainRows(join.get()).empty());
}

TEST_F(OperatorEdgeTest, SortIsStable) {
  // Equal keys keep insertion order.
  for (int i = 0; i < 5; ++i) {
    Insert("L", rel::Tuple({I(7), S("row" + std::to_string(i))}));
  }
  std::vector<SortKey> keys;
  keys.push_back(SortKey{rel::MakeColumn(0, "k"), true});
  auto sort = std::make_unique<SortOperator>(Scan("L", "l"), std::move(keys));
  auto rows = DrainRows(sort.get());
  ASSERT_EQ(rows.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(rows[i].tuple.ValueAt(1).AsString(), "row" + std::to_string(i));
  }
}

TEST_F(OperatorEdgeTest, SortNullsFirst) {
  Insert("L", rel::Tuple({I(2), S("b")}));
  Insert("L", rel::Tuple({rel::Value::Null(), S("n")}));
  Insert("L", rel::Tuple({I(1), S("a")}));
  std::vector<SortKey> keys;
  keys.push_back(SortKey{rel::MakeColumn(0, "k"), true});
  auto sort = std::make_unique<SortOperator>(Scan("L", "l"), std::move(keys));
  auto rows = DrainRows(sort.get());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_TRUE(rows[0].tuple.ValueAt(0).is_null());
  EXPECT_EQ(rows[1].tuple.ValueAt(0).AsInt64(), 1);
}

TEST_F(OperatorEdgeTest, LimitBeyondInputSize) {
  Insert("L", rel::Tuple({I(1), S("only")}));
  auto limit = std::make_unique<LimitOperator>(Scan("L", "l"), 100);
  EXPECT_EQ(DrainRows(limit.get()).size(), 1u);
}

TEST_F(OperatorEdgeTest, MinMaxOverStrings) {
  Insert("L", rel::Tuple({I(1), S("pear")}));
  Insert("L", rel::Tuple({I(2), S("apple")}));
  Insert("L", rel::Tuple({I(3), S("quince")}));
  std::vector<AggregateItem> aggs;
  aggs.push_back(AggregateItem{AggregateFunction::kMin, rel::MakeColumn(1, "v"), "lo"});
  aggs.push_back(AggregateItem{AggregateFunction::kMax, rel::MakeColumn(1, "v"), "hi"});
  auto agg = std::make_unique<AggregateOperator>(Scan("L", "l"),
                                                 std::vector<rel::ExprPtr>{},
                                                 std::vector<rel::Column>{},
                                                 std::move(aggs));
  auto rows = DrainRows(agg.get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].tuple.ValueAt(0).AsString(), "apple");
  EXPECT_EQ(rows[0].tuple.ValueAt(1).AsString(), "quince");
}

TEST_F(OperatorEdgeTest, AggregateIgnoresNulls) {
  Insert("L", rel::Tuple({I(10), S("a")}));
  Insert("L", rel::Tuple({rel::Value::Null(), S("b")}));
  std::vector<AggregateItem> aggs;
  aggs.push_back(AggregateItem{AggregateFunction::kCount, rel::MakeColumn(0, "k"), "c"});
  aggs.push_back(AggregateItem{AggregateFunction::kSum, rel::MakeColumn(0, "k"), "s"});
  aggs.push_back(AggregateItem{AggregateFunction::kCountStar, nullptr, "n"});
  auto agg = std::make_unique<AggregateOperator>(Scan("L", "l"),
                                                 std::vector<rel::ExprPtr>{},
                                                 std::vector<rel::Column>{},
                                                 std::move(aggs));
  auto rows = DrainRows(agg.get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].tuple.ValueAt(0).AsInt64(), 1);   // COUNT(k) skips NULL.
  EXPECT_EQ(rows[0].tuple.ValueAt(1).AsInt64(), 10);  // SUM skips NULL.
  EXPECT_EQ(rows[0].tuple.ValueAt(2).AsInt64(), 2);   // COUNT(*) does not.
}

TEST_F(OperatorEdgeTest, DistinctOnEmptyInput) {
  auto distinct = std::make_unique<DistinctOperator>(Scan("L", "l"));
  EXPECT_TRUE(DrainRows(distinct.get()).empty());
}

TEST_F(OperatorEdgeTest, DistinctTreatsNullsEqual) {
  Insert("L", rel::Tuple({rel::Value::Null(), S("x")}));
  Insert("L", rel::Tuple({rel::Value::Null(), S("x")}));
  auto distinct = std::make_unique<DistinctOperator>(Scan("L", "l"));
  EXPECT_EQ(DrainRows(distinct.get()).size(), 1u);
}

TEST_F(OperatorEdgeTest, ProjectionWithComputedExpression) {
  Insert("L", rel::Tuple({I(21), S("x")}));
  std::vector<ProjectionItem> items;
  ProjectionItem item;
  item.expr = rel::MakeArithmetic(rel::ArithmeticOp::kMul, rel::MakeColumn(0, "k"),
                                  rel::MakeLiteral(I(2)));
  item.output_name = "doubled";
  items.push_back(std::move(item));
  auto project = std::make_unique<ProjectOperator>(Scan("L", "l"), std::move(items));
  auto rows = DrainRows(project.get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].tuple.ValueAt(0).AsInt64(), 42);
  EXPECT_EQ(project->OutputSchema().ColumnAt(0).name, "doubled");
}

// ---- Top-K LIMIT pushdown properties ----

class TopKPropertyTest : public OperatorEdgeTest {
 protected:
  /// 40 rows in 4 tie groups of 10 on k (0,0,...,1,1,...), v records the
  /// insertion order so stable-tie order is observable byte for byte.
  void FillTieGroups() {
    for (int i = 0; i < 40; ++i) {
      Insert("L", rel::Tuple({I(i / 10), S("row" + std::to_string(i))}));
    }
  }

  std::vector<std::string> RunSql(const std::string& sql_text, size_t parallelism,
                                  size_t morsel_size = 4) {
    auto statement = sql::Parse(sql_text);
    EXPECT_TRUE(statement.ok()) << statement.status().ToString();
    auto* select = std::get_if<sql::SelectStatement>(&*statement);
    EXPECT_NE(select, nullptr);
    sql::PlannerOptions options;
    options.optimize = optimize_;
    options.parallelism = parallelism;
    options.morsel_size = morsel_size;
    auto plan = sql::PlanSelect(*select, engine_.get(), options);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    auto result = engine_->Execute(std::move(*plan));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::vector<std::string> rows;
    if (result.ok()) {
      for (const auto& row : result->rows) rows.push_back(row.tuple.ToString());
    }
    return rows;
  }

  void ExpectSerialParallelEqual(const std::string& sql_text, size_t morsel_size = 4) {
    SCOPED_TRACE(sql_text);
    std::vector<std::string> serial = RunSql(sql_text, 1, morsel_size);
    for (size_t parallelism : {2u, 4u, 8u}) {
      SCOPED_TRACE("parallelism=" + std::to_string(parallelism));
      EXPECT_EQ(serial, RunSql(sql_text, parallelism, morsel_size));
    }
  }

  bool optimize_ = false;  // PlannerOptions::optimize for RunSql.
};

TEST_F(TopKPropertyTest, OrderByLimitBoundaryValues) {
  FillTieGroups();
  // k = 0, 1, n-1, n, and beyond n (n = 40).
  for (int k : {0, 1, 39, 40, 100}) {
    ExpectSerialParallelEqual("SELECT l.k, l.v FROM L l ORDER BY l.k LIMIT " +
                              std::to_string(k));
  }
}

TEST_F(TopKPropertyTest, DuplicateKeysStraddlingTheBoundary) {
  FillTieGroups();
  // LIMIT 15 cuts through the second tie group (rows 10..19 share k = 1):
  // the kept ties must be the first 5 of the group in insertion order.
  std::vector<std::string> rows =
      RunSql("SELECT l.v FROM L l ORDER BY l.k LIMIT 15", 8);
  ASSERT_EQ(rows.size(), 15u);
  for (int i = 0; i < 15; ++i) {
    EXPECT_EQ(rows[i], rel::Tuple({S("row" + std::to_string(i))}).ToString());
  }
  ExpectSerialParallelEqual("SELECT l.v FROM L l ORDER BY l.k LIMIT 15");
  ExpectSerialParallelEqual("SELECT l.v FROM L l ORDER BY l.k DESC LIMIT 15");
}

TEST_F(TopKPropertyTest, LimitUnderDistinctAndAggregation) {
  FillTieGroups();
  // DISTINCT dedups between sort and limit, so the planner must NOT push
  // the limit into the sort; the result must still match serial.
  ExpectSerialParallelEqual("SELECT DISTINCT l.k FROM L l ORDER BY l.k LIMIT 2");
  ExpectSerialParallelEqual("SELECT DISTINCT l.k FROM L l LIMIT 3");
  ExpectSerialParallelEqual(
      "SELECT l.k, COUNT(*) FROM L l GROUP BY l.k ORDER BY l.k LIMIT 2");
  ExpectSerialParallelEqual("SELECT l.k, COUNT(*) FROM L l GROUP BY l.k LIMIT 2");
}

TEST_F(TopKPropertyTest, NoOrderByQuotaTakesSerialPrefix) {
  FillTieGroups();
  // Plain LIMIT: serial semantics are the first k rows in insertion order;
  // the quota-stopped parallel scan must produce exactly those.
  for (int k : {0, 1, 7, 39, 40, 100}) {
    ExpectSerialParallelEqual("SELECT l.k, l.v FROM L l LIMIT " + std::to_string(k));
  }
  std::vector<std::string> rows = RunSql("SELECT l.v FROM L l LIMIT 7", 8);
  ASSERT_EQ(rows.size(), 7u);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(rows[i], rel::Tuple({S("row" + std::to_string(i))}).ToString());
  }
}

TEST_F(TopKPropertyTest, TopKBoundTightensMonotonically) {
  TopKBound bound(2, {true});
  ASSERT_TRUE(bound.Reset().ok());
  uint64_t version = 0;
  SortRunEntry seen;
  EXPECT_FALSE(bound.Refresh(&version, &seen));  // Nothing published yet.

  SortRunEntry first;
  first.keys = {I(5)};
  first.morsel = 0;
  first.pos = 3;
  EXPECT_TRUE(bound.Tighten(first));
  EXPECT_TRUE(bound.Refresh(&version, &seen));
  EXPECT_EQ(seen.keys[0].AsInt64(), 5);
  EXPECT_EQ(seen.pos, 3u);
  EXPECT_FALSE(bound.Refresh(&version, &seen));  // Version unchanged.

  SortRunEntry worse;
  worse.keys = {I(9)};
  EXPECT_FALSE(bound.Tighten(worse));  // Only strict tightening is kept.
  EXPECT_FALSE(bound.Refresh(&version, &seen));

  SortRunEntry tie_better;  // Same key, earlier serial rank: tighter.
  tie_better.keys = {I(5)};
  tie_better.morsel = 0;
  tie_better.pos = 1;
  EXPECT_TRUE(bound.Tighten(tie_better));
  SortRunEntry better;
  better.keys = {I(3)};
  EXPECT_TRUE(bound.Tighten(better));
  EXPECT_TRUE(bound.Refresh(&version, &seen));
  EXPECT_EQ(seen.keys[0].AsInt64(), 3);

  ASSERT_TRUE(bound.Reset().ok());  // Re-execution starts unbounded.
  version = 0;
  EXPECT_FALSE(bound.Refresh(&version, &seen));
}

TEST_F(TopKPropertyTest, RowQuotaWaitsForLatePublisher) {
  RowQuota quota(10);
  ASSERT_TRUE(quota.Reset().ok());
  EXPECT_FALSE(quota.Satisfied());
  // Later morsels complete first: plenty of rows, but the prefix is
  // blocked on morsel 0, still owned by a slow worker.
  quota.OnMorselDone(1, 6);
  quota.OnMorselDone(2, 6);
  quota.OnMorselDone(4, 100);
  EXPECT_FALSE(quota.Satisfied());
  // The late worker publishes morsel 0: prefix = morsels 0..2 with
  // 4 + 6 + 6 >= 10 rows (morsel 4 stays outside the contiguous prefix).
  quota.OnMorselDone(0, 4);
  EXPECT_TRUE(quota.Satisfied());

  RowQuota zero(0);
  ASSERT_TRUE(zero.Reset().ok());
  EXPECT_TRUE(zero.Satisfied());  // LIMIT 0 never dispatches anything.

  ASSERT_TRUE(quota.Reset().ok());
  EXPECT_FALSE(quota.Satisfied());  // Reset rearms the quota.
}

TEST_F(OperatorEdgeTest, FilterTypeErrorSurfaces) {
  Insert("L", rel::Tuple({I(1), S("x")}));
  // Comparing a string column with an int literal is a type error.
  auto filter = std::make_unique<FilterOperator>(
      Scan("L", "l"), rel::MakeCompare(rel::CompareOp::kEq, rel::MakeColumn(1, "v"),
                                       rel::MakeLiteral(I(1))));
  ASSERT_TRUE(filter->Open().ok());
  core::AnnotatedBatch batch;
  auto more = filter->NextBatch(&batch);
  EXPECT_TRUE(more.status().IsTypeError());
}

// ---- Several output batches through materializing operators and LIMIT ----

class BatchBoundaryTest : public TopKPropertyTest {
 protected:
  struct Row {
    int64_t a;
    int64_t b;
    int64_t notes;  // SUMMARY_COUNT(ClassBird1).
  };

  /// R holds the three Figure 2 rows plus kExtraRows more: a unique, b in
  /// 0..6 (ties), c cycling over 350 values, and i % 4 annotations each.
  void SetUp() override {
    TopKPropertyTest::SetUp();
    CreateFigure2Tables();
    CreateFigure2Instances();
    rows_ = {{1, 2, 0}, {2, 2, 0}, {3, 9, 0}};
    for (int64_t i = 0; i < kExtraRows; ++i) {
      auto row = engine_->Insert(
          "R", rel::Tuple({I(100 + i), I(i % 7), S("c" + std::to_string(i % 350)),
                           S("d")}));
      ASSERT_TRUE(row.ok()) << row.status().ToString();
      for (int64_t n = 0; n < i % 4; ++n) {
        ASSERT_TRUE(engine_->Annotate(Spec("R", *row, "note " + std::to_string(n))).ok());
      }
      rows_.push_back({100 + i, i % 7, i % 4});
    }
  }

  /// The `a` column of rows_ after a stable sort by `less`, rendered the way
  /// RunSql renders a one-column result.
  template <typename Less>
  std::vector<std::string> ExpectedOrder(Less less) const {
    std::vector<Row> sorted = rows_;
    std::stable_sort(sorted.begin(), sorted.end(), less);
    std::vector<std::string> out;
    for (const Row& row : sorted) out.push_back(rel::Tuple({I(row.a)}).ToString());
    return out;
  }

  /// Plans `sql_text` with one worker, drains it and returns the root's
  /// rows_out; the root must be the LIMIT.
  uint64_t OneWorkerLimitRowsOut(const std::string& sql_text, size_t morsel_size) {
    auto statement = sql::Parse(sql_text);
    EXPECT_TRUE(statement.ok()) << statement.status().ToString();
    sql::PlannerOptions options;
    options.morsel_size = morsel_size;
    auto plan = sql::PlanSelect(std::get<sql::SelectStatement>(*statement),
                                engine_.get(), options);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    if (!plan.ok()) return 0;
    EXPECT_EQ((*plan)->Name().rfind("Limit(", 0), 0u) << (*plan)->Name();
    DrainRows(plan->get());
    return (*plan)->metrics().rows_out;
  }

  static constexpr int64_t kExtraRows = 700;
  std::vector<Row> rows_;
};

TEST_F(BatchBoundaryTest, OrderByExpressionSummaryCountAndMixedKeys) {
  const size_t n = rows_.size();
  const std::string by_expr = "SELECT r.a FROM R r ORDER BY r.b";
  EXPECT_EQ(RunSql(by_expr, 1),
            ExpectedOrder([](const Row& x, const Row& y) { return x.b < y.b; }));
  ExpectSerialParallelEqual(by_expr);

  const std::string by_summary =
      "SELECT r.a FROM R r ORDER BY SUMMARY_COUNT(ClassBird1) DESC";
  EXPECT_EQ(RunSql(by_summary, 1), ExpectedOrder([](const Row& x, const Row& y) {
              return x.notes > y.notes;
            }));
  ExpectSerialParallelEqual(by_summary);

  const std::string mixed =
      "SELECT r.a FROM R r ORDER BY SUMMARY_COUNT(ClassBird1), r.b DESC, r.a";
  std::vector<std::string> expected = ExpectedOrder([](const Row& x, const Row& y) {
    if (x.notes != y.notes) return x.notes < y.notes;
    if (x.b != y.b) return x.b > y.b;
    return x.a < y.a;
  });
  ASSERT_EQ(expected.size(), n);
  EXPECT_EQ(RunSql(mixed, 1), expected);
  ExpectSerialParallelEqual(mixed);
}

TEST_F(BatchBoundaryTest, DistinctAndGroupByEmitSeveralBatches) {
  const std::string distinct = "SELECT DISTINCT r.c FROM R r";
  std::vector<std::string> values = RunSql(distinct, 1);
  ASSERT_EQ(values.size(), 350u);  // c0..c2 of the Figure 2 rows recur.
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(values[i], rel::Tuple({S("c" + std::to_string(i))}).ToString());
  }
  ExpectSerialParallelEqual(distinct);

  const std::string by_row = "SELECT r.a, COUNT(*) FROM R r GROUP BY r.a";
  std::vector<std::string> groups = RunSql(by_row, 1);
  ASSERT_EQ(groups.size(), rows_.size());
  for (size_t i = 0; i < groups.size(); ++i) {
    EXPECT_EQ(groups[i], rel::Tuple({I(rows_[i].a), I(1)}).ToString());
  }
  ExpectSerialParallelEqual(by_row);
  ExpectSerialParallelEqual(
      "SELECT r.c, COUNT(*), SUM(r.b), MIN(r.a) FROM R r GROUP BY r.c");
}

TEST_F(BatchBoundaryTest, ReorderedJoinRestoresOrderAcrossBatches) {
  // L carries no summary instance and is much larger than R, so the
  // optimizer drives the join from L and builds R instead of building L;
  // every row of R finds its one partner in L.
  for (int64_t i = 0; i < 3000; ++i) {
    Insert("L", rel::Tuple({I(i), S("v" + std::to_string(i))}));
  }
  for (const char* table : {"R", "L"}) {
    ASSERT_TRUE(engine_->Analyze(table).ok());
  }
  optimize_ = true;
  const std::string sql_text = "SELECT r.a, l.v FROM R r, L l WHERE r.a = l.k";
  auto statement = sql::Parse(sql_text);
  ASSERT_TRUE(statement.ok());
  sql::PlannerOptions options;
  options.optimize = true;
  options.morsel_size = 4;
  auto plan = sql::PlanSelect(std::get<sql::SelectStatement>(*statement),
                              engine_.get(), options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::string shape = RenderPlan(plan->get());
  ASSERT_NE(shape.find("RestoreOrder"), std::string::npos) << shape;

  std::vector<std::string> joined = RunSql(sql_text, 1);
  EXPECT_EQ(joined.size(), rows_.size());
  optimize_ = false;
  EXPECT_EQ(joined, RunSql(sql_text, 1));  // The FROM-order plan.
  optimize_ = true;
  ExpectSerialParallelEqual(sql_text);
}

TEST_F(BatchBoundaryTest, LimitTruncatesAtEveryBatchBoundary) {
  const size_t n = rows_.size();
  const std::vector<std::string> by_b =
      ExpectedOrder([](const Row& x, const Row& y) { return x.b < y.b; });
  for (size_t k : {size_t{0}, size_t{1}, size_t{255}, size_t{256}, size_t{257},
                   size_t{512}, n, n + 1}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const std::string limit = " LIMIT " + std::to_string(k);
    const std::string plain = "SELECT r.a FROM R r" + limit;
    const std::string sorted = "SELECT r.a FROM R r ORDER BY r.b" + limit;
    EXPECT_EQ(RunSql(sorted, 1),
              std::vector<std::string>(by_b.begin(), by_b.begin() + std::min(k, n)));
    EXPECT_EQ(RunSql(plain, 1).size(), std::min(k, n));
    // One morsel holds the whole table, so LIMIT cuts inside one scan batch.
    EXPECT_EQ(RunSql(plain, 1, /*morsel_size=*/1024).size(), std::min(k, n));
    ExpectSerialParallelEqual(plain);
    ExpectSerialParallelEqual(sorted);

    EXPECT_EQ(OneWorkerLimitRowsOut(sorted, 4), std::min(k, n));
    EXPECT_EQ(OneWorkerLimitRowsOut(plain, 1024), std::min(k, n));
  }
}

}  // namespace
}  // namespace insightnotes::exec
