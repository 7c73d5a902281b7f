// Planner tests: plan shape (projection push-down, join selection) and
// end-to-end correctness of planner-produced trees for query forms not
// covered by the session tests.

#include "sql/planner.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "exec/metrics.h"
#include "sql/parser.h"
#include "sql/session.h"
#include "testutil.h"

namespace insightnotes::sql {
namespace {

class PlannerTest : public testutil::EngineFixture {
 protected:
  void SetUp() override {
    testutil::EngineFixture::SetUp();
    CreateFigure2Tables();
    CreateFigure2Instances();
  }

  std::unique_ptr<exec::Operator> PlanOf(const std::string& sql,
                                         bool normalize = true) {
    auto statement = Parse(sql);
    EXPECT_TRUE(statement.ok()) << statement.status().ToString();
    PlannerOptions options;
    options.project_before_merge = normalize;
    auto plan = PlanSelect(std::get<SelectStatement>(*statement), engine_.get(),
                           options);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? std::move(*plan) : nullptr;
  }

  std::vector<core::AnnotatedTuple> Run(const std::string& sql,
                                        bool normalize = true) {
    auto plan = PlanOf(sql, normalize);
    EXPECT_NE(plan, nullptr);
    if (plan == nullptr) return {};
    return testutil::DrainRows(engine_.get(), plan.get());
  }
};

TEST_F(PlannerTest, OutputSchemaNamesFollowSelectList) {
  auto plan = PlanOf("SELECT r.a, r.c FROM R r");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->OutputSchema().ToString(), "(r.a BIGINT, r.c TEXT)");
}

TEST_F(PlannerTest, AliasRenamesOutput) {
  auto plan = PlanOf("SELECT r.a AS alpha FROM R r");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->OutputSchema().ColumnAt(0).name, "alpha");
}

TEST_F(PlannerTest, StarExpandsAllTables) {
  auto plan = PlanOf("SELECT * FROM R r, S s WHERE r.a = s.x");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->OutputSchema().NumColumns(), 7u);
}

TEST_F(PlannerTest, EquiJoinUsesHashJoin) {
  auto plan = PlanOf("SELECT r.a, s.z FROM R r, S s WHERE r.a = s.x");
  ASSERT_NE(plan, nullptr);
  // Root is the final projection; its child is the join. We can only check
  // the root's name, so execute and validate results instead.
  auto rows = Run("SELECT r.a, s.z FROM R r, S s WHERE r.a = s.x");
  EXPECT_EQ(rows.size(), 2u);  // Matches on 1 and 3.
}

TEST_F(PlannerTest, ReversedJoinPredicateStillPlans) {
  auto rows = Run("SELECT r.a, s.z FROM R r, S s WHERE s.x = r.a");
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(PlannerTest, NonEquiJoinFallsBackToCross) {
  auto rows = Run("SELECT r.a, s.x FROM R r, S s WHERE r.a < s.x");
  // Pairs where a < x: a=1 with x={3,4}, a=2 with x={3,4}, a=3 with x=4.
  EXPECT_EQ(rows.size(), 5u);
}

TEST_F(PlannerTest, ThreeWayJoin) {
  ASSERT_TRUE(engine_
                  ->CreateTable("T", rel::Schema({{"k", rel::ValueType::kInt64, "T"},
                                                  {"v", rel::ValueType::kString, "T"}}))
                  .ok());
  ASSERT_TRUE(engine_->Insert("T", rel::Tuple({testutil::I(1), testutil::S("v1")})).ok());
  auto rows = Run(
      "SELECT r.a, s.z, t.v FROM R r, S s, T t "
      "WHERE r.a = s.x AND s.x = t.k");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].tuple.ValueAt(2).AsString(), "v1");
}

TEST_F(PlannerTest, SecondJoinConjunctBecomesFilter) {
  auto rows = Run(
      "SELECT r.a, s.z FROM R r, S s WHERE r.a = s.x AND r.b < s.x + 10");
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(PlannerTest, ExpressionInSelectList) {
  auto rows = Run("SELECT r.a + r.b AS total FROM R r WHERE r.a = 1");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].tuple.ValueAt(0).AsInt64(), 3);
}

TEST_F(PlannerTest, GlobalAggregateWithoutGroupBy) {
  auto rows = Run("SELECT COUNT(*) AS n, SUM(r.a) AS s, MIN(r.b) AS lo, "
                  "MAX(r.b) AS hi, AVG(r.a) AS mean FROM R r");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].tuple.ValueAt(0).AsInt64(), 3);
  EXPECT_EQ(rows[0].tuple.ValueAt(1).AsInt64(), 6);
  EXPECT_EQ(rows[0].tuple.ValueAt(2).AsInt64(), 2);
  EXPECT_EQ(rows[0].tuple.ValueAt(3).AsInt64(), 9);
  EXPECT_DOUBLE_EQ(rows[0].tuple.ValueAt(4).AsFloat64(), 2.0);
}

TEST_F(PlannerTest, GroupBySelectOrderIndependent) {
  // Aggregate listed before the group column.
  auto rows = Run("SELECT COUNT(*) AS n, r.b FROM R r GROUP BY r.b ORDER BY r.b");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].tuple.ValueAt(0).AsInt64(), 2);  // n for b=2.
  EXPECT_EQ(rows[0].tuple.ValueAt(1).AsInt64(), 2);  // b=2.
}

TEST_F(PlannerTest, ProjectionPushDownTrimsScanSchema) {
  // With normalization, the scan side of the plan is projected to needed
  // columns; verify by checking summaries were trimmed for annotations on
  // unreferenced columns (behavioral evidence of the push-down).
  ASSERT_TRUE(engine_->Annotate(Spec("R", 0, "note on d", {3})).ok());
  auto rows = Run("SELECT r.a FROM R r WHERE r.b = 2");
  ASSERT_EQ(rows.size(), 2u);
  auto* class1 = rows[0].FindSummary("ClassBird1");
  ASSERT_NE(class1, nullptr);
  EXPECT_EQ(class1->NumAnnotations(), 0u);
  // Without normalization the trim happens at the (final) projection, so
  // the end state matches for single-table plans.
  auto naive_rows = Run("SELECT r.a FROM R r WHERE r.b = 2", false);
  EXPECT_EQ(naive_rows[0].FindSummary("ClassBird1")->NumAnnotations(), 0u);
}

TEST_F(PlannerTest, ErrorsPropagate) {
  auto statement = Parse("SELECT nope FROM R r");
  ASSERT_TRUE(statement.ok());
  auto plan = PlanSelect(std::get<SelectStatement>(*statement), engine_.get(), {});
  EXPECT_TRUE(plan.status().IsNotFound());

  statement = Parse("SELECT r.a FROM R r WHERE ghost = 1");
  ASSERT_TRUE(statement.ok());
  plan = PlanSelect(std::get<SelectStatement>(*statement), engine_.get(), {});
  EXPECT_FALSE(plan.ok());
}

TEST_F(PlannerTest, GroupByExpressionSelectsItsColumn) {
  ASSERT_TRUE(engine_
                  ->CreateTable("obs",
                                rel::Schema({{"id", rel::ValueType::kInt64, "obs"}}))
                  .ok());
  for (int64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(engine_->Insert("obs", rel::Tuple({testutil::I(i)})).ok());
  }
  // id / 280 * id is 0 for the first 280 ids and the id itself after.
  const std::string sql =
      "SELECT o.id / 280 * o.id, COUNT(*) FROM obs o GROUP BY o.id / 280 * o.id";
  auto plan = PlanOf(sql);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->OutputSchema().ColumnAt(0).name, "((o.id / 280) * o.id)");
  auto rows = Run(sql);
  ASSERT_EQ(rows.size(), 21u);
  EXPECT_EQ(rows[0].tuple, rel::Tuple({testutil::I(0), testutil::I(280)}));
  EXPECT_EQ(rows[1].tuple, rel::Tuple({testutil::I(280), testutil::I(1)}));
  EXPECT_EQ(rows[20].tuple, rel::Tuple({testutil::I(299), testutil::I(1)}));
}

// ORDER BY above an aggregation names a group key by its select alias or
// by the GROUP BY expression itself; both bind to the key's output column.
TEST_F(PlannerTest, OrderByGroupExpressionOrAliasSortsByGroupKey) {
  ASSERT_TRUE(engine_
                  ->CreateTable("birds",
                                rel::Schema({{"id", rel::ValueType::kInt64, "birds"},
                                             {"weight", rel::ValueType::kInt64, "birds"}}))
                  .ok());
  // Group keys 3, 0, 2, 1, 4 in first-seen order.
  const int64_t weights[] = {35, 5, 27, 12, 41, 8, 30};
  for (int64_t i = 0; i < 7; ++i) {
    ASSERT_TRUE(
        engine_->Insert("birds", rel::Tuple({testutil::I(i), testutil::I(weights[i])})).ok());
  }
  const std::vector<rel::Tuple> ascending = {
      rel::Tuple({testutil::I(0), testutil::I(2)}), rel::Tuple({testutil::I(1), testutil::I(1)}),
      rel::Tuple({testutil::I(2), testutil::I(1)}), rel::Tuple({testutil::I(3), testutil::I(2)}),
      rel::Tuple({testutil::I(4), testutil::I(1)})};
  for (const char* order : {"w", "b.weight / 10"}) {
    SCOPED_TRACE(order);
    const std::string sql =
        std::string("SELECT b.weight / 10 AS w, COUNT(*) FROM birds b GROUP BY b.weight / 10 "
                    "ORDER BY ") +
        order;
    auto rows = Run(sql);
    ASSERT_EQ(rows.size(), ascending.size());
    for (size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(rows[i].tuple, ascending[i]) << i;
    auto descending = Run(sql + " DESC");
    ASSERT_EQ(descending.size(), ascending.size());
    EXPECT_EQ(descending.front().tuple, ascending.back());
  }
}

TEST_F(PlannerTest, LimitZero) {
  auto rows = Run("SELECT r.a FROM R r LIMIT 0");
  EXPECT_TRUE(rows.empty());
}

TEST_F(PlannerTest, OrderByExpressionDescending) {
  auto rows = Run("SELECT r.a FROM R r ORDER BY r.a * -1");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].tuple.ValueAt(0).AsInt64(), 3);
}

// ---------------------------------------------------------------------------
// Top-k LIMIT pushdown metrics: the planner-produced parallel plans must
// surface their pruning work (rows_pruned / bound_updates) through the
// EXPLAIN ANALYZE counter snapshot, and the counters must be internally
// consistent: every input row of a PartialTopK worker is either retained
// in its heap (partial_groups) or counted as pruned.
// ---------------------------------------------------------------------------

class TopKMetricsTest : public PlannerTest {
 protected:
  static constexpr int64_t kBigRows = 300;

  void SetUp() override {
    PlannerTest::SetUp();
    ASSERT_TRUE(engine_
                    ->CreateTable("big",
                                  rel::Schema({{"id", rel::ValueType::kInt64, "big"},
                                               {"val", rel::ValueType::kInt64, "big"}}))
                    .ok());
    for (int64_t i = 0; i < kBigRows; ++i) {
      // val decreasing: early morsels hold the ORDER BY val ASC losers, so
      // a tightening shared bound has real rows to prune.
      ASSERT_TRUE(
          engine_->Insert("big", rel::Tuple({testutil::I(i), testutil::I(kBigRows - i)}))
              .ok());
    }
  }

  std::unique_ptr<exec::Operator> PlanParallel(
      const std::string& sql, size_t parallelism, size_t morsel_size,
      decltype(PlannerOptions::wrap_worker_pipeline) wrap = nullptr) {
    auto statement = Parse(sql);
    EXPECT_TRUE(statement.ok()) << statement.status().ToString();
    PlannerOptions options;
    options.parallelism = parallelism;
    options.morsel_size = morsel_size;
    options.wrap_worker_pipeline = std::move(wrap);
    auto plan = PlanSelect(std::get<SelectStatement>(*statement), engine_.get(),
                           options);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? std::move(*plan) : nullptr;
  }

  static void CollectByPrefix(const exec::PlanMetrics& node, const std::string& prefix,
                              std::vector<const exec::PlanMetrics*>* out) {
    if (node.name.rfind(prefix, 0) == 0) out->push_back(&node);
    for (const auto& child : node.children) CollectByPrefix(child, prefix, out);
  }
};

TEST_F(TopKMetricsTest, OrderByLimitReportsConsistentPruningCounters) {
  constexpr size_t kLimit = 5;
  for (size_t parallelism : {2u, 4u, 8u}) {
    SCOPED_TRACE("parallelism=" + std::to_string(parallelism));
    auto plan = PlanParallel("SELECT b.id FROM big b ORDER BY b.val LIMIT 5",
                             parallelism, /*morsel_size=*/16);
    ASSERT_NE(plan, nullptr);
    EXPECT_EQ(testutil::DrainRows(engine_.get(), plan.get()).size(), kLimit);

    exec::PlanMetrics metrics = exec::CollectPlanMetrics(plan.get());
    std::vector<const exec::PlanMetrics*> workers;
    CollectByPrefix(metrics, "PartialTopK(5)", &workers);
    ASSERT_EQ(workers.size(), parallelism);

    uint64_t scanned = 0, pruned = 0, retained = 0, bound_updates = 0;
    for (const auto* worker : workers) {
      // Per-worker conservation: every input row was either kept in the
      // size-k heap or counted pruned (shared-bound skip, own-root skip,
      // or heap eviction). A gap here means silently dropped rows.
      EXPECT_EQ(worker->rows_in,
                worker->metrics.rows_pruned + worker->metrics.partial_groups)
          << worker->name;
      EXPECT_LE(worker->metrics.partial_groups, kLimit);
      scanned += worker->rows_in;
      pruned += worker->metrics.rows_pruned;
      retained += worker->metrics.partial_groups;
      bound_updates += worker->metrics.bound_updates;
    }
    EXPECT_EQ(scanned, static_cast<uint64_t>(kBigRows));
    EXPECT_EQ(pruned + retained, static_cast<uint64_t>(kBigRows));
    // 240 rows against k=5 must actually prune, and at least the first
    // worker to fill its heap publishes a shared bound.
    EXPECT_GT(pruned, 0u);
    EXPECT_GE(bound_updates, 1u);

    std::vector<const exec::PlanMetrics*> merges;
    CollectByPrefix(metrics, "SortMerge", &merges);
    ASSERT_EQ(merges.size(), 1u);
    // Runs reach the merge through the shared sink (not Next), so rows_in
    // stays 0; what is observable is that the retained runs cover k and
    // the merge stops exactly at the limit.
    EXPECT_GE(retained, static_cast<uint64_t>(kLimit));
    EXPECT_EQ(merges[0]->metrics.rows_out, kLimit);
  }
}

/// Sums mem_peak over `node`'s subtree.
uint64_t TotalMemPeak(const exec::PlanMetrics& node) {
  uint64_t total = node.metrics.mem_peak;
  for (const auto& child : node.children) total += TotalMemPeak(child);
  return total;
}

// One worker sorts through the same partial + merge pair as several: under
// ORDER BY ... LIMIT k its partial keeps a size-k heap, its merge emits k
// rows, and a retained result holds no more than those k rows.
TEST_F(TopKMetricsTest, OneWorkerOrderByLimitKeepsTopKRows) {
  struct Case {
    std::string sql;
    size_t limit;
  };
  const Case cases[] = {
      {"SELECT b.id FROM big b ORDER BY b.val LIMIT 5", 5},
      {"SELECT b.id, COUNT(*) FROM big b GROUP BY b.id ORDER BY b.id DESC LIMIT 2", 2},
  };
  SqlSession session(engine_.get());
  ASSERT_TRUE(session.Execute("SET PARALLELISM = 1").ok());
  for (const Case& c : cases) {
    SCOPED_TRACE(c.sql);
    auto out = session.Execute("EXPLAIN ANALYZE " + c.sql);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    const std::string topk = "PartialTopK(" + std::to_string(c.limit) + ")";
    EXPECT_NE(out->message.find(topk), std::string::npos) << out->message;
    EXPECT_NE(out->message.find("-> Gather(1)"), std::string::npos) << out->message;
    const size_t merge = out->message.find("-> SortMerge");
    ASSERT_NE(merge, std::string::npos) << out->message;
    const std::string line =
        out->message.substr(merge, out->message.find('\n', merge) - merge);
    EXPECT_NE(line.find(" rows_out=" + std::to_string(c.limit) + " "), std::string::npos)
        << line;
  }

  // The retained plan of the first statement charges its k rows, nothing
  // more. Every row of `big` is (id, val) with no summaries or
  // attachments, so each is charged the same bytes.
  auto plan = PlanParallel(cases[0].sql, /*parallelism=*/1, /*morsel_size=*/256);
  ASSERT_NE(plan, nullptr);
  exec::Operator* root = plan.get();
  auto result = engine_->Execute(std::move(plan));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const uint64_t row_bytes = core::ApproxBytes(
      core::AnnotatedTuple(rel::Tuple({testutil::I(0), testutil::I(0)})));
  const uint64_t charged = TotalMemPeak(exec::CollectPlanMetrics(root));
  EXPECT_GT(charged, 0u);
  EXPECT_LE(charged, 5 * row_bytes);
}

/// Opens once; waiters block until then (bounded, so a broken schedule
/// fails the test instead of hanging it).
class Gate {
 public:
  void Open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, std::chrono::seconds(30), [this] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// Worker-pipeline wrapper that holds every worker but 0 before its first
/// batch until worker 0's first batch has reached the gather. Worker 0
/// opens the gate on its second NextBatch call, which the gather makes only
/// after it has counted the first batch against the row quota.
class HoldUntilFirstBatch final : public exec::Operator {
 public:
  HoldUntilFirstBatch(std::unique_ptr<exec::Operator> child, std::shared_ptr<Gate> gate,
                      size_t worker)
      : child_(std::move(child)), gate_(std::move(gate)), worker_(worker) {}

  const rel::Schema& OutputSchema() const override { return child_->OutputSchema(); }
  std::string Name() const override { return "Hold(worker " + std::to_string(worker_) + ")"; }
  std::vector<exec::Operator*> Children() override { return {child_.get()}; }

 protected:
  Status OpenImpl() override {
    calls_ = 0;
    return child_->Open();
  }
  Result<bool> NextBatchImpl(core::AnnotatedBatch* out) override {
    ++calls_;
    if (worker_ == 0 && calls_ == 2) gate_->Open();
    if (worker_ != 0 && calls_ == 1) gate_->Wait();
    return child_->NextBatch(out);
  }

 private:
  std::unique_ptr<exec::Operator> child_;
  std::shared_ptr<Gate> gate_;
  size_t worker_;
  uint64_t calls_ = 0;
};

TEST_F(TopKMetricsTest, QuotaLimitReportsUndispatchedRowsAsPruned) {
  // Workers 1-3 claim no morsel before worker 0's first 16-row morsel has
  // met the quota of 5, so the rest of the table is never dispatched
  // whatever the thread schedule.
  auto gate = std::make_shared<Gate>();
  auto plan = PlanParallel(
      "SELECT b.id FROM big b LIMIT 5", /*parallelism=*/4, /*morsel_size=*/16,
      [gate](std::unique_ptr<exec::Operator> pipe,
             size_t worker) -> std::unique_ptr<exec::Operator> {
        return std::make_unique<HoldUntilFirstBatch>(std::move(pipe), gate, worker);
      });
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(testutil::DrainRows(engine_.get(), plan.get()).size(), 5u);

  exec::PlanMetrics metrics = exec::CollectPlanMetrics(plan.get());
  std::vector<const exec::PlanMetrics*> gathers;
  CollectByPrefix(metrics, "Gather", &gathers);
  ASSERT_EQ(gathers.size(), 1u);
  // The row quota stops morsel dispatch once the first morsels cover the
  // limit; with 240 rows and k=5 most of the table is never dispatched.
  EXPECT_GT(gathers[0]->metrics.rows_pruned, 0u);
  // Dispatched + undispatched covers the table exactly once.
  EXPECT_EQ(gathers[0]->rows_in + gathers[0]->metrics.rows_pruned,
            static_cast<uint64_t>(kBigRows));
}

TEST_F(TopKMetricsTest, ExplainAnalyzeRendersPruningFields) {
  SqlSession session(engine_.get());
  ASSERT_TRUE(session.Execute("SET PARALLELISM = 4").ok());
  auto out = session.Execute(
      "EXPLAIN ANALYZE SELECT b.id FROM big b ORDER BY b.val LIMIT 5");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->message.find("PartialTopK(5)"), std::string::npos) << out->message;
  EXPECT_NE(out->message.find("rows_pruned="), std::string::npos) << out->message;
  EXPECT_NE(out->message.find("bound_updates="), std::string::npos) << out->message;
  EXPECT_NE(out->message.find("5 row(s)"), std::string::npos) << out->message;
}

// The trim shape: the projection's pending trim is paid where surviving
// rows leave the pooled workers, and EXPLAIN ANALYZE reports it there.
TEST_F(PlannerTest, ExplainAnalyzeReportsSettleOnGather) {
  ASSERT_TRUE(engine_
                  ->CreateTable("birds",
                                rel::Schema({{"id", rel::ValueType::kInt64, "birds"},
                                             {"name", rel::ValueType::kString, "birds"},
                                             {"weight", rel::ValueType::kInt64, "birds"},
                                             {"family", rel::ValueType::kString, "birds"}}))
                  .ok());
  constexpr int64_t kRows = 600;  // Three morsels.
  for (int64_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(engine_
                    ->Insert("birds", rel::Tuple({testutil::I(i), testutil::S("bird"),
                                                  testutil::I(i % 50), testutil::S("gull")}))
                    .ok());
  }
  ASSERT_TRUE(engine_->LinkInstance("ClassBird1", "birds").ok());
  for (rel::RowId row = 0; row < kRows; row += 5) {
    ASSERT_TRUE(engine_->Annotate(Spec("birds", row, "wingspan feathers", {3})).ok());
  }
  SqlSession session(engine_.get());
  ASSERT_TRUE(session.Execute("SET PARALLELISM = 2").ok());
  auto out = session.Execute(
      "EXPLAIN ANALYZE SELECT b.id, b.name, b.weight FROM birds b WHERE b.weight > 10");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const size_t gather = out->message.find("-> Gather(2)");
  ASSERT_NE(gather, std::string::npos) << out->message;
  const std::string line = out->message.substr(gather, out->message.find('\n', gather) - gather);
  const size_t settled = line.find(" settled=");
  ASSERT_NE(settled, std::string::npos) << out->message;
  EXPECT_GT(std::stoull(line.substr(settled + 9)), 0u) << line;
  EXPECT_NE(line.find(" settle_ms="), std::string::npos) << line;
}

// The trim memo: the first trim statement fills every surviving row's
// memo as its rows settle; the same statement again takes every trim from
// the memo, so its projections report one hit per row and nothing is left
// for the gather to settle.
TEST_F(PlannerTest, ExplainAnalyzeReportsTrimMemoHitsOnRepeat) {
  ASSERT_TRUE(engine_
                  ->CreateTable("birds",
                                rel::Schema({{"id", rel::ValueType::kInt64, "birds"},
                                             {"name", rel::ValueType::kString, "birds"},
                                             {"weight", rel::ValueType::kInt64, "birds"},
                                             {"family", rel::ValueType::kString, "birds"}}))
                  .ok());
  constexpr int64_t kRows = 600;  // Three morsels.
  for (int64_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(engine_
                    ->Insert("birds", rel::Tuple({testutil::I(i), testutil::S("bird"),
                                                  testutil::I(i % 50), testutil::S("gull")}))
                    .ok());
  }
  ASSERT_TRUE(engine_->LinkInstance("ClassBird1", "birds").ok());
  // Every row keeps one note and loses one to the projection.
  std::vector<core::AnnotateSpec> specs;
  for (rel::RowId row = 0; row < kRows; ++row) {
    specs.push_back(Spec("birds", row, "wingspan feathers", {1}));
    specs.push_back(Spec("birds", row, "eating stonewort", {3}));
  }
  ASSERT_TRUE(engine_->AnnotateBatch(specs).ok());
  SqlSession session(engine_.get());
  ASSERT_TRUE(session.Execute("SET PARALLELISM = 2").ok());
  const std::string sql =
      "EXPLAIN ANALYZE SELECT b.id, b.name, b.weight FROM birds b WHERE b.weight > 10";
  // Sums `field` over the plan's Project lines; -1 if no line has it.
  auto sum_over_projects = [](const std::string& plan, const std::string& field) {
    int64_t sum = -1;
    for (size_t at = plan.find("-> Project("); at != std::string::npos;
         at = plan.find("-> Project(", at + 1)) {
      const std::string line = plan.substr(at, plan.find('\n', at) - at);
      const size_t pos = line.find(" " + field + "=");
      if (pos == std::string::npos) continue;
      sum = std::max<int64_t>(sum, 0) + std::stoll(line.substr(pos + field.size() + 2));
    }
    return sum;
  };
  auto gather_line = [](const std::string& plan) {
    const size_t at = plan.find("-> Gather(2)");
    return at == std::string::npos ? std::string()
                                   : plan.substr(at, plan.find('\n', at) - at);
  };
  const int64_t passing = kRows / 50 * 39;  // weight 11..49
  auto cold = session.Execute(sql);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(sum_over_projects(cold->message, "memo_fills"), passing) << cold->message;
  EXPECT_EQ(sum_over_projects(cold->message, "memo_hits"), 0) << cold->message;
  EXPECT_NE(gather_line(cold->message).find(" settled="), std::string::npos) << cold->message;

  auto warm = session.Execute(sql);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(sum_over_projects(warm->message, "memo_hits"), passing) << warm->message;
  EXPECT_EQ(sum_over_projects(warm->message, "memo_fills"), 0) << warm->message;
  const std::string gather = gather_line(warm->message);
  ASSERT_FALSE(gather.empty()) << warm->message;
  EXPECT_EQ(gather.find(" settled="), std::string::npos) << gather;
  EXPECT_GT(engine_->TrimMemoBytes(), 0u);
}

// Cost-based optimizer: FROM-order joins and index-backed access paths.
// Three tables where the FROM order joins the two big tables first (~18000
// intermediate rows) although joining the selectively filtered small table
// early would collapse the intermediate to ~1 row: the optimizer still
// keeps FROM order, the order summaries fold in.
class OptimizerPlanTest : public PlannerTest {
 protected:
  static constexpr int64_t kBigRows = 600;
  static constexpr int64_t kSmallRows = 100;
  static constexpr int64_t kKeyNdv = 20;

  void SetUp() override {
    PlannerTest::SetUp();
    ASSERT_TRUE(engine_
                    ->CreateTable("a", rel::Schema({{"k", rel::ValueType::kInt64, "a"},
                                                    {"j", rel::ValueType::kInt64, "a"}}))
                    .ok());
    ASSERT_TRUE(engine_
                    ->CreateTable("b", rel::Schema({{"k", rel::ValueType::kInt64, "b"},
                                                    {"pad", rel::ValueType::kInt64, "b"}}))
                    .ok());
    ASSERT_TRUE(engine_
                    ->CreateTable("c", rel::Schema({{"j", rel::ValueType::kInt64, "c"},
                                                    {"sel", rel::ValueType::kInt64, "c"}}))
                    .ok());
    for (int64_t i = 0; i < kBigRows; ++i) {
      ASSERT_TRUE(
          engine_->Insert("a", rel::Tuple({testutil::I(i % kKeyNdv), testutil::I(i)}))
              .ok());
      ASSERT_TRUE(
          engine_->Insert("b", rel::Tuple({testutil::I(i % kKeyNdv), testutil::I(i)}))
              .ok());
    }
    for (int64_t i = 0; i < kSmallRows; ++i) {
      ASSERT_TRUE(
          engine_->Insert("c", rel::Tuple({testutil::I(i), testutil::I(i)})).ok());
    }
  }

  void AnalyzeAll() {
    for (const char* table : {"a", "b", "c"}) {
      auto rows = engine_->Analyze(table);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    }
  }

  std::unique_ptr<exec::Operator> PlanOptimized(const std::string& sql,
                                                bool optimize) {
    auto statement = Parse(sql);
    EXPECT_TRUE(statement.ok()) << statement.status().ToString();
    PlannerOptions options;
    options.optimize = optimize;
    options.parallelism = 4;
    auto plan = PlanSelect(std::get<SelectStatement>(*statement), engine_.get(),
                           options);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? std::move(*plan) : nullptr;
  }

  /// Rendered rows of `sql`, in emission order.
  std::vector<std::string> RowsOf(const std::string& sql, bool optimize) {
    auto plan = PlanOptimized(sql, optimize);
    EXPECT_NE(plan, nullptr);
    std::vector<std::string> rows;
    if (plan == nullptr) return rows;
    for (const core::AnnotatedTuple& t : testutil::DrainRows(engine_.get(), plan.get())) {
      rows.push_back(t.tuple.ToString());
    }
    return rows;
  }

  /// The rendered plan of kFlipQuery drives from a, builds b, then builds
  /// c: a left-deep render lists the driver first and each build input
  /// after the join it feeds.
  static void ExpectFromOrder(const std::string& shape) {
    size_t a = shape.find("SeqScan(a)");
    size_t b = shape.find("SeqScan(b)");
    size_t c = shape.find("SeqScan(c)");
    ASSERT_NE(c, std::string::npos) << shape;
    EXPECT_LT(a, b) << shape;
    EXPECT_LT(b, c) << shape;
    EXPECT_EQ(shape.find("RestoreOrder"), std::string::npos) << shape;
  }

  static constexpr const char* kFlipQuery =
      "SELECT a.j, b.pad, c.sel FROM a a, b b, c c "
      "WHERE a.k = b.k AND a.j = c.j AND c.sel = 5";
};

TEST_F(OptimizerPlanTest, NoReorderWithoutStatistics) {
  auto plan = PlanOptimized(kFlipQuery, /*optimize=*/true);
  ASSERT_NE(plan, nullptr);
  ExpectFromOrder(exec::RenderPlan(plan.get()));
}

TEST_F(OptimizerPlanTest, JoinKeepsFromOrderWithStatistics) {
  AnalyzeAll();
  auto plan = PlanOptimized(kFlipQuery, /*optimize=*/true);
  ASSERT_NE(plan, nullptr);
  // Statistics favour joining the filtered small table first; the plan
  // joins in FROM order anyway and needs no order-restoring sort.
  ExpectFromOrder(exec::RenderPlan(plan.get()));

  std::vector<std::string> expected = RowsOf(kFlipQuery, /*optimize=*/false);
  // a.j = 5 pairs with c.j = 5 and a.k = 5 matches kBigRows/kKeyNdv b-rows.
  EXPECT_EQ(expected.size(), static_cast<size_t>(kBigRows / kKeyNdv));
  EXPECT_EQ(RowsOf(kFlipQuery, /*optimize=*/true), expected);
}

TEST_F(OptimizerPlanTest, IndexProbeReplacesScanForSelectiveEquality) {
  ASSERT_TRUE(engine_->CreateIndex("a", "j").ok());
  // Index probes need no ANALYZE: the index is explicit DDL and the
  // default equality selectivity already makes the probe cheaper.
  const std::string sql = "SELECT a.k FROM a a WHERE a.j = 7";
  auto plan = PlanOptimized(sql, /*optimize=*/true);
  ASSERT_NE(plan, nullptr);
  std::string shape = exec::RenderPlan(plan.get());
  EXPECT_NE(shape.find("IndexScan"), std::string::npos) << shape;
  EXPECT_EQ(RowsOf(sql, /*optimize=*/true), RowsOf(sql, /*optimize=*/false));
}

TEST_F(OptimizerPlanTest, ExplainShowsEstimatedRowsAndSetOptimizerKnob) {
  AnalyzeAll();
  SqlSession session(engine_.get());
  // a.j is unique over 600 rows, so the stats-driven estimate for the
  // equality filter is 1 row — unmistakably different from the 600-row
  // operator heuristic EXPLAIN falls back to without the optimizer.
  auto out = session.Execute("EXPLAIN SELECT a.k FROM a a WHERE a.j = 7");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->message.find("est_rows="), std::string::npos) << out->message;
  EXPECT_NE(out->message.find("(est_rows=1)"), std::string::npos) << out->message;

  auto toggled = session.Execute("SET OPTIMIZER = off");
  ASSERT_TRUE(toggled.ok()) << toggled.status().ToString();
  EXPECT_NE(toggled->message.find("optimizer = off"), std::string::npos);
  out = session.Execute("EXPLAIN SELECT a.k FROM a a WHERE a.j = 7");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->message.find("(est_rows=1)"), std::string::npos) << out->message;
}

}  // namespace
}  // namespace insightnotes::sql
