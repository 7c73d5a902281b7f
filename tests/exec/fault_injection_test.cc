// Executor fault sweep, mirroring the storage-side crash sweeps: a
// scripted FaultInjectingOperator is spliced into worker pipelines (via
// PlannerOptions::wrap_worker_pipeline) or onto the serial plan root, and
// fails / throws / stalls at the Nth NextBatch call on a chosen worker.
// Swept across operator shapes (gather, hash join, aggregation, sort,
// distinct, LIMIT quota) x parallelism x fault point, the executor must
// always surface a clean non-OK Status (never hang, crash or return a
// silently truncated result), and the very next execution of the same
// query must be byte-identical to serial — failed workers leave no torn
// shared state behind.

#include "exec/fault_injection.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "testutil.h"

namespace insightnotes {
namespace {

using testutil::EngineFixture;
using testutil::I;
using testutil::S;

constexpr int64_t kFactRows = 96;
constexpr int64_t kDimRows = 8;
// Small morsels so even short queries cross several NextBatch boundaries.
constexpr size_t kMorselSize = 16;

// One query per parallel operator shape.
const char* const kQueries[] = {
    // Plain gather: scan + filter + projection.
    "SELECT t.id, t.val FROM t t WHERE t.val > 10",
    // Shared-build hash join probed by every worker.
    "SELECT t.id, d.name FROM t t, d d WHERE t.grp = d.k AND t.val < 40",
    // Partial aggregation below the gather, merge above it.
    "SELECT t.grp, COUNT(*), SUM(t.val) FROM t t GROUP BY t.grp ORDER BY t.grp",
    // Partial top-k sort with the shared bound.
    "SELECT t.id, t.val FROM t t ORDER BY t.val, t.id LIMIT 20",
    // Partial distinct.
    "SELECT DISTINCT t.grp, t.txt FROM t t",
    // Row-quota LIMIT pushdown (no ORDER BY).
    "SELECT t.id FROM t t WHERE t.val > 5 LIMIT 7",
};

class ExecFaultSweepTest : public EngineFixture {
 protected:
  void SetUp() override {
    EngineFixture::SetUp();
    CreateFigure2Tables();
    CreateFigure2Instances();
    ASSERT_TRUE(engine_
                    ->CreateTable("t",
                                  rel::Schema({{"id", rel::ValueType::kInt64, "t"},
                                               {"grp", rel::ValueType::kInt64, "t"},
                                               {"val", rel::ValueType::kInt64, "t"},
                                               {"txt", rel::ValueType::kString, "t"}}))
                    .ok());
    ASSERT_TRUE(engine_
                    ->CreateTable("d",
                                  rel::Schema({{"k", rel::ValueType::kInt64, "d"},
                                               {"name", rel::ValueType::kString, "d"}}))
                    .ok());
    Random rng(7);
    for (int64_t i = 0; i < kFactRows; ++i) {
      ASSERT_TRUE(engine_
                      ->Insert("t", rel::Tuple({I(i), I(i % kDimRows),
                                                I(static_cast<int64_t>(rng.Uniform(50))),
                                                S("s" + std::to_string(i % 5))}))
                      .ok());
    }
    for (int64_t k = 0; k < kDimRows; ++k) {
      ASSERT_TRUE(
          engine_->Insert("d", rel::Tuple({I(k), S("g" + std::to_string(k))})).ok());
    }
    ASSERT_TRUE(engine_->LinkInstance("ClassBird1", "t").ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(engine_
                      ->Annotate(Spec("t", static_cast<rel::RowId>(rng.Uniform(kFactRows)),
                                      "signs of influenza infection detected"))
                      .ok());
    }
  }

  /// Plans `sql_text` with the given parallelism; with a script, worker
  /// pipelines are wrapped (parallel plans) or the plan root is (serial).
  std::unique_ptr<exec::Operator> Plan(const std::string& sql_text, size_t parallelism,
                                       std::shared_ptr<exec::ExecFaultScript> script) {
    auto statement = sql::Parse(sql_text);
    EXPECT_TRUE(statement.ok()) << statement.status().ToString();
    auto* select = std::get_if<sql::SelectStatement>(&*statement);
    EXPECT_NE(select, nullptr);
    sql::PlannerOptions options;
    options.parallelism = parallelism;
    options.morsel_size = kMorselSize;
    if (script != nullptr && parallelism > 1) {
      options.wrap_worker_pipeline = [script](std::unique_ptr<exec::Operator> pipe,
                                              size_t worker) {
        return std::make_unique<exec::FaultInjectingOperator>(std::move(pipe), script,
                                                              worker);
      };
    }
    auto plan = sql::PlanSelect(*select, engine_.get(), options);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    if (!plan.ok()) return nullptr;
    if (script != nullptr && parallelism == 1) {
      // Serial plans have no worker pipelines; fault the root instead.
      return std::make_unique<exec::FaultInjectingOperator>(std::move(*plan), script,
                                                            /*worker=*/0);
    }
    return std::move(*plan);
  }

  /// Executes and renders byte-for-byte (data, summaries, attachments).
  Result<std::vector<std::string>> Run(const std::string& sql_text, size_t parallelism,
                                       std::shared_ptr<exec::ExecFaultScript> script) {
    std::unique_ptr<exec::Operator> plan = Plan(sql_text, parallelism, script);
    if (plan == nullptr) return Status::Internal("planning failed");
    INSIGHTNOTES_ASSIGN_OR_RETURN(core::QueryResult result,
                                  engine_->Execute(std::move(plan)));
    std::vector<std::string> rows;
    for (const core::AnnotatedTuple& row : result.rows) {
      std::ostringstream os;
      os << row.tuple.ToString();
      for (const auto& summary : row.summaries) {
        os << " || " << summary->instance_name() << "=" << summary->Render();
      }
      for (const testutil::Att& attachment : testutil::Entries(row.attachments)) {
        os << " [A" << attachment.id << "]";
      }
      rows.push_back(os.str());
    }
    return rows;
  }
};

TEST_F(ExecFaultSweepTest, EveryOperatorParallelismAndFaultPoint) {
  for (const char* sql : kQueries) {
    auto serial = Run(sql, 1, nullptr);
    ASSERT_TRUE(serial.ok()) << sql << ": " << serial.status().ToString();
    for (size_t parallelism : {size_t{1}, size_t{2}, size_t{8}}) {
      for (size_t worker : {size_t{0}, parallelism - 1}) {
        if (worker >= parallelism) continue;
        for (uint64_t nth : {uint64_t{1}, uint64_t{2}}) {
          for (exec::ExecFaultAction action :
               {exec::ExecFaultAction::kError, exec::ExecFaultAction::kThrow}) {
            // A throw through the serial root has no containment layer
            // (exception containment is a worker-pipeline property).
            if (parallelism == 1 && action == exec::ExecFaultAction::kThrow) continue;
            SCOPED_TRACE(std::string(sql) + " parallelism=" +
                         std::to_string(parallelism) + " worker=" +
                         std::to_string(worker) + " nth=" + std::to_string(nth) +
                         (action == exec::ExecFaultAction::kThrow ? " throw"
                                                                  : " error"));
            auto script = std::make_shared<exec::ExecFaultScript>();
            script->AddFault({worker, nth, action, 0});
            auto faulted = Run(sql, parallelism, script);
            if (script->fired() == 0) {
              // The plan finished before the fault point (short query /
              // quota cut dispatch): it must then match serial exactly.
              ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
              EXPECT_EQ(*faulted, *serial);
            } else {
              ASSERT_FALSE(faulted.ok())
                  << "fault fired but the query still succeeded";
              EXPECT_TRUE(faulted.status().IsInternal())
                  << faulted.status().ToString();
              EXPECT_NE(faulted.status().ToString().find(
                            action == exec::ExecFaultAction::kThrow
                                ? "pipeline threw"
                                : "injected fault"),
                        std::string::npos)
                  << faulted.status().ToString();
            }
            // The engine must answer the next, unfaulted query exactly as
            // a fresh serial run would — no torn shared state survives.
            auto clean = Run(sql, parallelism, nullptr);
            ASSERT_TRUE(clean.ok()) << clean.status().ToString();
            EXPECT_EQ(*clean, *serial);
          }
        }
      }
    }
  }
}

TEST_F(ExecFaultSweepTest, ThrowingWorkerAtFullParallelismIsContained) {
  // Satellite regression: a worker stage that throws (not returns) at
  // parallelism 8 must be contained by the pipeline job and surface as
  // Status::Internal, with all 7 peers drained and joined.
  const std::string sql = kQueries[2];  // Aggregation keeps all workers busy.
  auto serial = Run(sql, 1, nullptr);
  ASSERT_TRUE(serial.ok());
  for (size_t worker = 0; worker < 8; ++worker) {
    auto script = std::make_shared<exec::ExecFaultScript>();
    script->AddFault({worker, 1, exec::ExecFaultAction::kThrow, 0});
    auto faulted = Run(sql, 8, script);
    ASSERT_EQ(script->fired(), 1u) << "worker " << worker;
    ASSERT_FALSE(faulted.ok()) << "worker " << worker;
    EXPECT_TRUE(faulted.status().IsInternal()) << faulted.status().ToString();
    EXPECT_NE(faulted.status().ToString().find("worker pipeline threw"),
              std::string::npos)
        << faulted.status().ToString();
    auto clean = Run(sql, 8, nullptr);
    ASSERT_TRUE(clean.ok());
    EXPECT_EQ(*clean, *serial);
  }
}

TEST_F(ExecFaultSweepTest, StalledWorkerHitsTheDeadline) {
  // A worker that stalls mid-morsel does not block cancellation forever:
  // the statement deadline fires at the next cooperative check after the
  // stall, and the query unwinds with kDeadlineExceeded.
  const std::string sql = kQueries[0];
  auto context = std::make_shared<exec::QueryContext>();
  auto script = std::make_shared<exec::ExecFaultScript>();
  script->AddFault({0, 1, exec::ExecFaultAction::kStall, /*stall_ms=*/100});
  std::unique_ptr<exec::Operator> plan = Plan(sql, 2, script);
  ASSERT_NE(plan, nullptr);
  plan->SetQueryContext(context);
  context->BeginStatement(/*timeout_ms=*/20, 0);
  auto result = engine_->Execute(std::move(plan));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded()) << result.status().ToString();
  EXPECT_EQ(script->fired(), 1u);

  // The next statement under a fresh deadline succeeds.
  context->BeginStatement(0, 0);
  auto serial = Run(sql, 1, nullptr);
  auto clean = Run(sql, 2, nullptr);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(*clean, *serial);
}

TEST_F(ExecFaultSweepTest, FirstErrorInMorselOrderWins) {
  // Two workers fail at their first NextBatch; the surfaced error must be
  // deterministic across repetitions (the worker owning the earlier morsel
  // wins, regardless of wall-clock finishing order).
  const std::string sql = kQueries[0];
  std::string first_message;
  for (int round = 0; round < 10; ++round) {
    auto script = std::make_shared<exec::ExecFaultScript>();
    script->AddFault({0, 1, exec::ExecFaultAction::kError, 0});
    script->AddFault({1, 1, exec::ExecFaultAction::kError, 0});
    auto faulted = Run(sql, 2, script);
    ASSERT_FALSE(faulted.ok());
    ASSERT_GE(script->fired(), 1u);
    if (round == 0) {
      first_message = faulted.status().ToString();
    } else {
      EXPECT_EQ(faulted.status().ToString(), first_message) << "round " << round;
    }
  }
}

}  // namespace
}  // namespace insightnotes
