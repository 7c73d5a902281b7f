// Unit tests of the query-lifecycle primitives: the shared MemoryBudget,
// the per-operator MemoryReservation ledger (slab batching, epoch
// staleness across budget resets), and QueryContext's cooperative
// cancellation / deadline / cancel-at-check seam.

#include "exec/query_context.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

namespace insightnotes::exec {
namespace {

TEST(MemoryBudgetTest, TracksUsageAndPeak) {
  MemoryBudget budget;
  budget.Reset(1000);
  EXPECT_TRUE(budget.TryReserve(400));
  EXPECT_TRUE(budget.TryReserve(500));
  EXPECT_EQ(budget.used(), 900u);
  EXPECT_EQ(budget.peak(), 900u);
  budget.Release(500);
  EXPECT_EQ(budget.used(), 400u);
  EXPECT_EQ(budget.peak(), 900u);  // Peak survives releases.
}

TEST(MemoryBudgetTest, RejectsOverLimitAndRollsBack) {
  MemoryBudget budget;
  budget.Reset(1000);
  EXPECT_TRUE(budget.TryReserve(800));
  EXPECT_FALSE(budget.TryReserve(300));
  EXPECT_EQ(budget.used(), 800u);  // Failed reservation left no residue.
  EXPECT_TRUE(budget.TryReserve(200));
}

TEST(MemoryBudgetTest, ZeroLimitIsUnlimited) {
  MemoryBudget budget;
  budget.Reset(0);
  EXPECT_TRUE(budget.TryReserve(size_t{1} << 40));
  EXPECT_EQ(budget.peak(), size_t{1} << 40);
}

TEST(MemoryReservationTest, ChargesInSlabs) {
  MemoryBudget budget;
  budget.Reset(0);
  MemoryReservation reservation;
  reservation.Attach(&budget, [] { return std::string("TestOp"); });
  // Many small charges reserve whole slabs, not per-charge bytes.
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(reservation.Charge(100).ok());
  EXPECT_EQ(reservation.charged(), 10000u);
  EXPECT_EQ(budget.used(), MemoryReservation::kChunk);
  reservation.ReleaseAll();
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_EQ(reservation.charged(), 0u);
  EXPECT_EQ(reservation.peak(), 10000u);  // Peak survives for metrics.
}

TEST(MemoryReservationTest, OverrunNamesTheOperator) {
  MemoryBudget budget;
  budget.Reset(MemoryReservation::kChunk);
  MemoryReservation reservation;
  // The name is rendered only for the failure message.
  int renders = 0;
  reservation.Attach(&budget, [&renders] {
    ++renders;
    return std::string("HashJoinBuild(s.x)");
  });
  ASSERT_TRUE(reservation.Charge(1000).ok());
  EXPECT_EQ(renders, 0);
  Status overrun = reservation.Charge(2 * MemoryReservation::kChunk);
  ASSERT_TRUE(overrun.IsResourceExhausted()) << overrun.ToString();
  EXPECT_EQ(renders, 1);
  EXPECT_NE(overrun.ToString().find("HashJoinBuild(s.x)"), std::string::npos)
      << overrun.ToString();
  EXPECT_NE(overrun.ToString().find("memory limit exceeded"), std::string::npos);
}

TEST(MemoryReservationTest, DetachedNeverFails) {
  MemoryReservation reservation;
  EXPECT_TRUE(reservation.Charge(size_t{1} << 40).ok());
  EXPECT_EQ(reservation.peak(), size_t{1} << 40);
}

TEST(MemoryReservationTest, StaleHoldingsDropAcrossBudgetReset) {
  // A retained plan's reservation survives into the next statement; the
  // budget Reset between the two must not be corrupted by the stale ledger
  // releasing (underflow) or assuming its old slabs still count.
  MemoryBudget budget;
  budget.Reset(0);
  MemoryReservation reservation;
  reservation.Attach(&budget, [] { return std::string("Sort"); });
  ASSERT_TRUE(reservation.Charge(3 * MemoryReservation::kChunk).ok());
  ASSERT_GT(budget.used(), 0u);

  budget.Reset(0);  // New statement.
  EXPECT_EQ(budget.used(), 0u);
  reservation.ReleaseAll();  // Stale: must NOT underflow used().
  EXPECT_EQ(budget.used(), 0u);

  ASSERT_TRUE(reservation.Charge(MemoryReservation::kChunk).ok());
  EXPECT_EQ(budget.used(), MemoryReservation::kChunk);
}

TEST(QueryContextTest, CancelTripsNextCheck) {
  QueryContext context;
  context.BeginStatement(0, 0);
  EXPECT_TRUE(context.CheckInterrupt().ok());
  context.Cancel();
  Status status = context.CheckInterrupt();
  ASSERT_TRUE(status.IsCancelled()) << status.ToString();
  // BeginStatement re-arms.
  context.BeginStatement(0, 0);
  EXPECT_TRUE(context.CheckInterrupt().ok());
}

TEST(QueryContextTest, DeadlineExpires) {
  QueryContext context;
  context.BeginStatement(/*timeout_ms=*/5, 0);
  EXPECT_TRUE(context.CheckInterrupt().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Status status = context.CheckInterrupt();
  ASSERT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
  EXPECT_NE(status.ToString().find("5 ms"), std::string::npos) << status.ToString();
}

TEST(QueryContextTest, CancelAtCheckIsDeterministic) {
  QueryContext context;
  context.CancelAtCheck(3);
  context.BeginStatement(0, 0);  // The trip survives re-arming.
  EXPECT_TRUE(context.CheckInterrupt().ok());
  EXPECT_TRUE(context.CheckInterrupt().ok());
  EXPECT_TRUE(context.CheckInterrupt().IsCancelled());
  EXPECT_EQ(context.cancel_checks(), 3u);

  context.CancelAtCheck(0);  // Disarm.
  context.BeginStatement(0, 0);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(context.CheckInterrupt().ok());
}

TEST(QueryContextTest, ConcurrentChecksCountExactly) {
  QueryContext context;
  context.BeginStatement(0, 0);
  constexpr int kThreads = 8;
  constexpr int kChecksPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&context] {
      for (int i = 0; i < kChecksPerThread; ++i) {
        Status status = context.CheckInterrupt();
        ASSERT_TRUE(status.ok());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(context.cancel_checks(), uint64_t{kThreads} * kChecksPerThread);
}

TEST(QueryContextTest, SharedBudgetAcrossWorkers) {
  QueryContext context;
  context.BeginStatement(0, /*memory_limit_bytes=*/0);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&context, t] {
      MemoryReservation reservation;
      reservation.Attach(&context.budget(), [t] { return "Worker" + std::to_string(t); });
      for (int i = 0; i < 100; ++i) ASSERT_TRUE(reservation.Charge(1024).ok());
      reservation.ReleaseAll();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(context.budget().used(), 0u);
  EXPECT_GE(context.budget().peak(), MemoryReservation::kChunk);
}

}  // namespace
}  // namespace insightnotes::exec
