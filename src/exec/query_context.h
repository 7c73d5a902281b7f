// Per-statement query lifecycle state: cooperative cancellation, a wall
// clock deadline and a shared memory budget, threaded through every
// operator in a plan (see Operator::SetQueryContext).
//
// The executor is morsel-driven and cooperative: nothing preempts a
// running worker. Instead the Open/NextBatch wrappers call
// QueryContext::CheckInterrupt() at batch and morsel boundaries, so a
// cancelled / timed-out / over-budget query unwinds with a clean Status
// (kCancelled / kDeadlineExceeded / kResourceExhausted) within a bounded
// number of morsel boundaries — never a hang or a torn engine state.
// Memory accounting goes through per-operator MemoryReservations that
// batch charges against the shared atomic MemoryBudget in kChunk slabs,
// keeping the atomic off the per-row hot path.
//
// A QueryContext is owned by the session via shared_ptr and re-armed per
// statement (BeginStatement); retained plans (zoom-in re-execution) keep
// the context alive past the statement that created them.

#ifndef INSIGHTNOTES_EXEC_QUERY_CONTEXT_H_
#define INSIGHTNOTES_EXEC_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/status.h"

namespace insightnotes::core {
class EngineSnapshot;
}  // namespace insightnotes::core

namespace insightnotes::exec {

/// Shared, thread-safe memory accountant for one statement. All workers of
/// a parallel plan reserve against the same budget; a limit of 0 means
/// unlimited (accounting still runs so EXPLAIN ANALYZE can report peaks).
class MemoryBudget {
 public:
  /// Sets the byte limit (0 = unlimited) and zeroes usage/peak. Bumps the
  /// epoch: reservations still holding bytes from before the reset (e.g. a
  /// retained plan from an earlier statement) are stale and must not
  /// release against the new accounting period.
  void Reset(size_t limit_bytes) {
    limit_.store(limit_bytes, std::memory_order_relaxed);
    used_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Attempts to reserve `bytes`; returns false if that would exceed the
  /// limit (the reservation is rolled back).
  bool TryReserve(size_t bytes) {
    size_t now = used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    size_t limit = limit_.load(std::memory_order_relaxed);
    if (limit != 0 && now > limit) {
      used_.fetch_sub(bytes, std::memory_order_relaxed);
      return false;
    }
    size_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
    }
    return true;
  }

  void Release(size_t bytes) {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  size_t limit() const { return limit_.load(std::memory_order_relaxed); }
  size_t used() const { return used_.load(std::memory_order_relaxed); }
  /// High-water mark of reserved bytes since the last Reset.
  size_t peak() const { return peak_.load(std::memory_order_relaxed); }
  /// Accounting period id; bumped by Reset.
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

 private:
  std::atomic<size_t> limit_{0};
  std::atomic<size_t> used_{0};
  std::atomic<size_t> peak_{0};
  std::atomic<uint64_t> epoch_{0};
};

/// Per-operator (single-threaded) ledger against a shared MemoryBudget.
/// Charges accumulate locally and only hit the shared atomic when the
/// local slack runs out, in kChunk slabs — so per-row charging stays off
/// the contended cache line. Detached reservations still track bytes and
/// peaks (for EXPLAIN ANALYZE) but never fail.
class MemoryReservation {
 public:
  /// Slab size reserved from the shared budget at a time.
  static constexpr size_t kChunk = 64 * 1024;

  MemoryReservation() = default;
  ~MemoryReservation() { ReleaseAll(); }

  MemoryReservation(const MemoryReservation&) = delete;
  MemoryReservation& operator=(const MemoryReservation&) = delete;

  /// Points this ledger at `budget` (may be nullptr) and names the owning
  /// operator for the kResourceExhausted message: `label` is called only
  /// when a charge fails, so attaching renders no name. Releases any
  /// previous holdings first.
  void Attach(MemoryBudget* budget, std::function<std::string()> label) {
    ReleaseAll();
    budget_ = budget;
    label_ = std::move(label);
    epoch_ = budget != nullptr ? budget->epoch() : 0;
  }

  /// Records `bytes` of materialized state. Returns kResourceExhausted
  /// naming the operator if the shared budget cannot cover it.
  Status Charge(size_t bytes);

  /// Returns every reserved byte to the shared budget and zeroes the local
  /// ledger. Peak is preserved for metrics. Holdings from before a budget
  /// Reset are stale — the reset already zeroed them out of `used` — so
  /// they are dropped, not released (releasing would underflow the new
  /// accounting period).
  void ReleaseAll() {
    if (budget_ != nullptr && reserved_ > 0 && epoch_ == budget_->epoch()) {
      budget_->Release(reserved_);
    }
    reserved_ = 0;
    charged_ = 0;
  }

  /// Bytes currently charged by this operator.
  size_t charged() const { return charged_; }
  /// High-water mark of bytes charged by this operator.
  size_t peak() const { return peak_; }

 private:
  MemoryBudget* budget_ = nullptr;
  std::function<std::string()> label_;
  uint64_t epoch_ = 0;   // Budget epoch the holdings belong to.
  size_t charged_ = 0;   // Bytes the operator has recorded.
  size_t reserved_ = 0;  // Bytes actually taken from the shared budget.
  size_t peak_ = 0;
};

/// Cancellation flag + deadline + memory budget for one statement. Created
/// per session, re-armed per statement; safe to poll from every worker.
class QueryContext {
 public:
  /// Re-arms the context for a new statement: clears the cancellation
  /// flag, starts the deadline clock (`timeout_ms` 0 = no deadline) and
  /// resets the memory budget (`memory_limit_bytes` 0 = unlimited).
  void BeginStatement(int64_t timeout_ms, size_t memory_limit_bytes);

  /// Requests cancellation; the running plan unwinds with kCancelled at
  /// its next interrupt check.
  void Cancel() { cancelled_.store(true, std::memory_order_release); }

  bool cancelled() const { return cancelled_.load(std::memory_order_acquire); }

  /// Cooperative poll: OK while the statement may keep running, otherwise
  /// kCancelled or kDeadlineExceeded. Called by operator wrappers at batch
  /// and morsel boundaries; thread-safe.
  Status CheckInterrupt();

  MemoryBudget& budget() { return budget_; }

  /// Pins `snapshot` as the epoch this statement reads against: the only
  /// state its scans read. Set by Engine::Execute before Open and cleared
  /// after the plan fully drains; a scan opened with none pinned fails.
  /// Parallel workers only read it between those points, so the pool join
  /// orders the accesses.
  void SetSnapshot(std::shared_ptr<const core::EngineSnapshot> snapshot) {
    snapshot_ = std::move(snapshot);
  }

  const std::shared_ptr<const core::EngineSnapshot>& snapshot() const {
    return snapshot_;
  }

  /// Total interrupt checks since BeginStatement (all operators, all
  /// workers) — the denominator for "returns within N morsel boundaries".
  uint64_t cancel_checks() const {
    return checks_.load(std::memory_order_relaxed);
  }

  /// Test seam: trip cancellation when the `n`-th interrupt check runs
  /// (0 disables). Deterministic for one-worker plans, and a seeded
  /// "cancel somewhere mid-flight" point for multi-worker ones. Survives
  /// BeginStatement so it can be armed before the statement starts.
  void CancelAtCheck(uint64_t n) {
    cancel_at_check_.store(n, std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
  // steady_clock deadline in ns-since-epoch; 0 = no deadline.
  std::atomic<int64_t> deadline_ns_{0};
  int64_t timeout_ms_ = 0;  // For the kDeadlineExceeded message.
  std::atomic<uint64_t> checks_{0};
  std::atomic<uint64_t> cancel_at_check_{0};
  MemoryBudget budget_;
  std::shared_ptr<const core::EngineSnapshot> snapshot_;
};

}  // namespace insightnotes::exec

#endif  // INSIGHTNOTES_EXEC_QUERY_CONTEXT_H_
