#include "exec/query_context.h"

#include <string>

namespace insightnotes::exec {

namespace {
int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

Status MemoryReservation::Charge(size_t bytes) {
  if (budget_ != nullptr && epoch_ != budget_->epoch()) {
    // A budget Reset (new statement) zeroed this ledger's holdings out of
    // the shared accounting; start fresh instead of assuming the old slabs
    // are still reserved.
    reserved_ = 0;
    epoch_ = budget_->epoch();
  }
  charged_ += bytes;
  if (charged_ > peak_) peak_ = charged_;
  if (budget_ == nullptr || charged_ <= reserved_) return Status::OK();
  // Round the shortfall up to a slab so the shared atomic is touched once
  // per kChunk of growth, not once per row.
  size_t shortfall = charged_ - reserved_;
  size_t slab = (shortfall + kChunk - 1) / kChunk * kChunk;
  if (!budget_->TryReserve(slab)) {
    return Status::ResourceExhausted(
        label_() + ": memory limit exceeded (operator holds " +
        std::to_string(charged_) + " bytes; query uses " +
        std::to_string(budget_->used()) + " of " +
        std::to_string(budget_->limit()) + "-byte limit)");
  }
  reserved_ += slab;
  return Status::OK();
}

void QueryContext::BeginStatement(int64_t timeout_ms,
                                  size_t memory_limit_bytes) {
  cancelled_.store(false, std::memory_order_release);
  checks_.store(0, std::memory_order_relaxed);
  // cancel_at_check_ deliberately survives: tests arm the trip before the
  // statement starts; CancelAtCheck(0) disarms it.
  timeout_ms_ = timeout_ms;
  deadline_ns_.store(
      timeout_ms > 0 ? NowNanos() + timeout_ms * int64_t{1000000} : 0,
      std::memory_order_relaxed);
  budget_.Reset(memory_limit_bytes);
}

Status QueryContext::CheckInterrupt() {
  uint64_t n = checks_.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t trip = cancel_at_check_.load(std::memory_order_relaxed);
  if (trip != 0 && n >= trip) Cancel();
  if (cancelled_.load(std::memory_order_acquire)) {
    return Status::Cancelled("query cancelled");
  }
  int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
  if (deadline != 0 && NowNanos() >= deadline) {
    return Status::DeadlineExceeded("statement timeout (" +
                                    std::to_string(timeout_ms_) +
                                    " ms) exceeded");
  }
  return Status::OK();
}

}  // namespace insightnotes::exec
