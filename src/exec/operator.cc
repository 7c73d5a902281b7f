#include "exec/operator.h"

#include "common/clock.h"

namespace insightnotes::exec {

Status Operator::Open() {
  INSIGHTNOTES_RETURN_IF_ERROR(CheckInterrupt());
  if (!metrics_enabled_) return OpenImpl();
  Stopwatch watch;
  Status status = OpenImpl();
  metrics_.wall_ns += static_cast<uint64_t>(watch.ElapsedNanos());
  return status;
}

Result<bool> Operator::NextBatch(core::AnnotatedBatch* out) {
  out->Clear();
  INSIGHTNOTES_RETURN_IF_ERROR(CheckInterrupt());
  Result<bool> more = [&]() -> Result<bool> {
    if (!metrics_enabled_) return NextBatchImpl(out);
    Stopwatch watch;
    Result<bool> r = NextBatchImpl(out);
    metrics_.wall_ns += static_cast<uint64_t>(watch.ElapsedNanos());
    return r;
  }();
  if (more.ok() && *more) {
    ++metrics_.batches_out;
    metrics_.rows_out += out->tuples.size();
  }
  return more;
}

Status Operator::Close() {
  // Parent-first so operators holding in-flight worker jobs (gather, join
  // build) quiesce before the shared state and children they reference are
  // torn down; memory goes back to the budget last.
  Status status = CloseImpl();
  for (Operator* child : Children()) {
    Status child_status = child->Close();
    if (status.ok()) status = child_status;
  }
  ReleaseMemory();
  return status;
}

}  // namespace insightnotes::exec
