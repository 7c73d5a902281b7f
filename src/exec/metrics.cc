#include "exec/metrics.h"

#include <sstream>

namespace insightnotes::exec {

PlanMetrics CollectPlanMetrics(Operator* root) {
  PlanMetrics node;
  node.name = root->Name();
  node.metrics = root->metrics();
  node.est_rows = root->PlannerEstimate();
  node.has_est = root->HasPlannerEstimate();
  for (Operator* child : root->Children()) {
    node.children.push_back(CollectPlanMetrics(child));
    node.rows_in += node.children.back().metrics.rows_out;
  }
  return node;
}

namespace {

void RenderShape(Operator* op, size_t depth, std::ostringstream* os) {
  *os << std::string(depth * 2, ' ') << "-> " << op->Name()
      << " (est_rows=" << op->PlannerEstimate() << ")\n";
  for (Operator* child : op->Children()) RenderShape(child, depth + 1, os);
}

/// Estimated-vs-actual drift ratio, always >= 1 (max/min, zero-safe: zero
/// counts are treated as 1 so a 0-vs-0 operator reports drift 1).
double DriftRatio(uint64_t est, uint64_t actual) {
  double a = static_cast<double>(est == 0 ? 1 : est);
  double b = static_cast<double>(actual == 0 ? 1 : actual);
  return a > b ? a / b : b / a;
}

void RenderNode(const PlanMetrics& node, size_t depth, std::ostringstream* os) {
  *os << std::string(depth * 2, ' ') << "-> " << node.name << "  (rows_in="
      << node.rows_in << " rows_out=" << node.metrics.rows_out;
  if (node.has_est) {
    double drift = DriftRatio(node.est_rows, node.metrics.rows_out);
    *os << " est_rows=" << node.est_rows << " drift=" << drift
        << (drift > 10.0 ? " [EST-DRIFT>10x]" : "");
  }
  *os << " batches=" << node.metrics.batches_out;
  if (node.metrics.morsels > 0) *os << " morsels=" << node.metrics.morsels;
  if (node.metrics.build_partitions > 0) {
    *os << " build_partitions=" << node.metrics.build_partitions;
  }
  if (node.metrics.partial_groups > 0) {
    *os << " partial_groups=" << node.metrics.partial_groups;
  }
  if (node.metrics.rows_pruned > 0) {
    *os << " rows_pruned=" << node.metrics.rows_pruned;
  }
  if (node.metrics.bound_updates > 0) {
    *os << " bound_updates=" << node.metrics.bound_updates;
  }
  if (node.metrics.merge_ns > 0) {
    *os << " merge_ms=" << static_cast<double>(node.metrics.merge_ns) / 1e6;
  }
  if (node.metrics.rows_settled > 0) {
    *os << " settled=" << node.metrics.rows_settled
        << " settle_ms=" << static_cast<double>(node.metrics.settle_ns) / 1e6;
  }
  if (node.metrics.memo_hits > 0 || node.metrics.memo_fills > 0) {
    *os << " memo_hits=" << node.metrics.memo_hits
        << " memo_fills=" << node.metrics.memo_fills;
  }
  if (node.metrics.cancel_checks > 0) {
    *os << " cancel_checks=" << node.metrics.cancel_checks;
  }
  if (node.metrics.mem_peak > 0) {
    *os << " mem_peak=" << node.metrics.mem_peak;
  }
  *os << " wall_ms=" << static_cast<double>(node.metrics.wall_ns) / 1e6 << ")\n";
  for (const PlanMetrics& child : node.children) RenderNode(child, depth + 1, os);
}

}  // namespace

std::string RenderPlan(Operator* root) {
  std::ostringstream os;
  RenderShape(root, 0, &os);
  return os.str();
}

std::string RenderPlanMetrics(const PlanMetrics& root) {
  std::ostringstream os;
  RenderNode(root, 0, &os);
  return os.str();
}

}  // namespace insightnotes::exec
