#include "sql/optimizer.h"

#include <algorithm>

namespace insightnotes::sql {

namespace {

/// An index probe must return a superset of the rows the residual filter
/// keeps, under the same total order the filter evaluates with. Numeric
/// literals on numeric columns and string literals on string columns
/// compare identically in rel::ValueLess and rel::Value::Compare; anything
/// else (NULL literals, cross-class comparisons that would TypeError at
/// filter time) is excluded so both plans behave identically.
bool ProbeTypeCompatible(const rel::Value& lit, rel::ValueType column_type) {
  if (lit.is_null()) return false;
  bool lit_numeric = lit.type() == rel::ValueType::kInt64 ||
                     lit.type() == rel::ValueType::kFloat64;
  bool col_numeric = column_type == rel::ValueType::kInt64 ||
                     column_type == rel::ValueType::kFloat64;
  if (lit_numeric && col_numeric) return true;
  return lit.type() == rel::ValueType::kString &&
         column_type == rel::ValueType::kString;
}

/// Normalizes a comparison conjunct to <column> <op> <literal>; false when
/// it has a different shape.
bool NormalizeCompare(const AstExpr& pred, const AstExpr** column,
                      const AstExpr** literal, rel::CompareOp* op) {
  if (pred.kind != AstExpr::Kind::kCompare) return false;
  if (pred.left->kind == AstExpr::Kind::kColumn &&
      pred.right->kind == AstExpr::Kind::kLiteral) {
    *column = pred.left.get();
    *literal = pred.right.get();
    *op = pred.compare_op;
    return true;
  }
  if (pred.right->kind == AstExpr::Kind::kColumn &&
      pred.left->kind == AstExpr::Kind::kLiteral) {
    *column = pred.right.get();
    *literal = pred.left.get();
    switch (pred.compare_op) {
      case rel::CompareOp::kLt: *op = rel::CompareOp::kGt; break;
      case rel::CompareOp::kLe: *op = rel::CompareOp::kGe; break;
      case rel::CompareOp::kGt: *op = rel::CompareOp::kLt; break;
      case rel::CompareOp::kGe: *op = rel::CompareOp::kLe; break;
      default: *op = pred.compare_op; break;
    }
    return true;
  }
  return false;
}

AccessPath ChooseAccessPath(const OptimizerTable& slot, const CostModel& cost) {
  double rows = static_cast<double>(slot.table->NumRows());
  const rel::TableStats* stats = slot.stats.get();
  double selectivity = 1.0;
  for (const AstExpr* filter : slot.filters) {
    selectivity *= EstimateSelectivity(*filter, slot.schema, stats);
  }
  AccessPath path;
  path.est_rows = rows * selectivity;
  path.scan_rows = rows;
  path.cost = cost.seq_row * rows;

  for (const AstExpr* filter : slot.filters) {
    const AstExpr* column = nullptr;
    const AstExpr* literal = nullptr;
    rel::CompareOp op = rel::CompareOp::kEq;
    if (!NormalizeCompare(*filter, &column, &literal, &op)) continue;
    Result<size_t> position = slot.schema.IndexOf(column->name);
    if (!position.ok()) continue;
    {
      // CREATE INDEX swaps index slots under the table's exclusive latch.
      auto latch = slot.table->ReadLock();
      if (slot.table->IndexOn(*position) == nullptr) continue;
    }
    if (!ProbeTypeCompatible(literal->value,
                             slot.schema.ColumnAt(*position).type)) {
      continue;
    }
    exec::IndexProbeSpec probe;
    probe.column = *position;
    probe.column_name = slot.schema.ColumnAt(*position).name;
    switch (op) {
      case rel::CompareOp::kEq:
        probe.has_eq = true;
        probe.eq = literal->value;
        break;
      case rel::CompareOp::kLt:
      case rel::CompareOp::kLe:
        // Strict bounds widen to inclusive; the residual filter trims.
        probe.has_hi = true;
        probe.hi = literal->value;
        break;
      case rel::CompareOp::kGt:
      case rel::CompareOp::kGe:
        probe.has_lo = true;
        probe.lo = literal->value;
        break;
      default:
        continue;  // != cannot be probed.
    }
    double matched = rows * EstimateSelectivity(*filter, slot.schema, stats);
    double probe_cost = cost.index_probe + cost.index_row * matched;
    if (probe_cost < path.cost) {
      path.use_index = true;
      path.probe = std::move(probe);
      path.scan_rows = matched;
      path.cost = probe_cost;
    }
  }
  return path;
}

/// Estimated cumulative cardinality after each step of the left-deep
/// FROM-order join (entry 0 = the driver's post-filter rows). A step with
/// no equi conjunct into the prefix is a cross product.
std::vector<double> JoinEstimates(const std::vector<OptimizerTable>& tables,
                                  const std::vector<OptimizerJoin>& joins,
                                  const std::vector<AccessPath>& access) {
  std::vector<double> rows_after_step;
  double current = access[0].est_rows;
  rows_after_step.push_back(current);
  for (size_t t = 1; t < tables.size(); ++t) {
    double right_rows = access[t].est_rows;
    bool connected = false;
    double joined = current * right_rows;  // Cross product until proven joined.
    for (const OptimizerJoin& join : joins) {
      size_t prefix_side, t_side;
      const std::string *prefix_column, *t_column;
      if (join.left_table == t && join.right_table < t) {
        t_side = join.left_table;
        t_column = &join.left_column;
        prefix_side = join.right_table;
        prefix_column = &join.right_column;
      } else if (join.right_table == t && join.left_table < t) {
        t_side = join.right_table;
        t_column = &join.right_column;
        prefix_side = join.left_table;
        prefix_column = &join.left_column;
      } else {
        continue;
      }
      double prefix_ndv =
          ColumnNdv(tables[prefix_side].schema, *prefix_column,
                    tables[prefix_side].stats.get(),
                    /*fallback=*/access[prefix_side].est_rows);
      double t_ndv = ColumnNdv(tables[t_side].schema, *t_column,
                               tables[t_side].stats.get(),
                               /*fallback=*/right_rows);
      if (!connected) {
        joined = EstimateJoinRows(current, right_rows, prefix_ndv, t_ndv);
        connected = true;
      } else {
        // Additional conjuncts between the same prefix and table filter
        // further: 1 / max(ndv) each, independence-style.
        joined /= std::max(1.0, std::max(prefix_ndv, t_ndv));
      }
    }
    current = joined;
    rows_after_step.push_back(current);
  }
  return rows_after_step;
}

}  // namespace

PlanChoice ChoosePlan(const std::vector<OptimizerTable>& tables,
                      const std::vector<OptimizerJoin>& joins,
                      size_t morsel_size, const CostModel& cost) {
  PlanChoice choice;
  choice.access.reserve(tables.size());
  for (const OptimizerTable& slot : tables) {
    choice.access.push_back(ChooseAccessPath(slot, cost));
  }
  choice.rows_after_step = JoinEstimates(tables, joins, choice.access);
  choice.est_result_rows = choice.rows_after_step.back();
  choice.serial = choice.access[0].scan_rows < static_cast<double>(morsel_size);
  return choice;
}

}  // namespace insightnotes::sql
