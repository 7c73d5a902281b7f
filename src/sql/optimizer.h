// Cost-based plan search. Given the FROM tables (with their single-table
// conjuncts and ANALYZE statistics), the equi-join conjuncts, and the
// morsel size, picks:
//
//   * an access path per table — full scan, or an index probe over an
//     existing index (rel::TableIndex) when a selective equality/range conjunct
//     makes it cheaper (the original predicate always stays as a residual
//     filter, so the probe only has to over-approximate);
//   * a left-deep join order — exhaustive permutation search for up to 6
//     tables, greedy beyond — where non-identity orders are admitted only
//     when every FROM table has ANALYZE statistics (defaults are not
//     evidence), every step is connected by an equi conjunct (no cross
//     products)
//     and tables carrying annotations or linked summary instances keep
//     their FROM-relative order (which keeps merged summary objects and
//     attachment metadata byte-identical; see DESIGN.md);
//   * the parallelism degree — a driver whose access path materializes
//     fewer rows than one morsel runs one worker.
//
// A reordered plan pays a RestoreOrder charge for sorting its output back
// into canonical FROM order, so reordering only wins when the join-size
// reduction covers that sort. The identity order is always a candidate:
// the optimizer can never do worse than the rule-driven plan by more than
// an estimation error, and never differs from it in results.

#ifndef INSIGHTNOTES_SQL_OPTIMIZER_H_
#define INSIGHTNOTES_SQL_OPTIMIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/index_scan.h"
#include "rel/stats.h"
#include "rel/table.h"
#include "sql/ast.h"
#include "sql/card_est.h"

namespace insightnotes::sql {

/// One FROM slot as the optimizer sees it.
struct OptimizerTable {
  const rel::Table* table = nullptr;
  rel::Schema schema;  // Aliased.
  std::shared_ptr<const rel::TableStats> stats;  // Null until ANALYZE.
  std::vector<const AstExpr*> filters;  // Single-table conjuncts.
  /// True when the table has linked summary instances or stored
  /// annotations: such tables must keep their FROM-relative order.
  bool annotated = false;
};

/// One equi-join conjunct between exactly two FROM slots.
struct OptimizerJoin {
  size_t left_table = 0;
  std::string left_column;  // Column name as written (possibly qualified).
  size_t right_table = 0;
  std::string right_column;
};

/// Chosen access path of one FROM slot.
struct AccessPath {
  bool use_index = false;
  exec::IndexProbeSpec probe;  // Valid when use_index.
  double scan_rows = 0;  // Rows the access path materializes.
  double est_rows = 0;   // Rows surviving all of the slot's filters.
  double cost = 0;
};

struct PlanChoice {
  std::vector<size_t> join_order;  // Permutation of FROM slots.
  bool reordered = false;          // join_order != identity.
  std::vector<AccessPath> access;  // Indexed by FROM slot.
  /// Estimated cumulative cardinality after each join step, indexed by
  /// join-order position (entry 0 = the driver's post-filter rows).
  std::vector<double> rows_after_step;
  double est_result_rows = 0;
  double total_cost = 0;
  /// True when the driver's access path materializes fewer rows than one
  /// morsel: more workers would have nothing to share, so the planner
  /// runs the section with one inline worker.
  bool serial = false;
};

PlanChoice ChoosePlan(const std::vector<OptimizerTable>& tables,
                      const std::vector<OptimizerJoin>& joins,
                      size_t morsel_size, const CostModel& cost = {});

}  // namespace insightnotes::sql

#endif  // INSIGHTNOTES_SQL_OPTIMIZER_H_
