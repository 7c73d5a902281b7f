// Cost-based plan choice. Every plan joins left-deep in FROM order, the
// order Theorems 1 & 2 fold summary objects and attachment lists in. Given
// the FROM tables (with their single-table conjuncts and ANALYZE
// statistics), the equi-join conjuncts, and the morsel size, picks:
//
//   * an access path per table — full scan, or an index probe over an
//     existing index (rel::TableIndex) when a selective equality/range conjunct
//     makes it cheaper (the original predicate always stays as a residual
//     filter, so the probe only has to over-approximate);
//   * the parallelism degree — a driver whose access path materializes
//     fewer rows than one morsel runs one worker;
//
// and estimates the rows after every filter and join step, which the
// planner attaches to its operators for EXPLAIN ANALYZE. An index probe
// yields a subsequence of the full scan's rows, so the optimized plan never
// differs from the rule-driven one in results.

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
  std::vector<AccessPath> access;  // Indexed by FROM slot.
  /// Estimated cumulative cardinality after each join step, indexed by
  /// FROM slot (entry 0 = the driver's post-filter rows).
  std::vector<double> rows_after_step;
  double est_result_rows = 0;
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
