// Cardinality estimation over the unbound AST: selectivity of single-table
// predicates from rel::TableStats (equi-depth histograms, NDVs, null
// fractions), equi-join output cardinality from per-side NDVs, and the
// per-row cost constants the optimizer prices access paths with.
// Estimates only pick an access path and label operators for EXPLAIN
// ANALYZE — every plan joins in FROM order and is byte-identical in
// results to the rule-driven plan, so a bad estimate can cost time, never
// correctness.

#ifndef INSIGHTNOTES_SQL_CARD_EST_H_
#define INSIGHTNOTES_SQL_CARD_EST_H_

#include "rel/schema.h"
#include "rel/stats.h"
#include "sql/ast.h"

namespace insightnotes::sql {

/// Fallback selectivities when ANALYZE has not run (or a column has no
/// distribution). Pinned by sql/card_est_test.
inline constexpr double kDefaultEqSelectivity = 0.1;
inline constexpr double kDefaultRangeSelectivity = 0.3;
inline constexpr double kDefaultUnknownSelectivity = 0.5;

/// Estimated fraction of `schema`'s rows satisfying `pred` (a single-table
/// predicate). Handles <column> <op> <literal> comparisons (either side),
/// AND / OR / NOT compositions, and falls back to the defaults above for
/// anything it cannot see through. Always in [0, 1]. `stats` may be null.
double EstimateSelectivity(const AstExpr& pred, const rel::Schema& schema,
                           const rel::TableStats* stats);

/// NDV of column `name` per `stats`; `fallback` when the column is unknown
/// or unanalyzed. Never below 1.
double ColumnNdv(const rel::Schema& schema, const std::string& name,
                 const rel::TableStats* stats, double fallback);

/// Equi-join output cardinality: |L| * |R| / max(ndv_left, ndv_right)
/// (containment-of-values assumption). NDVs are clamped to their side's
/// row count first.
double EstimateJoinRows(double left_rows, double right_rows, double left_ndv,
                        double right_ndv);

/// Per-row charges of the access-path choice, in arbitrary units (~ one
/// per-tuple function call). Relative magnitudes are what matters: an
/// index probe has a fixed setup charge but fetches only matching rows.
struct CostModel {
  double seq_row = 1.0;       // Scan + materialize one row.
  double index_probe = 8.0;   // Fixed charge per index probe.
  double index_row = 1.2;     // Fetch one matching row through the index.
};

}  // namespace insightnotes::sql

#endif  // INSIGHTNOTES_SQL_CARD_EST_H_
