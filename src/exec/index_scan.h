// Index-backed table access: probes a table's secondary index (a B+-tree,
// see rel::TableIndex) for an equality key or an inclusive [lo, hi] range
// and yields the matching rows in ascending RowId order. The scan's morsel
// source (exec/parallel.h) materializes only those rows. Because RowIds are
// assigned in insertion order and a full scan emits live rows ascending,
// the probed scan's output is exactly the full scan's output restricted to
// the matching rows: stack the ORIGINAL filter predicates on top (the
// planner always keeps them as residuals) and the plan is byte-identical to
// the full-scan plan while touching only the probed subset. Strict bounds
// and NULL/type-coercion edge cases are therefore safe by construction —
// the probe may over-approximate, the residual filter decides.

#ifndef INSIGHTNOTES_EXEC_INDEX_SCAN_H_
#define INSIGHTNOTES_EXEC_INDEX_SCAN_H_

#include <string>
#include <vector>

#include "rel/table.h"

namespace insightnotes::exec {

/// What to probe: an equality key, or an inclusive range with either bound
/// optional. Strict predicate bounds are widened to inclusive ones — the
/// residual filter above discards the boundary rows.
struct IndexProbeSpec {
  size_t column = 0;        // Base-table column position of the index.
  std::string column_name;  // Display only; ToString falls back to colN.
  bool has_eq = false;
  rel::Value eq;
  bool has_lo = false;      // Ignored when has_eq.
  rel::Value lo;
  bool has_hi = false;
  rel::Value hi;

  std::string ToString() const;
};

/// Runs `probe` against `table`'s index on probe.column, appending matching
/// rows to `out` in ascending RowId order (liveness is the caller's check).
/// The probe runs when the scan's morsel source resets, so retained plans
/// (zoom-in re-execution) see the table's current contents.
/// InvalidArgument if the table has no usable index on that column.
Status ProbeIndex(const rel::Table& table, const IndexProbeSpec& probe,
                  std::vector<rel::RowId>* out);

}  // namespace insightnotes::exec

#endif  // INSIGHTNOTES_EXEC_INDEX_SCAN_H_
