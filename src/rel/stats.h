// Table statistics for the cost-based optimizer: per-column NDV, min/max,
// null counts and equi-depth histograms, plus the per-row annotation-count
// distribution. Collected by ANALYZE <table> (Engine::Analyze scans once)
// and snapshotted immutably on the owning rel::Table. Row counts are read
// live from the table at estimation time; ANALYZE refreshes the
// distributions.

#ifndef INSIGHTNOTES_REL_STATS_H_
#define INSIGHTNOTES_REL_STATS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "rel/expression.h"
#include "rel/value.h"

namespace insightnotes::rel {

/// Distribution of one column at ANALYZE time. Selectivity estimates are
/// fractions of ALL rows (nulls included): a NULL cell never satisfies a
/// comparison predicate, so the non-null fraction scales every formula.
struct ColumnStats {
  uint64_t non_null_count = 0;
  uint64_t null_count = 0;
  uint64_t ndv = 0;                // Distinct non-null values.
  Value min;                       // NULL when the column had no values.
  Value max;
  /// Equi-depth histogram boundaries, ascending: bounds.front() == min,
  /// bounds.back() == max, and each of the bounds.size()-1 buckets
  /// (bounds[i], bounds[i+1]] holds ~non_null_count / (bounds.size()-1)
  /// values. Empty when the column had no non-null values.
  std::vector<Value> bounds;

  double NonNullFraction() const {
    uint64_t total = non_null_count + null_count;
    return total == 0 ? 0.0 : static_cast<double>(non_null_count) / total;
  }

  /// Estimated fraction of all rows with column == v (0 when v falls
  /// outside [min, max]; 1/ndv of the non-null mass otherwise).
  double EqSelectivity(const Value& v) const;

  /// Estimated fraction of all rows inside the (optionally half-open)
  /// range. Null bound pointers mean unbounded on that side.
  double RangeSelectivity(const Value* lo, bool lo_inclusive, const Value* hi,
                          bool hi_inclusive) const;

  /// Estimated fraction of *non-null* values strictly below v, from the
  /// histogram (linear interpolation inside numeric buckets).
  double FractionBelow(const Value& v) const;
};

/// Immutable per-table snapshot. Built by BuildTableStats/Engine::Analyze;
/// hang it on the table with Table::SetStats.
struct TableStats {
  uint64_t row_count = 0;  // Live rows at ANALYZE time.
  std::vector<ColumnStats> columns;

  /// Exact per-row live-annotation-count distribution: (count, rows with
  /// that count) sorted ascending by count, covering all rows (count 0
  /// included). Drives SUMMARY_COUNT(...) selectivity.
  std::vector<std::pair<int64_t, uint64_t>> ann_count_freq;

  /// Estimated fraction of rows whose annotation count satisfies
  /// `count <op> k` (SUMMARY_COUNT predicates). 0.5 without data.
  double AnnCountSelectivity(CompareOp op, int64_t k) const;
};

/// Builds the distribution of one column from its cell values (consumed).
/// `num_buckets` caps the equi-depth histogram resolution.
ColumnStats BuildColumnStats(std::vector<Value> values, size_t num_buckets = 32);

}  // namespace insightnotes::rel

#endif  // INSIGHTNOTES_REL_STATS_H_
