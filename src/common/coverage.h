// The coverage rule of attachment metadata (Section 2.1, Theorems 1 & 2).
// An annotation covers a set of a row's columns; the empty set means the
// whole row and absorbs any column set. Re-attaching an annotation to a
// row, and merging two tuples that carry the same annotation (join,
// grouping, distinct), unions its coverage. The store and the WAL liveness
// tracker, whose column lists arrive from outside, keep them ascending and
// duplicate-free through these helpers. The query pipeline applies the
// same rule to column bitmasks, where a union is a bitwise OR and the
// all-zero mask is whole-row (core::AttachmentList).

#ifndef INSIGHTNOTES_COMMON_COVERAGE_H_
#define INSIGHTNOTES_COMMON_COVERAGE_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/sorted_ids.h"

namespace insightnotes {

/// Sorts and deduplicates a column set in place.
inline void NormalizeCoverage(std::vector<size_t>* columns) {
  std::sort(columns->begin(), columns->end());
  columns->erase(std::unique(columns->begin(), columns->end()), columns->end());
}

/// Unions column set `from` into `into`, both normalized. A whole-row side
/// (empty set) makes the union whole-row.
inline void UnionCoverage(std::vector<size_t>* into, const std::vector<size_t>& from) {
  if (into->empty()) return;
  if (from.empty()) {
    into->clear();
    return;
  }
  UnionSorted(into, from);
}

}  // namespace insightnotes

#endif  // INSIGHTNOTES_COMMON_COVERAGE_H_
