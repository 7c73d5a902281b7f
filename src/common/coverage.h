// The coverage rule of attachment metadata (Section 2.1, Theorems 1 & 2).
// An annotation covers a set of a row's columns, kept ascending and
// duplicate-free; the empty set means the whole row and absorbs any column
// set. Re-attaching an annotation to a row, and merging two tuples that
// carry the same annotation (join, grouping, distinct), unions its
// coverage. The store, the WAL liveness tracker and the query pipeline all
// apply the rule through these helpers, and every union is one merge walk
// of UnionSorted.

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

/// Unions attachment list `from` into `into` in one merge walk. Both lists
/// ascend by annotation `id` and hold normalized `columns`; an id on both
/// sides keeps one entry covering the union of its column sets. `from`'s
/// columns are shifted by `offset` first: a join appends the right input's
/// columns after the left input's.
template <typename Attachment>
void UnionAttachments(std::vector<Attachment>* into, const std::vector<Attachment>& from,
                      size_t offset = 0) {
  const auto by_id = [](const Attachment& a) { return a.id; };
  const auto unite = [](Attachment* kept, const Attachment& incoming) {
    UnionCoverage(&kept->columns, incoming.columns);
  };
  if (offset == 0) {
    UnionSorted(into, from, by_id, unite);
    return;
  }
  std::vector<Attachment> shifted = from;
  for (Attachment& a : shifted) {
    for (size_t& column : a.columns) column += offset;
  }
  UnionSorted(into, shifted, by_id, unite);
}

}  // namespace insightnotes

#endif  // INSIGHTNOTES_COMMON_COVERAGE_H_
