#include "exec/index_scan.h"

#include <algorithm>

namespace insightnotes::exec {

std::string IndexProbeSpec::ToString() const {
  std::string out =
      column_name.empty() ? "col" + std::to_string(column) : column_name;
  if (has_eq) return out + " = " + eq.ToString();
  std::string lo_s = has_lo ? lo.ToString() : "-inf";
  std::string hi_s = has_hi ? hi.ToString() : "+inf";
  return out + " in [" + lo_s + ", " + hi_s + "]";
}

Status ProbeIndex(const rel::Table& table, const IndexProbeSpec& probe,
                  std::vector<rel::RowId>* out) {
  // SwapIndex replaces the index structure under the table's exclusive
  // latch; the shared latch keeps the probe consistent against it.
  auto latch = table.ReadLock();
  const rel::TableIndex* index = table.IndexOn(probe.column);
  if (index == nullptr) {
    return Status::InvalidArgument("table '" + table.name() + "' has no index on column " +
                                   std::to_string(probe.column));
  }
  size_t first = out->size();
  if (probe.has_eq) {
    INSIGHTNOTES_RETURN_IF_ERROR(index->LookupInto(probe.eq, out));
  } else {
    INSIGHTNOTES_RETURN_IF_ERROR(
        index->RangeInto(probe.has_lo ? &probe.lo : nullptr,
                         probe.has_hi ? &probe.hi : nullptr, out));
  }
  // The index yields rows grouped by key; re-establish global RowId order
  // so the emission order is a subsequence of the full-scan order.
  std::sort(out->begin() + first, out->end());
  return Status::OK();
}

}  // namespace insightnotes::exec
