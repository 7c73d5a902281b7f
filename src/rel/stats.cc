#include "rel/stats.h"

#include <algorithm>

namespace insightnotes::rel {

namespace {

bool ValueLt(const Value& a, const Value& b) { return ValueLess{}(a, b); }

/// Linear position of v inside (lo, hi], for numeric bounds; 0.5 otherwise.
double Interpolate(const Value& lo, const Value& v, const Value& hi) {
  auto lo_n = lo.ToNumeric();
  auto hi_n = hi.ToNumeric();
  auto v_n = v.ToNumeric();
  if (!lo_n.ok() || !hi_n.ok() || !v_n.ok()) return 0.5;
  double span = *hi_n - *lo_n;
  if (span <= 0) return 1.0;
  double t = (*v_n - *lo_n) / span;
  return std::clamp(t, 0.0, 1.0);
}

}  // namespace

double ColumnStats::FractionBelow(const Value& v) const {
  if (bounds.empty() || non_null_count == 0) return 0.5;
  if (!ValueLt(bounds.front(), v)) return 0.0;  // v <= min.
  if (ValueLt(bounds.back(), v)) return 1.0;    // v > max.
  size_t num_buckets = bounds.size() - 1;
  if (num_buckets == 0) return 0.5;
  // First boundary at or above v: v falls in bucket (bounds[j-1], bounds[j]].
  size_t j = 1;
  while (j < bounds.size() && ValueLt(bounds[j], v)) ++j;
  double t = Interpolate(bounds[j - 1], v, bounds[j]);
  return (static_cast<double>(j - 1) + t) / static_cast<double>(num_buckets);
}

double ColumnStats::EqSelectivity(const Value& v) const {
  uint64_t total = non_null_count + null_count;
  if (total == 0) return 0.0;
  if (v.is_null()) return static_cast<double>(null_count) / total;
  if (non_null_count == 0 || ndv == 0) return 0.0;
  if (ValueLt(v, min) || ValueLt(max, v)) return 0.0;  // Outside [min, max].
  return (1.0 / static_cast<double>(ndv)) * NonNullFraction();
}

double ColumnStats::RangeSelectivity(const Value* lo, bool lo_inclusive,
                                     const Value* hi, bool hi_inclusive) const {
  if (non_null_count == 0) return 0.0;
  double eq_mass = ndv == 0 ? 0.0 : 1.0 / static_cast<double>(ndv);
  auto in_range = [&](const Value& v) {
    return !ValueLt(v, min) && !ValueLt(max, v);
  };
  double ub = 1.0;
  if (hi != nullptr) {
    ub = FractionBelow(*hi);
    if (hi_inclusive && in_range(*hi)) ub += eq_mass;
  }
  double lb = 0.0;
  if (lo != nullptr) {
    lb = FractionBelow(*lo);
    if (!lo_inclusive && in_range(*lo)) lb += eq_mass;
  }
  return std::clamp(ub - lb, 0.0, 1.0) * NonNullFraction();
}

double TableStats::AnnCountSelectivity(CompareOp op, int64_t k) const {
  uint64_t total = 0;
  for (const auto& [count, rows] : ann_count_freq) total += rows;
  if (total == 0) return 0.5;
  uint64_t matching = 0;
  for (const auto& [count, rows] : ann_count_freq) {
    bool hit = false;
    switch (op) {
      case CompareOp::kEq: hit = count == k; break;
      case CompareOp::kNe: hit = count != k; break;
      case CompareOp::kLt: hit = count < k; break;
      case CompareOp::kLe: hit = count <= k; break;
      case CompareOp::kGt: hit = count > k; break;
      case CompareOp::kGe: hit = count >= k; break;
    }
    if (hit) matching += rows;
  }
  return static_cast<double>(matching) / static_cast<double>(total);
}

ColumnStats BuildColumnStats(std::vector<Value> values, size_t num_buckets) {
  ColumnStats stats;
  std::vector<Value> non_null;
  non_null.reserve(values.size());
  for (Value& v : values) {
    if (v.is_null()) {
      ++stats.null_count;
    } else {
      non_null.push_back(std::move(v));
    }
  }
  stats.non_null_count = non_null.size();
  if (non_null.empty()) return stats;
  std::sort(non_null.begin(), non_null.end(), ValueLess{});
  stats.ndv = 1;
  for (size_t i = 1; i < non_null.size(); ++i) {
    if (!(non_null[i] == non_null[i - 1])) ++stats.ndv;
  }
  stats.min = non_null.front();
  stats.max = non_null.back();
  size_t n = non_null.size();
  size_t buckets = std::max<size_t>(1, std::min(num_buckets, n));
  stats.bounds.reserve(buckets + 1);
  stats.bounds.push_back(non_null.front());
  for (size_t i = 1; i <= buckets; ++i) {
    stats.bounds.push_back(non_null[(i * n) / buckets - 1]);
  }
  return stats;
}

}  // namespace insightnotes::rel
