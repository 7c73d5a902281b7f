#include "rel/stats.h"

#include <algorithm>
#include <sstream>

namespace insightnotes::rel {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

std::string HexEncode(std::string_view bytes) {
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kHexDigits[c >> 4]);
    out.push_back(kHexDigits[c & 0xf]);
  }
  return out;
}

Result<std::string> HexDecode(std::string_view hex) {
  if (hex.size() % 2 != 0) return Status::InvalidArgument("odd hex length");
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  std::string out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = nibble(hex[i]);
    int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return Status::InvalidArgument("bad hex digit");
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

std::string EncodeValue(const Value& v) {
  std::string bytes;
  v.Serialize(&bytes);
  return HexEncode(bytes);
}

Result<Value> DecodeValue(std::string_view hex) {
  INSIGHTNOTES_ASSIGN_OR_RETURN(std::string bytes, HexDecode(hex));
  size_t offset = 0;
  INSIGHTNOTES_ASSIGN_OR_RETURN(Value v, Value::Deserialize(bytes, &offset));
  if (offset != bytes.size()) return Status::InvalidArgument("trailing value bytes");
  return v;
}

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

std::string TableStats::ToText() const {
  std::ostringstream os;
  os << "rows " << row_count << "\n";
  os << "annotated " << annotated_rows << " " << total_annotations << "\n";
  os << "anncount";
  for (const auto& [count, rows] : ann_count_freq) os << " " << count << ":" << rows;
  os << "\n";
  for (const InstanceDensity& d : instances) {
    os << "instance " << HexEncode(d.instance) << " " << d.annotated_rows << " "
       << d.total_annotations << "\n";
  }
  for (const ColumnStats& c : columns) {
    os << "column " << c.non_null_count << " " << c.null_count << " " << c.ndv
       << " " << EncodeValue(c.min) << " " << EncodeValue(c.max);
    for (const Value& b : c.bounds) os << " " << EncodeValue(b);
    os << "\n";
  }
  return os.str();
}

Result<TableStats> TableStats::FromText(std::string_view text) {
  TableStats stats;
  std::istringstream in{std::string(text)};
  std::string line;
  bool saw_rows = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "rows") {
      if (!(ls >> stats.row_count)) return Status::InvalidArgument("bad rows line");
      saw_rows = true;
    } else if (tag == "annotated") {
      if (!(ls >> stats.annotated_rows >> stats.total_annotations)) {
        return Status::InvalidArgument("bad annotated line");
      }
    } else if (tag == "anncount") {
      std::string pair;
      while (ls >> pair) {
        size_t colon = pair.find(':');
        if (colon == std::string::npos) {
          return Status::InvalidArgument("bad anncount pair '" + pair + "'");
        }
        try {
          stats.ann_count_freq.emplace_back(
              std::stoll(pair.substr(0, colon)),
              static_cast<uint64_t>(std::stoull(pair.substr(colon + 1))));
        } catch (const std::exception&) {
          return Status::InvalidArgument("bad anncount pair '" + pair + "'");
        }
      }
    } else if (tag == "instance") {
      InstanceDensity d;
      std::string hexname;
      if (!(ls >> hexname >> d.annotated_rows >> d.total_annotations)) {
        return Status::InvalidArgument("bad instance line");
      }
      INSIGHTNOTES_ASSIGN_OR_RETURN(d.instance, HexDecode(hexname));
      stats.instances.push_back(std::move(d));
    } else if (tag == "column") {
      ColumnStats c;
      std::string min_hex, max_hex;
      if (!(ls >> c.non_null_count >> c.null_count >> c.ndv >> min_hex >> max_hex)) {
        return Status::InvalidArgument("bad column line");
      }
      INSIGHTNOTES_ASSIGN_OR_RETURN(c.min, DecodeValue(min_hex));
      INSIGHTNOTES_ASSIGN_OR_RETURN(c.max, DecodeValue(max_hex));
      std::string bound_hex;
      while (ls >> bound_hex) {
        INSIGHTNOTES_ASSIGN_OR_RETURN(Value b, DecodeValue(bound_hex));
        c.bounds.push_back(std::move(b));
      }
      stats.columns.push_back(std::move(c));
    } else {
      return Status::InvalidArgument("unknown stats line tag '" + tag + "'");
    }
  }
  if (!saw_rows) return Status::InvalidArgument("stats text missing rows line");
  return stats;
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
