#include "core/raw_baseline.h"

#include <algorithm>
#include <unordered_map>

#include "rel/value.h"

namespace insightnotes::core {

Result<std::vector<RawTuple>> RawPropagationEngine::Scan(const rel::Table& table) const {
  std::vector<RawTuple> out;
  Status status = Status::OK();
  Status scan_status = table.Scan([&](rel::RowId row, const rel::Tuple& tuple) {
    RawTuple rt;
    rt.tuple = tuple;
    for (const ann::Attachment& att : store_->OnRow(table.id(), row)) {
      if (store_->IsArchived(att.annotation)) continue;
      auto note = store_->Get(att.annotation);
      if (!note.ok()) {
        status = note.status();
        return false;
      }
      rt.annotations.push_back(std::move(*note));
      rt.coverage.push_back(att.columns);
    }
    out.push_back(std::move(rt));
    return true;
  });
  INSIGHTNOTES_RETURN_IF_ERROR(scan_status);
  INSIGHTNOTES_RETURN_IF_ERROR(status);
  return out;
}

Result<std::vector<RawTuple>> RawPropagationEngine::Filter(
    std::vector<RawTuple> in, const rel::Expression& predicate) const {
  std::vector<RawTuple> out;
  out.reserve(in.size());
  for (RawTuple& rt : in) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(bool pass, predicate.EvaluateBool(rt.tuple));
    if (pass) out.push_back(std::move(rt));
  }
  return out;
}

std::vector<RawTuple> RawPropagationEngine::Project(
    const std::vector<RawTuple>& in, const std::vector<size_t>& kept) const {
  std::vector<RawTuple> out;
  out.reserve(in.size());
  for (const RawTuple& rt : in) {
    RawTuple projected;
    for (size_t c : kept) projected.tuple.Append(rt.tuple.ValueAt(c));
    for (size_t i = 0; i < rt.annotations.size(); ++i) {
      const std::vector<size_t>& coverage = rt.coverage[i];
      bool survives = coverage.empty() ||
                      std::any_of(coverage.begin(), coverage.end(), [&](size_t c) {
                        return std::find(kept.begin(), kept.end(), c) != kept.end();
                      });
      if (!survives) continue;
      // Remap coverage to output positions.
      std::vector<size_t> remapped;
      for (size_t c : coverage) {
        auto it = std::find(kept.begin(), kept.end(), c);
        if (it != kept.end()) remapped.push_back(static_cast<size_t>(it - kept.begin()));
      }
      projected.annotations.push_back(rt.annotations[i]);  // Full body copy.
      projected.coverage.push_back(std::move(remapped));
    }
    out.push_back(std::move(projected));
  }
  return out;
}

Result<std::vector<RawTuple>> RawPropagationEngine::Join(
    const std::vector<RawTuple>& left, const std::vector<RawTuple>& right,
    const rel::Expression& left_key, const rel::Expression& right_key) const {
  std::unordered_map<rel::Value, std::vector<size_t>, rel::ValueHash, rel::ValueEq> build;
  for (size_t i = 0; i < right.size(); ++i) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(rel::Value key, right_key.Evaluate(right[i].tuple));
    if (key.is_null()) continue;
    build[key].push_back(i);
  }
  std::vector<RawTuple> out;
  for (const RawTuple& l : left) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(rel::Value key, left_key.Evaluate(l.tuple));
    if (key.is_null()) continue;
    auto it = build.find(key);
    if (it == build.end()) continue;
    for (size_t r_index : it->second) {
      const RawTuple& r = right[r_index];
      RawTuple joined;
      joined.tuple = rel::Tuple::Concat(l.tuple, r.tuple);
      joined.annotations = l.annotations;  // Full body copies again.
      joined.coverage = l.coverage;
      size_t offset = l.tuple.NumValues();
      for (size_t i = 0; i < r.annotations.size(); ++i) {
        // Deduplicate shared annotations by id (linear scan: raw engines
        // have no compact id sets to merge).
        bool duplicate = std::any_of(
            joined.annotations.begin(), joined.annotations.end(),
            [&](const ann::Annotation& a) { return a.id == r.annotations[i].id; });
        if (duplicate) continue;
        joined.annotations.push_back(r.annotations[i]);
        std::vector<size_t> shifted;
        for (size_t c : r.coverage[i]) shifted.push_back(c + offset);
        joined.coverage.push_back(std::move(shifted));
      }
      out.push_back(std::move(joined));
    }
  }
  return out;
}

}  // namespace insightnotes::core
