#include "core/raw_baseline.h"

#include <algorithm>
#include <unordered_map>

#include "rel/value.h"

namespace insightnotes::core {

namespace {

struct TupleHash {
  size_t operator()(const rel::Tuple& t) const { return static_cast<size_t>(t.Hash()); }
};

/// Adds `from`'s annotations to `into`'s, deduplicated by id (linear scan,
/// as in Join). With `whole_row` every added annotation covers the whole
/// row; otherwise a repeated id's coverage becomes the union of both
/// (empty, the whole row, absorbs any columns).
void UnionAnnotations(const RawTuple& from, bool whole_row, RawTuple* into) {
  for (size_t i = 0; i < from.annotations.size(); ++i) {
    const std::vector<size_t> columns =
        whole_row ? std::vector<size_t>{} : from.coverage[i];
    auto it = std::find_if(
        into->annotations.begin(), into->annotations.end(),
        [&](const ann::Annotation& a) { return a.id == from.annotations[i].id; });
    if (it == into->annotations.end()) {
      into->annotations.push_back(from.annotations[i]);  // Full body copy.
      into->coverage.push_back(columns);
      continue;
    }
    std::vector<size_t>& held =
        into->coverage[static_cast<size_t>(it - into->annotations.begin())];
    if (held.empty() || columns.empty()) {
      held.clear();
      continue;
    }
    held.insert(held.end(), columns.begin(), columns.end());
    std::sort(held.begin(), held.end());
    held.erase(std::unique(held.begin(), held.end()), held.end());
  }
}

}  // namespace

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

Result<std::vector<RawGroup>> RawPropagationEngine::Group(
    const std::vector<RawTuple>& in, const std::vector<rel::ExprPtr>& keys) const {
  std::unordered_map<rel::Tuple, size_t, TupleHash> index;
  std::vector<RawGroup> groups;
  for (size_t i = 0; i < in.size(); ++i) {
    rel::Tuple key;
    for (const rel::ExprPtr& expr : keys) {
      INSIGHTNOTES_ASSIGN_OR_RETURN(rel::Value v, expr->Evaluate(in[i].tuple));
      key.Append(std::move(v));
    }
    auto [it, inserted] = index.emplace(key, groups.size());
    if (inserted) {
      groups.emplace_back();
      groups.back().row.tuple = std::move(key);
    }
    RawGroup& group = groups[it->second];
    group.members.push_back(i);
    UnionAnnotations(in[i], /*whole_row=*/true, &group.row);
  }
  return groups;
}

std::vector<RawTuple> RawPropagationEngine::Distinct(
    const std::vector<RawTuple>& in) const {
  std::unordered_map<rel::Tuple, size_t, TupleHash> index;
  std::vector<RawTuple> out;
  for (const RawTuple& rt : in) {
    auto [it, inserted] = index.emplace(rt.tuple, out.size());
    if (inserted) {
      out.emplace_back();
      out.back().tuple = rt.tuple;
    }
    UnionAnnotations(rt, /*whole_row=*/false, &out[it->second]);
  }
  return out;
}

}  // namespace insightnotes::core
