#include "core/zoom_in.h"

#include <algorithm>
#include <cstring>
#include <span>

#include "core/summary_object.h"

namespace insightnotes::core {

namespace {

// Record layout (native byte order, no varints, no compression):
//   [u32 #columns] ([string name])*  [u32 #rows] (row)*
//   row       = [tuple] [u32 #summaries] (summary)*
//   summary   = [string instance] [string rendered] [u32 #components] (component)*
//   component = [string label] [u32 #ids] [u64 id]*
//   string    = [u32 length] [bytes]
// Serialize writes it from a ResultSnapshot, EncodeSnapshotRecord straight
// from the tuples; both go through the writers below.

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Starts a string whose bytes the caller appends in place; returns the
/// position of its length word for EndString.
size_t BeginString(std::string* out) {
  size_t at = out->size();
  PutU32(out, 0);
  return at;
}

void EndString(std::string* out, size_t at) {
  auto len = static_cast<uint32_t>(out->size() - at - sizeof(uint32_t));
  std::memcpy(out->data() + at, &len, sizeof(len));
}

void PutIds(std::string* out, std::span<const ann::AnnotationId> ids) {
  PutU32(out, static_cast<uint32_t>(ids.size()));
  out->append(reinterpret_cast<const char*>(ids.data()), ids.size_bytes());
}

void PutColumnNames(std::string* out, std::span<const std::string> names) {
  PutU32(out, static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) PutString(out, name);
}

std::vector<std::string> ColumnNames(const rel::Schema& schema) {
  std::vector<std::string> names;
  names.reserve(schema.NumColumns());
  for (const rel::Column& c : schema.columns()) names.push_back(c.QualifiedName());
  return names;
}

// Smallest encodings of the record's repeated elements, which cap how many
// of them a record of a given length can hold.
constexpr size_t kMinColumnBytes = sizeof(uint32_t);
constexpr size_t kMinRowBytes = sizeof(uint16_t) + sizeof(uint32_t);
constexpr size_t kMinSummaryBytes = 3 * sizeof(uint32_t);
constexpr size_t kMinComponentBytes = 2 * sizeof(uint32_t);
constexpr size_t kIdBytes = sizeof(uint64_t);

/// Reserves room for `n` elements read from a record, but never more than
/// the rest of the record could hold at `min_bytes` each: a corrupt count
/// fails as truncation, not as a huge allocation.
template <typename T>
void ReserveFor(std::vector<T>* v, uint32_t n, std::string_view in, size_t offset,
                size_t min_bytes) {
  v->reserve(std::min<size_t>(n, (in.size() - offset) / min_bytes));
}

Result<uint32_t> GetU32(std::string_view in, size_t* offset) {
  if (*offset + sizeof(uint32_t) > in.size()) {
    return Status::ParseError("snapshot: truncated u32");
  }
  uint32_t v;
  std::memcpy(&v, in.data() + *offset, sizeof(v));
  *offset += sizeof(v);
  return v;
}

Result<std::string> GetString(std::string_view in, size_t* offset) {
  INSIGHTNOTES_ASSIGN_OR_RETURN(uint32_t len, GetU32(in, offset));
  if (*offset + len > in.size()) {
    return Status::ParseError("snapshot: truncated string");
  }
  std::string s(in.substr(*offset, len));
  *offset += len;
  return s;
}

Result<std::vector<ann::AnnotationId>> GetIds(std::string_view in, size_t* offset) {
  INSIGHTNOTES_ASSIGN_OR_RETURN(uint32_t n, GetU32(in, offset));
  if ((in.size() - *offset) / kIdBytes < n) {
    return Status::ParseError("snapshot: truncated id list");
  }
  std::vector<ann::AnnotationId> ids(n);
  if (n > 0) std::memcpy(ids.data(), in.data() + *offset, n * kIdBytes);
  *offset += n * kIdBytes;
  return ids;
}

SummarySnapshot CaptureSummary(const SummaryObject& object) {
  SummarySnapshot s;
  s.instance = object.instance_name();
  s.rendered = object.Render();
  size_t n = object.NumComponents();
  s.components.resize(n);
  for (size_t i = 0; i < n; ++i) {
    ComponentSnapshot& component = s.components[i];
    std::span<const ann::AnnotationId> ids = object.AppendComponent(i, &component.label);
    component.ids.assign(ids.begin(), ids.end());
  }
  return s;
}

}  // namespace

Result<ResultSnapshot> ResultSnapshot::Capture(
    const rel::Schema& schema, const std::vector<AnnotatedTuple>& tuples) {
  ResultSnapshot snapshot;
  snapshot.column_names = ColumnNames(schema);
  snapshot.rows.reserve(tuples.size());
  for (const AnnotatedTuple& t : tuples) {
    RowSnapshot row;
    row.tuple = t.tuple;
    row.summaries.reserve(t.summaries.size());
    for (const auto& object : t.summaries) row.summaries.push_back(CaptureSummary(*object));
    snapshot.rows.push_back(std::move(row));
  }
  return snapshot;
}

Result<ResultSnapshot> ResultSnapshot::CaptureForZoomIn(const rel::Schema& schema,
                                                        std::vector<AnnotatedTuple> tuples,
                                                        const ZoomInRequest& request) {
  ResultSnapshot snapshot;
  snapshot.column_names = ColumnNames(schema);
  snapshot.rows.resize(tuples.size());
  for (size_t r = 0; r < tuples.size(); ++r) {
    RowSnapshot& row = snapshot.rows[r];
    row.tuple = std::move(tuples[r].tuple);
    // A row whose predicate fails (or errors, which ResolveZoomIn reports
    // itself) is never asked for its summaries.
    if (request.predicate != nullptr) {
      Result<bool> pass = request.predicate->EvaluateBool(row.tuple);
      if (!pass.ok() || !*pass) continue;
    }
    for (const auto& object : tuples[r].summaries) {
      if (object->instance_name() == request.instance_name) {
        row.summaries.push_back(CaptureSummary(*object));
        break;
      }
    }
  }
  return snapshot;
}

void ResultSnapshot::Serialize(std::string* out) const {
  PutColumnNames(out, column_names);
  PutU32(out, static_cast<uint32_t>(rows.size()));
  for (const RowSnapshot& row : rows) {
    row.tuple.Serialize(out);
    PutU32(out, static_cast<uint32_t>(row.summaries.size()));
    for (const SummarySnapshot& s : row.summaries) {
      PutString(out, s.instance);
      PutString(out, s.rendered);
      PutU32(out, static_cast<uint32_t>(s.components.size()));
      for (const ComponentSnapshot& c : s.components) {
        PutString(out, c.label);
        PutIds(out, c.ids);
      }
    }
  }
}

Result<ResultSnapshot> ResultSnapshot::Deserialize(std::string_view in) {
  ResultSnapshot snapshot;
  size_t offset = 0;
  INSIGHTNOTES_ASSIGN_OR_RETURN(uint32_t num_columns, GetU32(in, &offset));
  ReserveFor(&snapshot.column_names, num_columns, in, offset, kMinColumnBytes);
  for (uint32_t i = 0; i < num_columns; ++i) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(std::string name, GetString(in, &offset));
    snapshot.column_names.push_back(std::move(name));
  }
  INSIGHTNOTES_ASSIGN_OR_RETURN(uint32_t num_rows, GetU32(in, &offset));
  ReserveFor(&snapshot.rows, num_rows, in, offset, kMinRowBytes);
  for (uint32_t r = 0; r < num_rows; ++r) {
    RowSnapshot row;
    INSIGHTNOTES_ASSIGN_OR_RETURN(row.tuple, rel::Tuple::Deserialize(in, &offset));
    INSIGHTNOTES_ASSIGN_OR_RETURN(uint32_t num_summaries, GetU32(in, &offset));
    ReserveFor(&row.summaries, num_summaries, in, offset, kMinSummaryBytes);
    for (uint32_t s = 0; s < num_summaries; ++s) {
      SummarySnapshot summary;
      INSIGHTNOTES_ASSIGN_OR_RETURN(summary.instance, GetString(in, &offset));
      INSIGHTNOTES_ASSIGN_OR_RETURN(summary.rendered, GetString(in, &offset));
      INSIGHTNOTES_ASSIGN_OR_RETURN(uint32_t num_components, GetU32(in, &offset));
      ReserveFor(&summary.components, num_components, in, offset, kMinComponentBytes);
      for (uint32_t c = 0; c < num_components; ++c) {
        ComponentSnapshot component;
        INSIGHTNOTES_ASSIGN_OR_RETURN(component.label, GetString(in, &offset));
        INSIGHTNOTES_ASSIGN_OR_RETURN(component.ids, GetIds(in, &offset));
        summary.components.push_back(std::move(component));
      }
      row.summaries.push_back(std::move(summary));
    }
    snapshot.rows.push_back(std::move(row));
  }
  return snapshot;
}

size_t ResultSnapshot::SizeBytes() const {
  std::string bytes;
  Serialize(&bytes);
  return bytes.size();
}

size_t SnapshotRecordBound(const rel::Schema& schema,
                           const std::vector<AnnotatedTuple>& tuples) {
  size_t bytes = 2 * sizeof(uint32_t);  // Column and row counts.
  for (const rel::Column& c : schema.columns()) {
    bytes += sizeof(uint32_t) + c.QualifiedName().size();
  }
  for (const AnnotatedTuple& t : tuples) {
    // The tuple's value count and one type tag per value, the summary count.
    bytes += kMinRowBytes + t.tuple.NumValues();
    for (const auto& object : t.summaries) {
      // Every component id is written (each annotation lies behind exactly
      // one component); the rendering and labels count as empty.
      bytes += kMinSummaryBytes + object->instance_name().size() +
               object->NumComponents() * kMinComponentBytes +
               object->NumAnnotations() * kIdBytes;
    }
  }
  return bytes;
}

bool EncodeSnapshotRecord(const rel::Schema& schema,
                          const std::vector<AnnotatedTuple>& tuples, size_t limit,
                          std::string* out) {
  const size_t start = out->size();
  PutColumnNames(out, ColumnNames(schema));
  PutU32(out, static_cast<uint32_t>(tuples.size()));
  for (const AnnotatedTuple& t : tuples) {
    t.tuple.Serialize(out);
    PutU32(out, static_cast<uint32_t>(t.summaries.size()));
    for (const auto& object : t.summaries) {
      PutString(out, object->instance_name());
      size_t rendered = BeginString(out);
      object->AppendRender(out);
      EndString(out, rendered);
      size_t n = object->NumComponents();
      PutU32(out, static_cast<uint32_t>(n));
      for (size_t i = 0; i < n; ++i) {
        size_t label = BeginString(out);
        std::span<const ann::AnnotationId> ids = object->AppendComponent(i, out);
        EndString(out, label);
        PutIds(out, ids);
      }
    }
    if (out->size() - start > limit) return false;
  }
  return out->size() - start <= limit;
}

Result<std::vector<std::pair<size_t, ComponentSnapshot>>> ResolveZoomIn(
    const ResultSnapshot& snapshot, const ZoomInRequest& request) {
  std::vector<std::pair<size_t, ComponentSnapshot>> out;
  for (size_t r = 0; r < snapshot.rows.size(); ++r) {
    const RowSnapshot& row = snapshot.rows[r];
    if (request.predicate != nullptr) {
      INSIGHTNOTES_ASSIGN_OR_RETURN(bool pass, request.predicate->EvaluateBool(row.tuple));
      if (!pass) continue;
    }
    const SummarySnapshot* target = nullptr;
    for (const SummarySnapshot& s : row.summaries) {
      if (s.instance == request.instance_name) {
        target = &s;
        break;
      }
    }
    if (target == nullptr) {
      return Status::NotFound("result has no summary object of instance '" +
                              request.instance_name + "'");
    }
    if (request.component_index >= target->components.size()) {
      // Rows where the component is absent (e.g. fewer cluster groups)
      // contribute nothing rather than failing the whole command.
      continue;
    }
    out.emplace_back(r, target->components[request.component_index]);
  }
  return out;
}

}  // namespace insightnotes::core
