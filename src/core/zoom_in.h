// Zoom-in query processing (Section 2.2): query results are materialized as
// compact *snapshots* — tuples plus, per summary object, the rendered form
// and the annotation ids behind each component. Snapshots serve future
// ZoomIn commands without re-running the query; they are what competes for
// the RCO-managed disk cache (rco_cache.h). The engine writes a result's
// cache record straight from its tuples (EncodeSnapshotRecord), and only
// when the cache can admit it; ResultSnapshot is the decoded form a cache
// hit reads back, and Capture + Serialize the reference the encoder equals.

#ifndef INSIGHTNOTES_CORE_ZOOM_IN_H_
#define INSIGHTNOTES_CORE_ZOOM_IN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "annotation/annotation.h"
#include "common/result.h"
#include "core/annotated_tuple.h"
#include "rel/expression.h"
#include "rel/schema.h"

namespace insightnotes::core {

/// Result identifier handed to users for ZoomIn references.
using QueryId = uint64_t;

struct ComponentSnapshot {
  std::string label;                      // "Behavior", "A2 x5", doc title...
  std::vector<ann::AnnotationId> ids;     // Raw annotations behind it.
};

struct SummarySnapshot {
  std::string instance;   // Instance name (zoom-in's ON clause target).
  std::string rendered;   // Display form.
  std::vector<ComponentSnapshot> components;
};

struct RowSnapshot {
  rel::Tuple tuple;
  std::vector<SummarySnapshot> summaries;
};

/// A ZoomIn command: "ZOOMIN REFERENCE QID <qid> [WHERE <predicate>]
/// ON <instance> INDEX <component>".
struct ZoomInRequest {
  QueryId qid = 0;
  rel::ExprPtr predicate;     // Optional, bound against the result schema.
  std::string instance_name;  // Which summary object.
  size_t component_index = 0; // Which component within it (0-based).
};

/// Everything needed to display a result and answer zoom-ins on it.
struct ResultSnapshot {
  std::vector<std::string> column_names;
  std::vector<RowSnapshot> rows;

  /// Captures `tuples` (with their summary objects) into snapshot form.
  static Result<ResultSnapshot> Capture(const rel::Schema& schema,
                                        const std::vector<AnnotatedTuple>& tuples);

  /// Captures only what ResolveZoomIn(request) reads of `tuples`: every
  /// tuple, but the summary of `request.instance_name` alone and only on
  /// the rows the request's predicate selects. Resolving `request` on it
  /// yields what resolving it on Capture(schema, tuples) yields: the same
  /// rows, row indices and errors.
  static Result<ResultSnapshot> CaptureForZoomIn(const rel::Schema& schema,
                                                 std::vector<AnnotatedTuple> tuples,
                                                 const ZoomInRequest& request);

  /// Binary round trip (cache storage format).
  void Serialize(std::string* out) const;
  static Result<ResultSnapshot> Deserialize(std::string_view in);

  /// Approximate in-memory/cache footprint.
  size_t SizeBytes() const;
};

struct ZoomInRowResult {
  size_t row_index = 0;          // Position in the referenced result.
  rel::Tuple tuple;              // The result row itself.
  std::string component_label;   // e.g. "refute".
  std::vector<ann::Annotation> annotations;  // The raw annotations.
};

struct ZoomInResult {
  std::vector<ZoomInRowResult> rows;
  bool served_from_cache = false;  // False when the query was re-executed.
};

/// Lower bound of the cache record of `tuples` (the size of
/// Serialize(Capture(schema, tuples))) from counts the summary objects
/// keep: 8 bytes per component id plus the record's framing. It never
/// exceeds the record's size, so a bound over the cache budget rejects a
/// result before any of it is encoded.
size_t SnapshotRecordBound(const rel::Schema& schema,
                           const std::vector<AnnotatedTuple>& tuples);

/// Appends the bytes of Serialize(Capture(schema, tuples)) to `out` in one
/// pass over the tuples: no ResultSnapshot is built, each summary is
/// rendered once and id lists are copied straight from the objects.
/// Returns false, leaving a partial record in `out`, as soon as the record
/// passes `limit` bytes.
bool EncodeSnapshotRecord(const rel::Schema& schema,
                          const std::vector<AnnotatedTuple>& tuples, size_t limit,
                          std::string* out);

/// Resolves `request` against a snapshot: selects rows by predicate, finds
/// the named summary, and returns the component's annotation ids per row
/// (bodies are fetched by the engine).
Result<std::vector<std::pair<size_t, ComponentSnapshot>>> ResolveZoomIn(
    const ResultSnapshot& snapshot, const ZoomInRequest& request);

}  // namespace insightnotes::core

#endif  // INSIGHTNOTES_CORE_ZOOM_IN_H_
