// Measurement scaffolding of the repo benchmark: sample sets with
// percentile floors, per-operation attempted/failed accounting, the span
// tracer of the per-layer run, and a minimal JSON writer.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Records why the run's outputs are wrong; any entry makes `correct` false.
class Verdict {
 public:
  void Fail(const std::string& what);
  bool ok() const;
  std::vector<std::string> failures() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> failures_;
};

/// Timed samples of one quantity (any unit).
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }

  double Median() const { return Quantile(0.5); }
  /// Median of the samples added since size() was `begin`.
  double MedianFrom(size_t begin) const;
  /// Linear-interpolated quantile, q in [0, 1]. 0 for an empty set.
  double Quantile(double q) const;
  /// The q-quantile, provided at least ten samples lie beyond it (so p95
  /// needs 200 samples); records a verdict failure otherwise.
  double TailQuantile(double q, std::string_view what, Verdict* verdict) const;

 private:
  std::vector<double> values_;
};

/// Milliseconds of a fixed, engine-free reference task: counting 20 000
/// short strings in a hash map, then sorting the distinct ones. Its speed
/// follows the host's speed the way the engine's does (see README.md).
double ReferenceMs();

/// Runs ReferenceMs() `runs` times in a fresh process of this binary
/// (`perfbench --reference runs`), so this process's heap cannot slow it,
/// and adds each time to `out`. Returns false if the child failed.
bool ReferenceInChild(int runs, Samples* out);

/// The child's side: three untimed warm-ups, then `runs` times printed one
/// a line. Returns the exit code.
int PrintReferenceTimes(int runs);

/// Geometric mean of positive values (0 if any is not positive).
double GeoMean(const std::vector<double>& values);

/// Attempted and failed operations per operation type.
class OpCounts {
 public:
  /// Counts one attempt of `type`; a non-OK status counts as failed and is
  /// recorded in `verdict`.
  void Record(const std::string& type, const insightnotes::Status& status,
              Verdict* verdict);
  uint64_t attempted() const;
  uint64_t failed() const;
  std::string ToJson() const;

 private:
  struct Count {
    uint64_t attempted = 0;
    uint64_t failed = 0;
  };
  mutable std::mutex mutex_;
  std::map<std::string, Count> counts_;
};

/// One traced call into a layer's public function.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = a root span (one user operation).
  uint64_t op = 0;      // Id of the root span of the same user operation.
  const char* name = "";  // "<module>.<function>", a string literal.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span recorder. Disabled tracers record nothing, so untraced
/// runs pay one branch per instrumented call. Parent and operation ids
/// follow the calling thread's open spans.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Span {
   public:
    Span(Tracer* tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    SpanRecord record_;
    uint64_t saved_parent_ = 0;
    uint64_t saved_op_ = 0;
  };

  /// Only while no other thread records spans.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  /// Durations in microseconds of every span named `name`.
  Samples DurationsUs(std::string_view name) const;
  size_t num_spans() const;
  /// Writes every span as one JSON document.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  uint64_t next_id_ = 1;  // Guarded by mutex_.
};

/// Appends `value` as a JSON number with every digit (shortest round trip).
void AppendJsonNumber(std::string* out, double value);
/// Appends `text` as a quoted, escaped JSON string.
void AppendJsonString(std::string* out, std::string_view text);

/// Name -> (value, unit), rendered as the result line's "metrics" object.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  double Get(const std::string& name) const { return metrics_.at(name).first; }
  std::string ToJson() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
