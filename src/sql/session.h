// SqlSession: executes InsightNotes SQL statements against an Engine —
// the layer InsightNotesGate (the GUI of Figure 5; here, the interactive
// shell example) talks to.

#ifndef INSIGHTNOTES_SQL_SESSION_H_
#define INSIGHTNOTES_SQL_SESSION_H_

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "common/result.h"
#include "core/engine.h"
#include "exec/query_context.h"
#include "sql/planner.h"

namespace insightnotes::sql {

/// The outcome of one statement.
struct ExecutionOutput {
  enum class Kind { kRows, kZoomIn, kMessage };
  Kind kind = Kind::kMessage;
  core::QueryResult result;   // kRows.
  core::ZoomInResult zoom;    // kZoomIn.
  std::string message;        // kMessage (DDL acknowledgements etc.).
};

class SqlSession {
 public:
  /// `engine` must outlive the session. The session's parallelism knob
  /// starts at `planner_options.parallelism` when that is explicit (> 1),
  /// otherwise at the hardware concurrency; SET PARALLELISM = N adjusts it
  /// (1 = one worker, run inline).
  explicit SqlSession(core::Engine* engine, PlannerOptions planner_options = {})
      : engine_(engine),
        planner_options_(planner_options),
        parallelism_(planner_options.parallelism > 1
                         ? planner_options.parallelism
                         : std::max<size_t>(1, std::thread::hardware_concurrency())),
        ns_(engine->NewSessionNamespace()),
        context_(std::make_shared<exec::QueryContext>()) {}

  /// Parses, plans and executes one statement. With `trace` non-null,
  /// SELECTs record per-operator tuple flow (traced queries run one worker
  /// with the rule-driven plan, so events arrive in pipeline order and
  /// every scanned row shows up, even where an index probe would skip it).
  ///
  /// Every SELECT / EXPLAIN re-arms the session's QueryContext: the
  /// statement runs under `SET STATEMENT_TIMEOUT` / `SET MEMORY_LIMIT` and
  /// can be aborted mid-flight with CancelCurrent().
  Result<ExecutionOutput> Execute(std::string_view sql,
                                  std::vector<core::TraceEvent>* trace = nullptr);

  /// Requests cancellation of the statement currently executing (from
  /// another thread); it unwinds with kCancelled at its next cooperative
  /// interrupt check. A no-op between statements (Execute re-arms the
  /// flag).
  void CancelCurrent() { context_->Cancel(); }

  core::Engine* engine() { return engine_; }

  size_t parallelism() const { return parallelism_; }
  bool optimizer_enabled() const { return optimizer_enabled_; }
  int64_t statement_timeout_ms() const { return statement_timeout_ms_; }
  size_t memory_limit_bytes() const { return memory_limit_bytes_; }

  /// The per-statement lifecycle state (test seam: CancelAtCheck,
  /// cancel_checks, budget peaks).
  const std::shared_ptr<exec::QueryContext>& query_context() { return context_; }

  /// This session's QID namespace. The engine's first session (namespace 0)
  /// keeps the legacy engine-assigned ids (101, 102, ...) so single-session
  /// callers see unchanged QIDs; later sessions mint their own ids under a
  /// disjoint high-bits prefix, so concurrent sessions never collide in the
  /// query registry or the zoom-in cache.
  uint64_t session_namespace() const { return ns_; }

 private:
  /// Next statement id in this session's namespace; 0 defers to the
  /// engine's global counter (namespace-0 sessions).
  core::QueryId NextQid() {
    return ns_ == 0 ? 0 : (ns_ << 48) | ++local_qid_;
  }

  core::Engine* engine_;
  PlannerOptions planner_options_;
  size_t parallelism_;
  uint64_t ns_;
  /// Per-session statement counter; starts where the engine's global
  /// counter does, so namespaced QIDs read NS<<48 | 101, 102, ...
  core::QueryId local_qid_ = 100;
  /// Cost-based optimization for SELECT / EXPLAIN; `SET OPTIMIZER = OFF`
  /// restores the rule-driven plans (results are identical either way).
  bool optimizer_enabled_ = true;
  int64_t statement_timeout_ms_ = 0;  // 0 = no deadline.
  size_t memory_limit_bytes_ = 0;     // 0 = unlimited.
  std::shared_ptr<exec::QueryContext> context_;
};

/// Renders a result table ("a | b\n1 | x\n...") with one trailing summary
/// column per tuple; used by the shell and examples.
std::string FormatResult(const core::QueryResult& result, bool show_summaries = true);

/// Renders a zoom-in result for display.
std::string FormatZoomIn(const core::ZoomInResult& zoom);

}  // namespace insightnotes::sql

#endif  // INSIGHTNOTES_SQL_SESSION_H_
