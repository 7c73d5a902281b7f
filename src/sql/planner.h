// Planner: lowers a SELECT AST into a summary-aware operator tree.
//
// The key InsightNotes rule (Theorems 1 & 2 of the full paper) is encoded
// here: the planner pushes a projection onto every base-table scan that
// eliminates the effect of annotations on never-referenced columns *before*
// any merge operator (join / group-by / distinct) runs. With normalization
// on, all equivalent formulations of a query propagate identical summary
// objects; `project_before_merge = false` exposes the naive pull-up plan
// for the ablation experiment (E6).

#ifndef INSIGHTNOTES_SQL_PLANNER_H_
#define INSIGHTNOTES_SQL_PLANNER_H_

#include <functional>
#include <memory>

#include "core/engine.h"
#include "exec/operator.h"
#include "sql/ast.h"

namespace insightnotes::sql {

struct PlannerOptions {
  /// Apply the Theorem 1&2 normalization (default on).
  bool project_before_merge = true;
  /// Cost-based optimization (sql/optimizer.h): join reordering, index-
  /// backed access paths and parallelism choice from ANALYZE statistics.
  /// Off by default — the rule-driven plan is the canonical reference; the
  /// optimizer's plans are byte-identical in results but differently
  /// shaped. SqlSession turns this on unless `SET OPTIMIZER = OFF`.
  bool optimize = false;
  /// Worker pipelines of the plan's morsel-driven section. Every SELECT
  /// runs its per-tuple section (scan / filter / projection / hash-join
  /// probe, cross products included / summary filter) as N pipelines over
  /// a shared morsel source, gathered in morsel order — results are
  /// byte-identical at every N. 1 (default) runs the one pipeline inline;
  /// so does a driving table smaller than one morsel, or an optimizer
  /// choice of one worker.
  size_t parallelism = 1;
  /// Tuples per morsel handed to a parallel-scan worker.
  size_t morsel_size = 256;
  /// Test seam: wraps each worker pipeline of the section (after the
  /// per-tuple stages, before any blocking partial operator) — e.g. in an
  /// exec::FaultInjectingOperator for the fault sweep. Called once per
  /// worker with the pipeline and its worker index; must return the
  /// (possibly wrapped) pipeline. Null = no wrapping. Hash-join build
  /// inputs are not wrapped.
  std::function<std::unique_ptr<exec::Operator>(std::unique_ptr<exec::Operator>,
                                                size_t)>
      wrap_worker_pipeline;
};

/// Builds an executable operator tree for `stmt` against `engine`'s catalog.
Result<std::unique_ptr<exec::Operator>> PlanSelect(const SelectStatement& stmt,
                                                   core::Engine* engine,
                                                   const PlannerOptions& options = {});

}  // namespace insightnotes::sql

#endif  // INSIGHTNOTES_SQL_PLANNER_H_
