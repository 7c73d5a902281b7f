#include "sql/planner.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "exec/aggregate.h"
#include "exec/distinct.h"
#include "exec/filter.h"
#include "exec/hash_join.h"
#include "exec/parallel.h"
#include "exec/projection.h"
#include "exec/restore_order.h"
#include "exec/sort.h"
#include "exec/summary_filter.h"
#include "sql/binder.h"
#include "sql/optimizer.h"

namespace insightnotes::sql {

namespace {

/// Canonical rendering used to match select items against GROUP BY items.
std::string AstToString(const AstExpr& e) {
  switch (e.kind) {
    case AstExpr::Kind::kColumn:
      return e.name;
    case AstExpr::Kind::kLiteral:
      return e.value.ToString();
    case AstExpr::Kind::kCompare:
      return "(" + AstToString(*e.left) + " " +
             std::string(rel::CompareOpToString(e.compare_op)) + " " +
             AstToString(*e.right) + ")";
    case AstExpr::Kind::kLogical:
      return "(" + AstToString(*e.left) +
             (e.logical_op == rel::LogicalOp::kAnd ? " AND " : " OR ") +
             AstToString(*e.right) + ")";
    case AstExpr::Kind::kNot:
      return "(NOT " + AstToString(*e.left) + ")";
    case AstExpr::Kind::kArithmetic: {
      const char* ops[] = {"+", "-", "*", "/"};
      return "(" + AstToString(*e.left) + " " + ops[static_cast<int>(e.arith_op)] +
             " " + AstToString(*e.right) + ")";
    }
    case AstExpr::Kind::kAggregate:
      return std::string(exec::AggregateFunctionToString(e.agg_fn)) + "(" +
             (e.left != nullptr ? AstToString(*e.left) : "*") + ")";
    case AstExpr::Kind::kSummaryCount:
      return "SUMMARY_COUNT(" + e.name +
             (e.value.is_null() ? "" : ", '" + e.value.ToString() + "'") + ")";
  }
  return "?";
}

/// Splits an AND-tree into conjuncts (pointers into the AST).
void SplitConjuncts(const AstExpr* expr, std::vector<const AstExpr*>* out) {
  if (expr == nullptr) return;
  if (expr->kind == AstExpr::Kind::kLogical &&
      expr->logical_op == rel::LogicalOp::kAnd) {
    SplitConjuncts(expr->left.get(), out);
    SplitConjuncts(expr->right.get(), out);
    return;
  }
  out->push_back(expr);
}

/// Returns true (and the table index) when every column referenced by
/// `expr` resolves into table `k`'s schema slice of the full schema.
struct ColumnOwnership {
  // For each referenced column name: which FROM table owns it.
  std::vector<std::pair<std::string, size_t>> columns;
  bool resolvable = true;
};

class SelectPlanner {
 public:
  SelectPlanner(const SelectStatement& stmt, core::Engine* engine,
                const PlannerOptions& options)
      : stmt_(stmt), engine_(engine), options_(options) {}

  Result<std::unique_ptr<exec::Operator>> Plan() {
    INSIGHTNOTES_RETURN_IF_ERROR(ResolveTables());
    INSIGHTNOTES_RETURN_IF_ERROR(ExpandStar());
    INSIGHTNOTES_RETURN_IF_ERROR(CollectReferencedColumns());
    join_order_.resize(tables_.size());
    std::iota(join_order_.begin(), join_order_.end(), 0);
    if (options_.optimize) {
      INSIGHTNOTES_RETURN_IF_ERROR(RunOptimizer());
      join_order_ = choice_.join_order;
      stamp_ranks_ = choice_.reordered;
      if (choice_.serial) options_.parallelism = 1;
    }
    // A driver smaller than one morsel runs one worker even with the
    // optimizer off: a single-morsel section has nothing to spread.
    if (tables_[join_order_[0]].table->NumRows() < options_.morsel_size) {
      options_.parallelism = 1;
    }
    INSIGHTNOTES_ASSIGN_OR_RETURN(std::unique_ptr<exec::Operator> tree,
                                  BuildSection());
    // Stages already handled inside the section (partial operators below
    // the gather + a merge above it) are skipped here.
    if (!parallel_aggregated_) {
      INSIGHTNOTES_ASSIGN_OR_RETURN(tree, ApplyAggregation(std::move(tree)));
    }
    if (!parallel_sorted_) {
      INSIGHTNOTES_ASSIGN_OR_RETURN(tree, ApplyOrderBy(std::move(tree)));
    }
    if (!parallel_projected_) {
      INSIGHTNOTES_ASSIGN_OR_RETURN(tree, ApplyFinalProjection(std::move(tree)));
    }
    if (stmt_.distinct && !parallel_distinct_) {
      tree = std::make_unique<exec::DistinctOperator>(std::move(tree));
    }
    if (stmt_.limit.has_value()) {
      tree = std::make_unique<exec::LimitOperator>(std::move(tree), *stmt_.limit);
    }
    return tree;
  }

 private:
  struct TableSlot {
    const rel::Table* table = nullptr;
    std::string alias;
    rel::Schema schema;                 // Aliased base schema.
    std::set<std::string> needed;       // Qualified column names to keep.
    std::vector<const AstExpr*> filters;  // Single-table conjuncts.
  };

  Status ResolveTables() {
    for (const TableRef& ref : stmt_.from) {
      INSIGHTNOTES_ASSIGN_OR_RETURN(rel::Table * table,
                                    engine_->catalog()->GetTable(ref.table));
      TableSlot slot;
      slot.table = table;
      slot.alias = ref.alias;
      slot.schema = table->schema().WithQualifier(ref.alias);
      tables_.push_back(std::move(slot));
      full_schema_ = rel::Schema::Concat(full_schema_, tables_.back().schema);
    }
    if (tables_.empty()) return Status::InvalidArgument("query has no FROM tables");
    return Status::OK();
  }

  /// Replaces '*' items with one column item per full-schema column.
  Status ExpandStar() {
    for (const SelectItem& item : stmt_.items) {
      if (item.expr == nullptr) {
        for (const rel::Column& c : full_schema_.columns()) {
          auto col = std::make_unique<AstExpr>();
          col->kind = AstExpr::Kind::kColumn;
          col->name = c.QualifiedName();
          expanded_items_.push_back(SelectItem{std::move(col), ""});
        }
      } else {
        SelectItem copy;
        copy.alias = item.alias;
        copy.expr = CloneAst(*item.expr);
        expanded_items_.push_back(std::move(copy));
      }
    }
    return Status::OK();
  }

  static AstExprPtr CloneAst(const AstExpr& e) {
    auto out = std::make_unique<AstExpr>();
    out->kind = e.kind;
    out->name = e.name;
    out->value = e.value;
    out->compare_op = e.compare_op;
    out->logical_op = e.logical_op;
    out->arith_op = e.arith_op;
    out->agg_fn = e.agg_fn;
    if (e.left != nullptr) out->left = CloneAst(*e.left);
    if (e.right != nullptr) out->right = CloneAst(*e.right);
    return out;
  }

  /// Resolves a column name to its owning table index.
  Result<size_t> OwnerOf(const std::string& name) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(size_t global, full_schema_.IndexOf(name));
    size_t offset = 0;
    for (size_t k = 0; k < tables_.size(); ++k) {
      size_t width = tables_[k].schema.NumColumns();
      if (global < offset + width) return k;
      offset += width;
    }
    return Status::Internal("column resolution out of bounds");
  }

  /// Marks every column referenced anywhere in the query as needed by its
  /// owning table (drives the Theorem 1&2 projection push-down).
  Status CollectReferencedColumns() {
    std::vector<std::string> names;
    for (const SelectItem& item : expanded_items_) item.expr->CollectColumns(&names);
    if (stmt_.where != nullptr) stmt_.where->CollectColumns(&names);
    for (const auto& g : stmt_.group_by) g->CollectColumns(&names);
    // ORDER BY may reference output aliases (e.g. an aggregate's name)
    // rather than base columns: resolve those best-effort only.
    std::vector<std::string> optional_names;
    for (const auto& o : stmt_.order_by) o.expr->CollectColumns(&optional_names);

    auto mark_needed = [&](const std::string& name) -> Status {
      INSIGHTNOTES_ASSIGN_OR_RETURN(size_t owner, OwnerOf(name));
      INSIGHTNOTES_ASSIGN_OR_RETURN(size_t global, full_schema_.IndexOf(name));
      size_t offset = 0;
      for (size_t k = 0; k < owner; ++k) offset += tables_[k].schema.NumColumns();
      tables_[owner].needed.insert(
          tables_[owner].schema.ColumnAt(global - offset).QualifiedName());
      return Status::OK();
    };
    for (const std::string& name : names) {
      INSIGHTNOTES_RETURN_IF_ERROR(mark_needed(name));
    }
    for (const std::string& name : optional_names) {
      Status s = mark_needed(name);
      if (!s.ok() && !s.IsNotFound()) return s;
    }

    // Classify WHERE conjuncts: summary predicates, single-table,
    // equi-join, or residual.
    std::vector<const AstExpr*> conjuncts;
    SplitConjuncts(stmt_.where.get(), &conjuncts);
    for (const AstExpr* conjunct : conjuncts) {
      // SUMMARY_COUNT(inst[, 'label']) <op> <integer literal> — a
      // summary-based predicate, applied above the join tree.
      if (conjunct->kind == AstExpr::Kind::kCompare) {
        const AstExpr* sc = nullptr;
        const AstExpr* lit = nullptr;
        rel::CompareOp op = conjunct->compare_op;
        if (conjunct->left->kind == AstExpr::Kind::kSummaryCount) {
          sc = conjunct->left.get();
          lit = conjunct->right.get();
        } else if (conjunct->right->kind == AstExpr::Kind::kSummaryCount) {
          sc = conjunct->right.get();
          lit = conjunct->left.get();
          // Flip the comparison: <lit> op SUMMARY_COUNT == SUMMARY_COUNT op' <lit>.
          switch (op) {
            case rel::CompareOp::kLt: op = rel::CompareOp::kGt; break;
            case rel::CompareOp::kLe: op = rel::CompareOp::kGe; break;
            case rel::CompareOp::kGt: op = rel::CompareOp::kLt; break;
            case rel::CompareOp::kGe: op = rel::CompareOp::kLe; break;
            default: break;
          }
        }
        if (sc != nullptr) {
          if (lit->kind != AstExpr::Kind::kLiteral ||
              lit->value.type() != rel::ValueType::kInt64) {
            return Status::InvalidArgument(
                "SUMMARY_COUNT must be compared with an integer literal");
          }
          summary_filters_.push_back(
              SummaryFilter{SpecOf(*sc), op, lit->value.AsInt64()});
          continue;
        }
      }
      std::vector<std::string> cols;
      conjunct->CollectColumns(&cols);
      std::set<size_t> owners;
      bool resolvable = true;
      for (const std::string& c : cols) {
        auto owner = OwnerOf(c);
        if (!owner.ok()) {
          resolvable = false;
          break;
        }
        owners.insert(*owner);
      }
      if (!resolvable) {
        return Status::NotFound("unresolvable column in WHERE clause");
      }
      if (owners.size() <= 1) {
        size_t owner = owners.empty() ? 0 : *owners.begin();
        tables_[owner].filters.push_back(conjunct);
      } else if (owners.size() == 2 && conjunct->kind == AstExpr::Kind::kCompare &&
                 conjunct->compare_op == rel::CompareOp::kEq) {
        join_conjuncts_.push_back(conjunct);
      } else {
        residual_conjuncts_.push_back(conjunct);
      }
    }
    return Status::OK();
  }

  static size_t EstimateToRows(double estimate) {
    if (!(estimate > 0.0)) return 0;
    return static_cast<size_t>(std::llround(estimate));
  }

  /// True when reordering the table could reorder summary-object or
  /// attachment merges: it has linked summary instances or stored
  /// annotations. Such tables keep their FROM-relative order.
  bool TableIsAnnotated(const rel::Table* table) const {
    if (!engine_->summaries()->LinkedTo(table->id()).empty()) return true;
    bool any = false;
    engine_->annotations()->ScanTable(
        table->id(), [&](rel::RowId, const ann::Attachment&) {
          any = true;
          return false;
        });
    return any;
  }

  /// Runs the cost-based search (sql/optimizer.h) over the resolved tables
  /// and classified conjuncts; fills choice_.
  Status RunOptimizer() {
    std::vector<OptimizerTable> opt_tables;
    opt_tables.reserve(tables_.size());
    for (TableSlot& slot : tables_) {
      OptimizerTable t;
      t.table = slot.table;
      t.schema = slot.schema;
      t.stats = slot.table->stats();
      t.filters = slot.filters;
      t.annotated = TableIsAnnotated(slot.table);
      opt_tables.push_back(std::move(t));
    }
    std::vector<OptimizerJoin> opt_joins;
    for (const AstExpr* conjunct : join_conjuncts_) {
      // Only plain column = column conjuncts enter the cost graph; anything
      // fancier keeps the identity order (conservative, never incorrect).
      std::vector<std::string> left_cols, right_cols;
      conjunct->left->CollectColumns(&left_cols);
      conjunct->right->CollectColumns(&right_cols);
      if (left_cols.size() != 1 || right_cols.size() != 1) continue;
      auto left_owner = OwnerOf(left_cols[0]);
      auto right_owner = OwnerOf(right_cols[0]);
      if (!left_owner.ok() || !right_owner.ok()) continue;
      OptimizerJoin join;
      join.left_table = *left_owner;
      join.left_column = left_cols[0];
      join.right_table = *right_owner;
      join.right_column = right_cols[0];
      opt_joins.push_back(std::move(join));
    }
    choice_ = ChoosePlan(opt_tables, opt_joins, options_.morsel_size);
    optimized_ = true;
    return Status::OK();
  }

  /// Sorts a reordered plan's output back into canonical FROM order by the
  /// per-table ranks the leaf scans stamped (see exec/restore_order.h).
  std::unique_ptr<exec::Operator> RestoreCanonicalOrder(
      std::unique_ptr<exec::Operator> tree) {
    std::vector<size_t> key_order(join_order_.size());
    for (size_t k = 0; k < join_order_.size(); ++k) key_order[join_order_[k]] = k;
    auto restore = std::make_unique<exec::RestoreOrderOperator>(
        std::move(tree), std::move(key_order));
    if (optimized_) {
      restore->SetPlannerEstimate(EstimateToRows(choice_.est_result_rows));
    }
    return restore;
  }

  /// Table `k`'s per-tuple stages — filters + Theorem-1 projection — on top
  /// of `tree` (a morsel scan of the table).
  Result<std::unique_ptr<exec::Operator>> ApplyTableStages(
      size_t k, std::unique_ptr<exec::Operator> tree) {
    TableSlot& slot = tables_[k];
    for (const AstExpr* filter : slot.filters) {
      INSIGHTNOTES_ASSIGN_OR_RETURN(rel::ExprPtr bound,
                                    Bind(*filter, tree->OutputSchema()));
      tree = std::make_unique<exec::FilterOperator>(std::move(tree), std::move(bound));
      if (optimized_) {
        tree->SetPlannerEstimate(EstimateToRows(choice_.access[k].est_rows));
      }
    }
    if (options_.project_before_merge &&
        slot.needed.size() < slot.schema.NumColumns()) {
      std::vector<std::string> kept(slot.needed.begin(), slot.needed.end());
      // Preserve base-table column order for readability.
      std::sort(kept.begin(), kept.end(), [&](const auto& a, const auto& b) {
        return *slot.schema.IndexOf(a) < *slot.schema.IndexOf(b);
      });
      INSIGHTNOTES_ASSIGN_OR_RETURN(
          auto project, exec::ProjectOperator::FromColumns(std::move(tree), kept));
      tree = std::move(project);
      if (optimized_) {
        tree->SetPlannerEstimate(EstimateToRows(choice_.access[k].est_rows));
      }
    }
    return tree;
  }

  /// The shared morsel source scanning table `k`. With the optimizer on, a
  /// slot whose access path chose an index probe materializes only the
  /// probed rows — the original predicates all stay as filters above, so
  /// results are identical.
  std::shared_ptr<exec::ScanMorselSource> MakeSource(size_t k) {
    TableSlot& slot = tables_[k];
    auto source = std::make_shared<exec::ScanMorselSource>(
        slot.table, slot.alias, engine_->summaries(), engine_->annotations(),
        /*with_summaries=*/true, options_.morsel_size);
    if (optimized_ && choice_.access[k].use_index) {
      source->SetIndexProbe(choice_.access[k].probe);
    }
    if (stamp_ranks_) source->EnableRankStamping();
    return source;
  }

  /// One worker pipeline over `source`: scan [+ filter] [+ Theorem-1
  /// projection] of table `k`.
  Result<std::unique_ptr<exec::Operator>> BuildTablePipe(
      size_t k, const std::shared_ptr<exec::ScanMorselSource>& source) {
    std::unique_ptr<exec::Operator> pipe =
        std::make_unique<exec::MorselScanOperator>(source);
    if (optimized_) {
      pipe->SetPlannerEstimate(EstimateToRows(choice_.access[k].scan_rows));
    }
    return ApplyTableStages(k, std::move(pipe));
  }

  /// A hash-join build input: table `k`'s pipeline as a one-worker section,
  /// run inline when the build state resets.
  Result<std::unique_ptr<exec::Operator>> BuildTableInput(size_t k) {
    std::shared_ptr<exec::ScanMorselSource> source = MakeSource(k);
    std::vector<std::unique_ptr<exec::Operator>> pipes;
    INSIGHTNOTES_ASSIGN_OR_RETURN(std::unique_ptr<exec::Operator> pipe,
                                  BuildTablePipe(k, source));
    pipes.push_back(std::move(pipe));
    return std::unique_ptr<exec::Operator>(std::make_unique<exec::GatherOperator>(
        std::move(pipes), std::vector<std::shared_ptr<exec::SharedPlanState>>{source},
        /*pool=*/nullptr));
  }

  /// The plan's pipeline section: P worker pipelines sharing a morsel
  /// source over the driving table (and one partitioned build state per
  /// join), re-serialized by a Gather in morsel order. P is
  /// options_.parallelism; one worker runs inline with no pool.
  Result<std::unique_ptr<exec::Operator>> BuildSection() {
    const size_t num_workers = std::max<size_t>(1, options_.parallelism);
    ThreadPool* pool = num_workers > 1 ? engine_->ExecPool(num_workers) : nullptr;
    const size_t driver_slot = join_order_[0];
    std::shared_ptr<exec::ScanMorselSource> source = MakeSource(driver_slot);
    std::vector<std::shared_ptr<exec::SharedPlanState>> states;
    states.push_back(source);

    std::vector<std::unique_ptr<exec::Operator>> pipes;
    pipes.reserve(num_workers);
    for (size_t w = 0; w < num_workers; ++w) {
      INSIGHTNOTES_ASSIGN_OR_RETURN(std::unique_ptr<exec::Operator> pipe,
                                    BuildTablePipe(driver_slot, source));
      pipes.push_back(std::move(pipe));
    }

    // Joins: each step joins the next table on the first unused equi
    // conjunct linking it to the tables joined so far (all pipes share one
    // output schema, so pipes[0] stands in for them). The build side is
    // materialized once into a shared partitioned state probed by every
    // worker. With no such conjunct the step is a cross product: both keys
    // are the same literal, so every probe tuple matches every build row.
    std::vector<bool> used(join_conjuncts_.size(), false);
    for (size_t i = 1; i < join_order_.size(); ++i) {
      const size_t k = join_order_[i];
      INSIGHTNOTES_ASSIGN_OR_RETURN(std::unique_ptr<exec::Operator> right,
                                    BuildTableInput(k));
      ssize_t chosen = -1;
      bool left_is_tree = true;
      for (size_t j = 0; j < join_conjuncts_.size(); ++j) {
        if (used[j]) continue;
        const AstExpr* c = join_conjuncts_[j];
        if (BindableAgainst(*c->left, pipes[0]->OutputSchema()) &&
            BindableAgainst(*c->right, right->OutputSchema())) {
          chosen = static_cast<ssize_t>(j);
          left_is_tree = true;
          break;
        }
        if (BindableAgainst(*c->left, right->OutputSchema()) &&
            BindableAgainst(*c->right, pipes[0]->OutputSchema())) {
          chosen = static_cast<ssize_t>(j);
          left_is_tree = false;
          break;
        }
      }
      const AstExpr* probe_side = nullptr;
      rel::ExprPtr build_key;
      if (chosen >= 0) {
        used[static_cast<size_t>(chosen)] = true;
        const AstExpr* c = join_conjuncts_[static_cast<size_t>(chosen)];
        probe_side = left_is_tree ? c->left.get() : c->right.get();
        const AstExpr* build_side = left_is_tree ? c->right.get() : c->left.get();
        INSIGHTNOTES_ASSIGN_OR_RETURN(build_key,
                                      Bind(*build_side, right->OutputSchema()));
      } else {
        build_key = CrossProductKey();
      }
      auto state = std::make_shared<exec::HashJoinBuildState>(
          std::move(right), std::move(build_key), num_workers, pool);
      states.push_back(state);
      for (size_t w = 0; w < num_workers; ++w) {
        rel::ExprPtr probe_key = CrossProductKey();
        if (probe_side != nullptr) {
          INSIGHTNOTES_ASSIGN_OR_RETURN(probe_key,
                                        Bind(*probe_side, pipes[w]->OutputSchema()));
        }
        pipes[w] = std::make_unique<exec::HashJoinProbeOperator>(
            std::move(pipes[w]), state, std::move(probe_key),
            /*expose_build=*/w == 0);
        if (optimized_ && i < choice_.rows_after_step.size()) {
          pipes[w]->SetPlannerEstimate(
              EstimateToRows(choice_.rows_after_step[i]));
        }
      }
    }

    // Residual conjuncts (incl. leftover join conjuncts, e.g. a second
    // equality between the same pair of tables) and summary filters are
    // per-tuple stages: they run inside every worker, below the gather.
    // Estimates shrink as each applies: default selectivities for ordinary
    // conjuncts, the ANALYZE annotation-count distribution of the driving
    // table for SUMMARY_COUNT predicates.
    std::vector<const AstExpr*> residuals = residual_conjuncts_;
    for (size_t j = 0; j < join_conjuncts_.size(); ++j) {
      if (!used[j]) residuals.push_back(join_conjuncts_[j]);
    }
    for (size_t w = 0; w < num_workers; ++w) {
      double est = optimized_ ? choice_.est_result_rows : 0.0;
      for (const AstExpr* conjunct : residuals) {
        INSIGHTNOTES_ASSIGN_OR_RETURN(rel::ExprPtr bound,
                                      Bind(*conjunct, pipes[w]->OutputSchema()));
        pipes[w] =
            std::make_unique<exec::FilterOperator>(std::move(pipes[w]), std::move(bound));
        if (optimized_) {
          est *= EstimateSelectivity(*conjunct, full_schema_, nullptr);
          pipes[w]->SetPlannerEstimate(EstimateToRows(est));
        }
      }
      for (const SummaryFilter& filter : summary_filters_) {
        pipes[w] = std::make_unique<exec::SummaryFilterOperator>(
            std::move(pipes[w]), filter.spec, filter.op, filter.threshold);
        if (optimized_) {
          std::shared_ptr<const rel::TableStats> driver_stats =
              tables_[driver_slot].table->stats();
          est *= driver_stats != nullptr
                     ? driver_stats->AnnCountSelectivity(filter.op, filter.threshold)
                     : 0.5;
          pipes[w]->SetPlannerEstimate(EstimateToRows(est));
        }
      }
      // Fault-injection seam: wrap the finished per-tuple pipeline before
      // any blocking partial operator, so scripted faults hit the worker
      // at morsel granularity.
      if (options_.wrap_worker_pipeline) {
        pipes[w] = options_.wrap_worker_pipeline(std::move(pipes[w]), w);
      }
    }

    // A reordered plan emits in join-order, not canonical FROM order; the
    // RestoreOrder sort above the gather re-serializes before any
    // order-sensitive stage, so partial pushdowns and the LIMIT row quota
    // (both of which assume morsel order == canonical order) are skipped.
    if (stamp_ranks_) {
      std::unique_ptr<exec::Operator> gather =
          std::make_unique<exec::GatherOperator>(std::move(pipes),
                                                 std::move(states), pool);
      if (optimized_) {
        gather->SetPlannerEstimate(EstimateToRows(choice_.est_result_rows));
      }
      return RestoreCanonicalOrder(std::move(gather));
    }

    // With several workers, blocking stages end the section differently:
    // instead of aggregating/sorting/deduplicating above the gather, push
    // a partial operator into every worker pipeline and merge the partial
    // states deterministically above the gather. Aggregation subsumes the
    // other stages' cost (its output is tiny), so it wins the dispatch;
    // otherwise a sort dominates a residual distinct. One worker streams
    // through the gather, so Plan() stacks the single operators (and the
    // LIMIT) above it instead.
    if (num_workers > 1) {
      if (HasAggregation()) {
        return BuildParallelAggregation(std::move(pipes), std::move(states), pool);
      }
      if (!stmt_.order_by.empty()) {
        return BuildParallelSort(std::move(pipes), std::move(states), pool);
      }
      if (stmt_.distinct) {
        return BuildParallelDistinct(std::move(pipes), std::move(states), pool);
      }
      if (stmt_.limit.has_value()) {
        // Plain LIMIT k: the result is the first k surviving rows in morsel
        // order, so a cooperative row quota lets the morsel source stop
        // dispatching once the first morsels' completed batches already
        // carry k rows. The LimitOperator above trims in-flight extras.
        auto quota = std::make_shared<exec::RowQuota>(*stmt_.limit);
        source->SetQuota(quota);
        states.push_back(quota);
        auto gather = std::make_unique<exec::GatherOperator>(std::move(pipes),
                                                             std::move(states), pool);
        gather->EnableRowQuota(std::move(quota), source);
        return std::unique_ptr<exec::Operator>(std::move(gather));
      }
    }
    return std::unique_ptr<exec::Operator>(std::make_unique<exec::GatherOperator>(
        std::move(pipes), std::move(states), pool));
  }

  /// Parallel aggregation: PartialAggregateOperator per worker feeding a
  /// shared PartialAggState, folded above the gather by
  /// AggregateMergeOperator in ascending morsel order.
  Result<std::unique_ptr<exec::Operator>> BuildParallelAggregation(
      std::vector<std::unique_ptr<exec::Operator>> pipes,
      std::vector<std::shared_ptr<exec::SharedPlanState>> states, ThreadPool* pool) {
    auto sink = std::make_shared<exec::PartialAggState>();
    states.push_back(sink);
    for (std::unique_ptr<exec::Operator>& pipe : pipes) {
      std::vector<rel::ExprPtr> group_exprs;
      std::vector<rel::Column> group_columns;
      std::vector<exec::AggregateItem> aggregates;
      INSIGHTNOTES_RETURN_IF_ERROR(BindAggregation(
          pipe->OutputSchema(), &group_exprs, &group_columns, &aggregates));
      pipe = std::make_unique<exec::PartialAggregateOperator>(
          std::move(pipe), std::move(group_exprs), std::move(aggregates), sink);
    }
    auto gather = std::make_unique<exec::GatherOperator>(std::move(pipes),
                                                         std::move(states), pool);
    std::vector<rel::ExprPtr> group_exprs;
    std::vector<rel::Column> group_columns;
    std::vector<exec::AggregateItem> aggregates;
    INSIGHTNOTES_RETURN_IF_ERROR(BindAggregation(
        gather->OutputSchema(), &group_exprs, &group_columns, &aggregates));
    parallel_aggregated_ = true;
    return std::unique_ptr<exec::Operator>(
        std::make_unique<exec::AggregateMergeOperator>(
            std::move(gather), std::move(group_exprs), std::move(group_columns),
            std::move(aggregates), std::move(sink)));
  }

  /// Parallel sort: PartialSortOperator per worker publishes a locally
  /// sorted run tagged with serial ranks; SortMergeOperator k-way-merges
  /// the runs above the gather. With `ORDER BY ... LIMIT k` (and no
  /// DISTINCT, which would dedup *between* sort and limit) the limit is
  /// pushed down: workers keep bounded top-k runs pruned against a shared
  /// k-th-candidate bound, and the merge stops after k rows.
  Result<std::unique_ptr<exec::Operator>> BuildParallelSort(
      std::vector<std::unique_ptr<exec::Operator>> pipes,
      std::vector<std::shared_ptr<exec::SharedPlanState>> states, ThreadPool* pool) {
    auto sink = std::make_shared<exec::PartialSortState>();
    states.push_back(sink);
    std::vector<bool> ascending;
    std::string label;
    for (const OrderItem& item : stmt_.order_by) {
      ascending.push_back(item.ascending);
      if (!label.empty()) label += ", ";
      label += AstToString(*item.expr);
      if (!item.ascending) label += " DESC";
    }
    const bool push_limit = stmt_.limit.has_value() && !stmt_.distinct;
    std::shared_ptr<exec::TopKBound> bound;
    if (push_limit) {
      bound = std::make_shared<exec::TopKBound>(*stmt_.limit, ascending);
      states.push_back(bound);
    }
    for (std::unique_ptr<exec::Operator>& pipe : pipes) {
      INSIGHTNOTES_ASSIGN_OR_RETURN(std::vector<exec::SortKey> keys,
                                    BindSortKeys(pipe->OutputSchema()));
      pipe = std::make_unique<exec::PartialSortOperator>(
          std::move(pipe), std::move(keys), sink, bound);
    }
    auto gather = std::make_unique<exec::GatherOperator>(std::move(pipes),
                                                         std::move(states), pool);
    parallel_sorted_ = true;
    return std::unique_ptr<exec::Operator>(std::make_unique<exec::SortMergeOperator>(
        std::move(gather), std::move(ascending), std::move(label), std::move(sink),
        push_limit ? *stmt_.limit : SIZE_MAX));
  }

  /// Parallel distinct: the final projection moves below the partial
  /// operators (distinct keys are the projected columns), then each worker
  /// collapses its morsels locally and DistinctMergeOperator folds the
  /// per-morsel sets above the gather in ascending morsel order.
  Result<std::unique_ptr<exec::Operator>> BuildParallelDistinct(
      std::vector<std::unique_ptr<exec::Operator>> pipes,
      std::vector<std::shared_ptr<exec::SharedPlanState>> states, ThreadPool* pool) {
    auto sink = std::make_shared<exec::PartialDistinctState>();
    states.push_back(sink);
    bool trim = !options_.project_before_merge;
    for (std::unique_ptr<exec::Operator>& pipe : pipes) {
      INSIGHTNOTES_ASSIGN_OR_RETURN(std::vector<exec::ProjectionItem> items,
                                    BuildFinalProjectionItems(pipe->OutputSchema()));
      pipe = std::make_unique<exec::ProjectOperator>(std::move(pipe),
                                                     std::move(items), trim);
      pipe = std::make_unique<exec::PartialDistinctOperator>(std::move(pipe), sink);
    }
    auto gather = std::make_unique<exec::GatherOperator>(std::move(pipes),
                                                         std::move(states), pool);
    parallel_projected_ = true;
    parallel_distinct_ = true;
    return std::unique_ptr<exec::Operator>(
        std::make_unique<exec::DistinctMergeOperator>(std::move(gather),
                                                      std::move(sink)));
  }

  static bool BindableAgainst(const AstExpr& expr, const rel::Schema& schema) {
    std::vector<std::string> cols;
    expr.CollectColumns(&cols);
    for (const std::string& c : cols) {
      if (!schema.Contains(c)) return false;
    }
    return !cols.empty();
  }

  /// Join key of a cross-product step, bound identically on both sides.
  static rel::ExprPtr CrossProductKey() {
    return rel::MakeLiteral(rel::Value(static_cast<int64_t>(1)));
  }

  bool HasAggregation() const {
    if (!stmt_.group_by.empty()) return true;
    for (const SelectItem& item : expanded_items_) {
      if (item.expr->ContainsAggregate()) return true;
    }
    return false;
  }

  /// Binds GROUP BY expressions and aggregate select items against `in`
  /// (the pre-aggregation schema). Idempotent: the parallel shape calls it
  /// once per worker pipeline and once more for the merge operator.
  Status BindAggregation(const rel::Schema& in,
                         std::vector<rel::ExprPtr>* group_exprs,
                         std::vector<rel::Column>* group_columns,
                         std::vector<exec::AggregateItem>* aggregates) {
    std::vector<std::string> group_keys;  // Canonical AST strings.
    for (const auto& g : stmt_.group_by) {
      INSIGHTNOTES_ASSIGN_OR_RETURN(rel::ExprPtr bound, Bind(*g, in));
      group_keys.push_back(AstToString(*g));
      rel::Column column{AstToString(*g), rel::ValueType::kNull, ""};
      if (g->kind == AstExpr::Kind::kColumn) {
        INSIGHTNOTES_ASSIGN_OR_RETURN(size_t index, in.IndexOf(g->name));
        column = in.ColumnAt(index);
      }
      group_columns->push_back(std::move(column));
      group_exprs->push_back(std::move(bound));
    }

    agg_output_names_.clear();
    size_t agg_counter = 0;
    for (const SelectItem& item : expanded_items_) {
      if (item.expr->kind == AstExpr::Kind::kAggregate) {
        exec::AggregateItem agg;
        agg.fn = item.expr->agg_fn;
        if (item.expr->left != nullptr) {
          INSIGHTNOTES_ASSIGN_OR_RETURN(agg.arg, Bind(*item.expr->left, in));
        }
        agg.output_name =
            !item.alias.empty() ? item.alias : "agg" + std::to_string(agg_counter);
        agg_output_names_.push_back(agg.output_name);
        aggregates->push_back(std::move(agg));
        ++agg_counter;
      } else if (item.expr->ContainsAggregate()) {
        return Status::NotImplemented(
            "expressions over aggregates (e.g. COUNT(*)+1) are not supported");
      } else {
        // Non-aggregate item must match a GROUP BY expression.
        std::string key = AstToString(*item.expr);
        if (std::find(group_keys.begin(), group_keys.end(), key) == group_keys.end()) {
          return Status::InvalidArgument("select item '" + key +
                                         "' is neither aggregated nor in GROUP BY");
        }
        agg_output_names_.push_back("");  // Resolved via group column name.
      }
    }
    aggregated_ = true;
    return Status::OK();
  }

  Result<std::unique_ptr<exec::Operator>> ApplyAggregation(
      std::unique_ptr<exec::Operator> tree) {
    if (!HasAggregation()) return tree;
    std::vector<rel::ExprPtr> group_exprs;
    std::vector<rel::Column> group_columns;
    std::vector<exec::AggregateItem> aggregates;
    INSIGHTNOTES_RETURN_IF_ERROR(BindAggregation(
        tree->OutputSchema(), &group_exprs, &group_columns, &aggregates));
    return std::unique_ptr<exec::Operator>(std::make_unique<exec::AggregateOperator>(
        std::move(tree), std::move(group_exprs), std::move(group_columns),
        std::move(aggregates)));
  }

  /// The spec a SUMMARY_COUNT(instance[, 'label']) expression denotes.
  static exec::SummaryCountSpec SpecOf(const AstExpr& summary_count) {
    exec::SummaryCountSpec spec;
    spec.instance = summary_count.name;
    if (!summary_count.value.is_null()) spec.label = summary_count.value.AsString();
    return spec;
  }

  /// The ORDER BY key list bound against `schema` (the pre-final-projection
  /// schema, where aliases of aggregate outputs are present already).
  /// SUMMARY_COUNT keys interleave with ordinary expression keys.
  Result<std::vector<exec::SortKey>> BindSortKeys(const rel::Schema& schema) {
    std::vector<exec::SortKey> keys;
    for (const OrderItem& item : stmt_.order_by) {
      exec::SortKey key;
      key.ascending = item.ascending;
      if (item.expr->kind == AstExpr::Kind::kSummaryCount) {
        key.spec = SpecOf(*item.expr);
      } else {
        INSIGHTNOTES_ASSIGN_OR_RETURN(key.expr, Bind(*item.expr, schema));
      }
      keys.push_back(std::move(key));
    }
    return keys;
  }

  Result<std::unique_ptr<exec::Operator>> ApplyOrderBy(
      std::unique_ptr<exec::Operator> tree) {
    if (stmt_.order_by.empty()) return tree;
    INSIGHTNOTES_ASSIGN_OR_RETURN(std::vector<exec::SortKey> keys,
                                  BindSortKeys(tree->OutputSchema()));
    return std::unique_ptr<exec::Operator>(
        std::make_unique<exec::SortOperator>(std::move(tree), std::move(keys)));
  }

  /// The projection items of the final SELECT list against `in`. Shared by
  /// the top-of-plan projection and the multi-worker distinct shape (which
  /// projects inside every worker, below the partial operators).
  Result<std::vector<exec::ProjectionItem>> BuildFinalProjectionItems(
      const rel::Schema& in) {
    std::vector<exec::ProjectionItem> items;
    size_t agg_index = 0;
    for (size_t i = 0; i < expanded_items_.size(); ++i) {
      const SelectItem& item = expanded_items_[i];
      exec::ProjectionItem out;
      if (aggregated_) {
        std::string name;
        if (item.expr->kind == AstExpr::Kind::kAggregate) {
          name = agg_output_names_[agg_index];
        }
        ++agg_index;
        if (name.empty()) {
          // Group column: find it by its column/AST name.
          name = item.expr->kind == AstExpr::Kind::kColumn ? item.expr->name
                                                           : AstToString(*item.expr);
        }
        INSIGHTNOTES_ASSIGN_OR_RETURN(size_t index, in.IndexOf(name));
        const rel::Column& column = in.ColumnAt(index);
        out.expr = rel::MakeColumn(index, column.QualifiedName());
        out.output_name = !item.alias.empty() ? item.alias : column.name;
        out.qualifier = item.alias.empty() ? column.qualifier : "";
        out.type = column.type;
      } else {
        INSIGHTNOTES_ASSIGN_OR_RETURN(out.expr, Bind(*item.expr, in));
        if (item.expr->kind == AstExpr::Kind::kColumn) {
          INSIGHTNOTES_ASSIGN_OR_RETURN(size_t index, in.IndexOf(item.expr->name));
          const rel::Column& column = in.ColumnAt(index);
          out.output_name = !item.alias.empty() ? item.alias : column.name;
          out.qualifier = item.alias.empty() ? column.qualifier : "";
          out.type = column.type;
        } else {
          out.output_name =
              !item.alias.empty() ? item.alias : AstToString(*item.expr);
          out.type = rel::ValueType::kNull;
        }
      }
      items.push_back(std::move(out));
    }
    return items;
  }

  Result<std::unique_ptr<exec::Operator>> ApplyFinalProjection(
      std::unique_ptr<exec::Operator> tree) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(std::vector<exec::ProjectionItem> items,
                                  BuildFinalProjectionItems(tree->OutputSchema()));
    // Under normalization the trim already happened at the bottom of the
    // plan; this projection is pure plumbing (Figure 2 step 4: dropping
    // s.x after the join leaves summaries unchanged). The naive plan trims
    // here instead — late, after the merges.
    bool trim = !options_.project_before_merge;
    return std::unique_ptr<exec::Operator>(std::make_unique<exec::ProjectOperator>(
        std::move(tree), std::move(items), trim));
  }

  const SelectStatement& stmt_;
  core::Engine* engine_;
  PlannerOptions options_;

  std::vector<TableSlot> tables_;
  rel::Schema full_schema_;
  std::vector<SelectItem> expanded_items_;
  struct SummaryFilter {
    exec::SummaryCountSpec spec;
    rel::CompareOp op;
    int64_t threshold;
  };

  std::vector<const AstExpr*> join_conjuncts_;
  std::vector<const AstExpr*> residual_conjuncts_;
  std::vector<SummaryFilter> summary_filters_;
  // Cost-based plan choice (options_.optimize). join_order_ is identity
  // until RunOptimizer picks otherwise; stamp_ranks_ marks a reordered
  // plan whose leaves stamp per-table emission ranks for RestoreOrder.
  std::vector<size_t> join_order_;
  bool stamp_ranks_ = false;
  bool optimized_ = false;
  PlanChoice choice_;
  std::vector<std::string> agg_output_names_;
  bool aggregated_ = false;
  // Stages absorbed by a multi-worker section (partial + merge operators);
  // Plan() skips the corresponding single operator.
  bool parallel_aggregated_ = false;
  bool parallel_sorted_ = false;
  bool parallel_projected_ = false;
  bool parallel_distinct_ = false;
};

}  // namespace

Result<std::unique_ptr<exec::Operator>> PlanSelect(const SelectStatement& stmt,
                                                   core::Engine* engine,
                                                   const PlannerOptions& options) {
  SelectPlanner planner(stmt, engine, options);
  return planner.Plan();
}

}  // namespace insightnotes::sql
