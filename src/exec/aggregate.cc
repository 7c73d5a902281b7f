#include "exec/aggregate.h"

#include <algorithm>
#include <unordered_map>

#include "common/clock.h"

namespace insightnotes::exec {

namespace {

struct TupleHash {
  size_t operator()(const rel::Tuple& t) const {
    return static_cast<size_t>(t.Hash());
  }
};
using TupleIndex = std::unordered_map<rel::Tuple, size_t, TupleHash>;

// Flat memory-accounting figure per group beyond keys and AggStates: the
// merged summary state and its hash-index entry.
constexpr size_t kGroupStateApproxBytes = 256;

size_t GroupBytes(const AggregateGroup& group) {
  return core::ApproxBytes(group.key) + kGroupStateApproxBytes +
         group.states.size() * sizeof(AggState);
}

// Folds `in` into its group of `groups` (first-seen order, found through
// `index`), appending the group on first sight.
Status FoldIntoGroups(const std::vector<rel::ExprPtr>& group_exprs,
                      const std::vector<AggregateItem>& aggregates,
                      core::AnnotatedTuple* in, TupleIndex* index,
                      std::vector<AggregateGroup>* groups) {
  rel::Tuple key;
  for (const auto& expr : group_exprs) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(rel::Value v, expr->Evaluate(in->tuple));
    key.Append(std::move(v));
  }
  // Every input tuple merges into its group: settle before the merge.
  INSIGHTNOTES_RETURN_IF_ERROR(in->Settle());
  auto [it, inserted] = index->emplace(key, groups->size());
  if (!inserted) {
    AggregateGroup& group = (*groups)[it->second];
    INSIGHTNOTES_RETURN_IF_ERROR(group.summary.Fold(*in));
    return AccumulateAggregates(aggregates, in->tuple, &group.states);
  }
  AggregateGroup group;
  group.key = std::move(key);
  INSIGHTNOTES_RETURN_IF_ERROR(group.summary.Seed(in));
  group.states.resize(aggregates.size());
  INSIGHTNOTES_RETURN_IF_ERROR(
      AccumulateAggregates(aggregates, in->tuple, &group.states));
  groups->push_back(std::move(group));
  return Status::OK();
}

}  // namespace

std::string_view AggregateFunctionToString(AggregateFunction fn) {
  switch (fn) {
    case AggregateFunction::kCountStar:
      return "COUNT(*)";
    case AggregateFunction::kCount:
      return "COUNT";
    case AggregateFunction::kSum:
      return "SUM";
    case AggregateFunction::kMin:
      return "MIN";
    case AggregateFunction::kMax:
      return "MAX";
    case AggregateFunction::kAvg:
      return "AVG";
  }
  return "?";
}

Status AccumulateAggregates(const std::vector<AggregateItem>& items,
                            const rel::Tuple& tuple, std::vector<AggState>* states) {
  for (size_t i = 0; i < items.size(); ++i) {
    const AggregateItem& item = items[i];
    AggState& state = (*states)[i];
    if (item.fn == AggregateFunction::kCountStar) {
      ++state.count;
      continue;
    }
    INSIGHTNOTES_ASSIGN_OR_RETURN(rel::Value v, item.arg->Evaluate(tuple));
    if (v.is_null()) continue;  // SQL semantics: NULLs ignored.
    ++state.count;
    switch (item.fn) {
      case AggregateFunction::kCount:
        break;
      case AggregateFunction::kSum:
      case AggregateFunction::kAvg: {
        INSIGHTNOTES_ASSIGN_OR_RETURN(double d, v.ToNumeric());
        state.terms.push_back(d);
        if (v.type() == rel::ValueType::kInt64) {
          state.isum += v.AsInt64();
        } else {
          state.sum_is_int = false;
        }
        break;
      }
      case AggregateFunction::kMin: {
        if (state.min.is_null()) {
          state.min = v;
        } else {
          INSIGHTNOTES_ASSIGN_OR_RETURN(int c, v.Compare(state.min));
          if (c < 0) state.min = v;
        }
        break;
      }
      case AggregateFunction::kMax: {
        if (state.max.is_null()) {
          state.max = v;
        } else {
          INSIGHTNOTES_ASSIGN_OR_RETURN(int c, v.Compare(state.max));
          if (c > 0) state.max = v;
        }
        break;
      }
      case AggregateFunction::kCountStar:
        break;
    }
  }
  return Status::OK();
}

Status MergeAggStates(AggState* into, AggState&& other) {
  into->count += other.count;
  into->isum += other.isum;
  into->sum_is_int = into->sum_is_int && other.sum_is_int;
  // `sum` is intentionally not folded: partial states carry their float
  // terms in `terms` and FoldAggTerms replays the concatenation in morsel
  // order, the only order that adds them as the input lists them.
  if (!other.terms.empty()) {
    into->terms.reserve(into->terms.size() + other.terms.size());
    into->terms.insert(into->terms.end(), other.terms.begin(), other.terms.end());
  }
  // The per-tuple fold replaces MIN/MAX only on a strict win, so on ties
  // the earlier (this state's) value survives.
  if (into->min.is_null()) {
    into->min = std::move(other.min);
  } else if (!other.min.is_null()) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(int c, other.min.Compare(into->min));
    if (c < 0) into->min = std::move(other.min);
  }
  if (into->max.is_null()) {
    into->max = std::move(other.max);
  } else if (!other.max.is_null()) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(int c, other.max.Compare(into->max));
    if (c > 0) into->max = std::move(other.max);
  }
  return Status::OK();
}

void FoldAggTerms(AggState* state) {
  for (double d : state->terms) state->sum += d;
  state->terms.clear();
}

Result<rel::Value> FinalizeAggregate(const AggState& state, AggregateFunction fn) {
  switch (fn) {
    case AggregateFunction::kCountStar:
    case AggregateFunction::kCount:
      return rel::Value(state.count);
    case AggregateFunction::kSum:
      if (state.count == 0) return rel::Value::Null();
      return state.sum_is_int ? rel::Value(state.isum) : rel::Value(state.sum);
    case AggregateFunction::kAvg:
      if (state.count == 0) return rel::Value::Null();
      return rel::Value(state.sum / static_cast<double>(state.count));
    case AggregateFunction::kMin:
      return state.min;
    case AggregateFunction::kMax:
      return state.max;
  }
  return Status::Internal("unknown aggregate function");
}

Status FinalizeGroup(const std::vector<AggregateItem>& items, AggregateGroup* group,
                     core::AnnotatedTuple* out) {
  out->tuple = std::move(group->key);
  for (size_t i = 0; i < items.size(); ++i) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(rel::Value v,
                                  FinalizeAggregate(group->states[i], items[i].fn));
    out->tuple.Append(std::move(v));
  }
  group->summary.Release(out);
  // Grouped outputs expose aggregate columns, not the original ones:
  // annotation coverage degrades to whole-row, here and nowhere else.
  out->attachments = core::AttachmentList::WholeRow(out->attachments);
  return Status::OK();
}

rel::Schema MakeAggregateSchema(const rel::Schema& input,
                                const std::vector<rel::ExprPtr>& group_exprs,
                                const std::vector<rel::Column>& group_columns,
                                const std::vector<AggregateItem>& aggregates) {
  rel::Schema schema;
  for (size_t i = 0; i < group_exprs.size(); ++i) {
    rel::Column column = i < group_columns.size()
                             ? group_columns[i]
                             : rel::Column{group_exprs[i]->ToString(),
                                           rel::ValueType::kNull, ""};
    if (column.type == rel::ValueType::kNull) {
      column.type = group_exprs[i]->InferType(input);
    }
    schema.AddColumn(std::move(column));
  }
  for (const AggregateItem& item : aggregates) {
    rel::ValueType type = rel::ValueType::kNull;
    switch (item.fn) {
      case AggregateFunction::kCountStar:
      case AggregateFunction::kCount:
        type = rel::ValueType::kInt64;
        break;
      case AggregateFunction::kAvg:
        type = rel::ValueType::kFloat64;
        break;
      case AggregateFunction::kSum:
      case AggregateFunction::kMin:
      case AggregateFunction::kMax: {
        // SUM keeps the argument type (integer sums stay BIGINT); MIN/MAX
        // return one of the input values.
        rel::ValueType arg =
            item.arg != nullptr ? item.arg->InferType(input) : rel::ValueType::kNull;
        if (arg == rel::ValueType::kInt64 || arg == rel::ValueType::kFloat64 ||
            (item.fn != AggregateFunction::kSum && arg == rel::ValueType::kString)) {
          type = arg;
        }
        break;
      }
    }
    schema.AddColumn(rel::Column{item.output_name, type, ""});
  }
  return schema;
}

std::string FormatAggregateName(std::string_view prefix,
                                const std::vector<rel::ExprPtr>& group_exprs,
                                const std::vector<AggregateItem>& aggregates) {
  std::string name(prefix);
  name += "(";
  for (size_t i = 0; i < group_exprs.size(); ++i) {
    if (i > 0) name += ", ";
    name += group_exprs[i]->ToString();
  }
  name += " | ";
  for (size_t i = 0; i < aggregates.size(); ++i) {
    if (i > 0) name += ", ";
    name += AggregateFunctionToString(aggregates[i].fn);
  }
  name += ")";
  return name;
}

PartialAggregateOperator::PartialAggregateOperator(
    std::unique_ptr<Operator> child, std::vector<rel::ExprPtr> group_exprs,
    std::vector<AggregateItem> aggregates,
    std::shared_ptr<PartialSink<AggregatePartial>> sink)
    : child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      aggregates_(std::move(aggregates)),
      sink_(std::move(sink)) {}

Result<bool> PartialAggregateOperator::NextBatchImpl(core::AnnotatedBatch*) {
  // Drain the whole pipeline here: each child batch is one morsel (the
  // morsel scan emits one batch per morsel and every per-tuple stage maps
  // batches 1:1), folded into its own partial group table.
  core::AnnotatedBatch batch;
  while (true) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&batch));
    if (!more) break;
    if (batch.tuples.empty()) continue;  // Fully filtered morsel.
    AggregatePartial partial;
    partial.morsel = batch.morsel;
    TupleIndex index;
    index.reserve(batch.tuples.size());
    for (core::AnnotatedTuple& in : batch.tuples) {
      INSIGHTNOTES_RETURN_IF_ERROR(
          FoldIntoGroups(group_exprs_, aggregates_, &in, &index, &partial.groups));
    }
    metrics_.partial_groups += partial.groups.size();
    // Group tables + recorded SUM/AVG replay terms for this morsel.
    size_t partial_bytes =
        batch.tuples.size() * aggregates_.size() * sizeof(double);
    for (const AggregateGroup& group : partial.groups) {
      partial_bytes += GroupBytes(group);
    }
    INSIGHTNOTES_RETURN_IF_ERROR(ChargeMemory(partial_bytes));
    sink_->Publish(std::move(partial));
  }
  return false;  // Partial states surface via the sink, not as batches.
}

std::string PartialAggregateOperator::Name() const {
  return FormatAggregateName("PartialAggregate", group_exprs_, aggregates_);
}

AggregateMergeOperator::AggregateMergeOperator(
    std::unique_ptr<Operator> child, std::vector<rel::ExprPtr> group_exprs,
    std::vector<rel::Column> group_columns, std::vector<AggregateItem> aggregates,
    std::shared_ptr<PartialSink<AggregatePartial>> source, ThreadPool* pool)
    : child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      aggregates_(std::move(aggregates)),
      source_(std::move(source)),
      pool_(pool),
      schema_(MakeAggregateSchema(child_->OutputSchema(), group_exprs_,
                                  group_columns, aggregates_)) {}

Status AggregateMergeOperator::OpenImpl() {
  rows_.clear();
  cursor_ = 0;
  // Running the section drains every worker pipeline (the pool futures the
  // gather joins provide the happens-before edge for the published
  // partials).
  INSIGHTNOTES_RETURN_IF_ERROR(RunSection(child_.get()));
  std::vector<AggregatePartial> partials = source_->Take();
  Stopwatch watch;
  // Morsel order is the input order; folding each group's partials in that
  // order re-associates (without reordering) one left-fold over the input.
  std::sort(partials.begin(), partials.end(),
            [](const AggregatePartial& a, const AggregatePartial& b) {
              return a.morsel < b.morsel;
            });
  PartialChains<AggregateGroup> chains;
  TupleIndex index;
  for (AggregatePartial& partial : partials) {
    for (AggregateGroup& group : partial.groups) {
      auto it = index.find(group.key);
      if (it == index.end()) {
        it = index.emplace(group.key, chains.num_groups()).first;
      }
      chains.Append(it->second, &group);
    }
  }
  index = {};
  // Global aggregate over empty input still emits one row of zero counts.
  AggregateGroup empty;
  if (chains.num_groups() == 0 && group_exprs_.empty()) {
    empty.states.resize(aggregates_.size());
    chains.Append(0, &empty);
  }
  rows_.resize(chains.num_groups());
  Status status = FinishGroups(pool_, context_.get(), rows_.size(), [&](size_t g) {
    AggregateGroup& into = chains.First(g);
    INSIGHTNOTES_RETURN_IF_ERROR(chains.ForEachLater(g, [&](AggregateGroup& later) {
      INSIGHTNOTES_RETURN_IF_ERROR(into.summary.Combine(std::move(later.summary)));
      for (size_t i = 0; i < aggregates_.size(); ++i) {
        INSIGHTNOTES_RETURN_IF_ERROR(
            MergeAggStates(&into.states[i], std::move(later.states[i])));
      }
      return Status::OK();
    }));
    // All terms are concatenated in morsel order now; replay the float sums.
    for (AggState& state : into.states) FoldAggTerms(&state);
    return FinalizeGroup(aggregates_, &into, &rows_[g]);
  });
  if (metrics_enabled_) {
    metrics_.merge_ns += static_cast<uint64_t>(watch.ElapsedNanos());
  }
  if (!status.ok()) rows_.clear();
  return status;
}

Result<bool> AggregateMergeOperator::NextBatchImpl(core::AnnotatedBatch* out) {
  return EmitRows(&rows_, &cursor_, out);
}

std::string AggregateMergeOperator::Name() const {
  return FormatAggregateName("AggregateMerge", group_exprs_, aggregates_);
}

}  // namespace insightnotes::exec
