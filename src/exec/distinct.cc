#include "exec/distinct.h"

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

}  // namespace

Result<bool> PartialDistinctOperator::NextBatchImpl(core::AnnotatedBatch*) {
  // Drain the pipeline: each child batch is one morsel, collapsed into its
  // own local distinct set.
  core::AnnotatedBatch batch;
  while (true) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&batch));
    if (!more) break;
    if (batch.tuples.empty()) continue;  // Fully filtered morsel.
    DistinctPartial partial;
    partial.morsel = batch.morsel;
    TupleIndex index;
    index.reserve(batch.tuples.size());
    for (core::AnnotatedTuple& in : batch.tuples) {
      auto [it, inserted] = index.emplace(in.tuple, partial.entries.size());
      if (inserted) {
        DistinctEntry entry;
        entry.tuple = std::move(in.tuple);
        INSIGHTNOTES_RETURN_IF_ERROR(entry.summary.Seed(&in));
        partial.entries.push_back(std::move(entry));
      } else {
        INSIGHTNOTES_RETURN_IF_ERROR(in.Settle());
        INSIGHTNOTES_RETURN_IF_ERROR(partial.entries[it->second].summary.Fold(in));
      }
    }
    metrics_.partial_groups += partial.entries.size();
    size_t partial_bytes = 0;
    for (const DistinctEntry& entry : partial.entries) {
      partial_bytes += core::ApproxBytes(entry.tuple) + 256;
    }
    INSIGHTNOTES_RETURN_IF_ERROR(ChargeMemory(partial_bytes));
    sink_->Publish(std::move(partial));
  }
  return false;  // Distinct sets surface via the sink, not as batches.
}

Status DistinctMergeOperator::OpenImpl() {
  rows_.clear();
  cursor_ = 0;
  INSIGHTNOTES_RETURN_IF_ERROR(RunSection(child_.get()));
  std::vector<DistinctPartial> partials = source_->Take();
  Stopwatch watch;
  std::sort(partials.begin(), partials.end(),
            [](const DistinctPartial& a, const DistinctPartial& b) {
              return a.morsel < b.morsel;
            });
  PartialChains<DistinctEntry> chains;
  TupleIndex index;
  for (DistinctPartial& partial : partials) {
    for (DistinctEntry& entry : partial.entries) {
      auto it = index.find(entry.tuple);
      if (it == index.end()) {
        it = index.emplace(entry.tuple, chains.num_groups()).first;
      }
      chains.Append(it->second, &entry);
    }
  }
  index = {};
  rows_.resize(chains.num_groups());
  Status status = FinishGroups(pool_, context_.get(), rows_.size(), [&](size_t g) {
    DistinctEntry& into = chains.First(g);
    INSIGHTNOTES_RETURN_IF_ERROR(chains.ForEachLater(g, [&](DistinctEntry& later) {
      return into.summary.Combine(std::move(later.summary));
    }));
    rows_[g].tuple = std::move(into.tuple);
    into.summary.Release(&rows_[g]);
    return Status::OK();
  });
  if (metrics_enabled_) {
    metrics_.merge_ns += static_cast<uint64_t>(watch.ElapsedNanos());
  }
  if (!status.ok()) rows_.clear();
  return status;
}

Result<bool> DistinctMergeOperator::NextBatchImpl(core::AnnotatedBatch* out) {
  return EmitRows(&rows_, &cursor_, out);
}

}  // namespace insightnotes::exec
