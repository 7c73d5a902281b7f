#include "mining/clustering.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/sorted_ids.h"

namespace insightnotes::mining {

txt::SparseVector TextVectorizer::Vectorize(std::string_view text) {
  return VectorizeTokens(tokenizer_.Tokenize(text));
}

txt::SparseVector TextVectorizer::VectorizeTokens(const std::vector<std::string>& tokens) {
  return txt::SparseVector::FromTokens(tokens, &vocab_);
}

void ClusterSet::VectorsOf(std::span<const DocId> docs,
                           std::vector<const txt::SparseVector*>* out) const {
  if (store_ != nullptr) {
    store_->GetVectors(docs, out);
    return;
  }
  out->resize(docs.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    auto it = owned_vectors_.find(docs[i]);
    (*out)[i] = it == owned_vectors_.end() ? nullptr : &it->second;
  }
}

std::vector<ClusterSet::DocSlot>::const_iterator ClusterSet::FindSlot(DocId doc) const {
  auto it = std::lower_bound(docs_.begin(), docs_.end(), doc,
                             [](const DocSlot& slot, DocId d) { return slot.doc < d; });
  return it != docs_.end() && it->doc == doc ? it : docs_.end();
}

bool ClusterSet::Contains(DocId doc) const { return FindSlot(doc) != docs_.end(); }

bool ClusterSet::ContainsAny(std::span<const DocId> docs) const {
  return IntersectsSorted(docs_, docs, SlotDoc{});
}

Result<size_t> ClusterSet::Add(DocId doc, const txt::SparseVector& vec) {
  auto pos = std::lower_bound(docs_.begin(), docs_.end(), doc,
                              [](const DocSlot& slot, DocId d) { return slot.doc < d; });
  if (pos != docs_.end() && pos->doc == doc) {
    return Status::AlreadyExists("document " + std::to_string(doc) +
                                 " already clustered");
  }
  // Join the most similar group at or above the threshold; ties go to the
  // lowest group index (deterministic).
  size_t best = groups_.size();
  double best_sim = -1.0;
  for (size_t i = 0; i < groups_.size(); ++i) {
    double sim = groups_[i].SimilarityTo(vec);
    if (sim >= threshold_ && sim > best_sim) {
      best = i;
      best_sim = sim;
    }
  }
  docs_.insert(pos, DocSlot{doc, best});
  if (store_ == nullptr) owned_vectors_.emplace(doc, vec);
  if (best == groups_.size()) {
    ClusterGroup group;
    group.centroid_sum = vec;
    group.members = {doc};
    group.representative = doc;
    groups_.push_back(std::move(group));
    return best;
  }
  ClusterGroup* group = &groups_[best];
  group->centroid_sum.AddScaled(vec, 1.0);
  group->members.insert(
      std::lower_bound(group->members.begin(), group->members.end(), doc), doc);
  ElectRepresentatives({&group, 1});
  return best;
}

Status ClusterSet::Restrict(std::span<const DocId> dropped) {
  // The members among `dropped` and their vectors, resolved before any
  // change so a missing vector leaves the set as it was.
  std::vector<DocId> hits;
  std::vector<size_t> hit_groups;
  size_t at = 0;
  for (DocId doc : dropped) {
    at = GallopSorted(docs_, at, doc, SlotDoc{});
    if (at == docs_.size()) break;
    if (docs_[at].doc == doc) {
      hits.push_back(doc);
      hit_groups.push_back(docs_[at].group);
    }
  }
  if (hits.empty()) return Status::OK();
  std::vector<const txt::SparseVector*> vectors;
  VectorsOf(hits, &vectors);
  for (size_t i = 0; i < hits.size(); ++i) {
    if (vectors[i] == nullptr) {
      return Status::Internal("vector store has no vector for document " +
                              std::to_string(hits[i]));
    }
  }
  // Visit the hits group by group (each group's run stays ascending), so
  // only the groups that lose a member are touched, each once.
  std::vector<size_t> order(hits.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return hit_groups[a] < hit_groups[b]; });
  std::vector<ClusterGroup*> touched;
  std::vector<DocId> run;
  bool emptied = false;
  for (size_t begin = 0; begin < order.size();) {
    ClusterGroup& group = groups_[hit_groups[order[begin]]];
    run.clear();
    size_t end = begin;
    for (; end < order.size() && hit_groups[order[end]] == hit_groups[order[begin]]; ++end) {
      run.push_back(hits[order[end]]);
      group.centroid_sum.Subtract(*vectors[order[end]]);
    }
    EraseSorted(&group.members, std::span<const DocId>(run));
    if (group.members.empty()) {
      emptied = true;
    } else {
      touched.push_back(&group);
    }
    begin = end;
  }
  ElectRepresentatives(touched);
  EraseSorted(&docs_, std::span<const DocId>(hits), SlotDoc{});
  if (emptied) DropEmptyGroups();
  if (store_ == nullptr) {
    for (DocId doc : hits) owned_vectors_.erase(doc);
  }
  return Status::OK();
}

void ClusterSet::DropEmptyGroups() {
  std::vector<size_t> renumber(groups_.size());
  size_t kept = 0;
  for (size_t g = 0; g < groups_.size(); ++g) {
    renumber[g] = kept;
    if (groups_[g].members.empty()) continue;
    if (kept != g) groups_[kept] = std::move(groups_[g]);
    ++kept;
  }
  if (kept == groups_.size()) return;
  groups_.erase(groups_.begin() + static_cast<std::ptrdiff_t>(kept), groups_.end());
  for (DocSlot& slot : docs_) slot.group = renumber[slot.group];
}

Status ClusterSet::Merge(const ClusterSet& other) {
  if (&other == this) return Status::OK();  // Every member is shared.
  // The documents new here and their vectors, resolved before any change
  // so a missing vector leaves the set as it was.
  std::vector<DocId> fresh;
  auto mine = docs_.begin();
  for (const DocSlot& slot : other.docs_) {
    while (mine != docs_.end() && mine->doc < slot.doc) ++mine;
    if (mine == docs_.end() || mine->doc != slot.doc) fresh.push_back(slot.doc);
  }
  std::vector<const txt::SparseVector*> vectors;
  other.VectorsOf(fresh, &vectors);
  for (size_t i = 0; i < fresh.size(); ++i) {
    if (vectors[i] == nullptr) {
      return Status::Internal("merge source missing vector for document " +
                              std::to_string(fresh[i]));
    }
  }
  if (store_ == nullptr) {
    for (size_t i = 0; i < fresh.size(); ++i) owned_vectors_.emplace(fresh[i], *vectors[i]);
  }

  // New documents enter docs_ unplaced; folding their incoming group
  // places them. docs_ does not change size from here on.
  constexpr size_t kUnplaced = std::numeric_limits<size_t>::max();
  const size_t held = docs_.size();
  for (DocId doc : fresh) docs_.push_back(DocSlot{doc, kUnplaced});
  std::inplace_merge(docs_.begin(), docs_.begin() + static_cast<std::ptrdiff_t>(held),
                     docs_.end(),
                     [](const DocSlot& a, const DocSlot& b) { return a.doc < b.doc; });
  auto slot_of = [this](DocId doc) -> DocSlot& {
    return *std::lower_bound(docs_.begin(), docs_.end(), doc,
                             [](const DocSlot& slot, DocId d) { return slot.doc < d; });
  };

  // Fold the incoming groups in one at a time. One that overlaps local
  // groups combines them into the first; the others are emptied (dropped
  // at the end, so group indexes hold while folding). A disjoint one is
  // appended as is: its sum and representative are functions of its
  // member set, so they carry over.
  std::vector<size_t> changed;
  std::vector<size_t> overlapping;
  std::vector<DocSlot*> placing;
  for (const ClusterGroup& incoming : other.groups_) {
    overlapping.clear();
    placing.clear();
    for (DocId doc : incoming.members) {
      DocSlot& slot = slot_of(doc);
      if (slot.group == kUnplaced) {
        placing.push_back(&slot);
      } else {
        overlapping.push_back(slot.group);
      }
    }
    if (overlapping.empty()) {
      for (DocSlot* slot : placing) slot->group = groups_.size();
      groups_.push_back(incoming);
      continue;
    }
    std::sort(overlapping.begin(), overlapping.end());
    overlapping.erase(std::unique(overlapping.begin(), overlapping.end()),
                      overlapping.end());
    const size_t first = overlapping.front();
    ClusterGroup& target = groups_[first];
    for (size_t k = 1; k < overlapping.size(); ++k) {
      ClusterGroup& absorbed = groups_[overlapping[k]];
      for (DocId doc : absorbed.members) slot_of(doc).group = first;
      target.members.insert(target.members.end(), absorbed.members.begin(),
                            absorbed.members.end());
      target.centroid_sum.AddScaled(absorbed.centroid_sum, 1.0);
      absorbed = ClusterGroup{};
    }
    for (DocSlot* slot : placing) {
      slot->group = first;
      target.members.push_back(slot->doc);
      auto k = std::lower_bound(fresh.begin(), fresh.end(), slot->doc) - fresh.begin();
      target.centroid_sum.AddScaled(*vectors[static_cast<size_t>(k)], 1.0);
    }
    if (overlapping.size() > 1 || !placing.empty()) changed.push_back(first);
  }

  // Each changed group that is still there sorts its members and re-elects
  // once.
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
  std::vector<ClusterGroup*> touched;
  for (size_t g : changed) {
    ClusterGroup& group = groups_[g];
    if (group.members.empty()) continue;  // Absorbed by a later group.
    std::sort(group.members.begin(), group.members.end());
    touched.push_back(&group);
  }
  ElectRepresentatives(touched);
  DropEmptyGroups();
  return Status::OK();
}

Result<std::vector<DocId>> ClusterSet::GroupMembers(size_t index) const {
  if (index >= groups_.size()) {
    return Status::OutOfRange("cluster group " + std::to_string(index) +
                              " out of range");
  }
  return groups_[index].members;
}

bool ClusterSet::SameGrouping(const ClusterSet& other) const {
  if (groups_.size() != other.groups_.size()) return false;
  auto key = [](const ClusterSet& cs) {
    std::vector<std::vector<DocId>> groups;
    groups.reserve(cs.groups_.size());
    for (const ClusterGroup& g : cs.groups_) groups.push_back(g.members);
    std::sort(groups.begin(), groups.end());
    return groups;
  };
  return key(*this) == key(other);
}

void ClusterSet::ElectRepresentatives(std::span<ClusterGroup* const> groups) const {
  if (groups.empty()) return;
  std::vector<DocId> docs;
  for (const ClusterGroup* group : groups) {
    docs.insert(docs.end(), group->members.begin(), group->members.end());
  }
  std::vector<const txt::SparseVector*> vectors;
  VectorsOf(docs, &vectors);
  size_t offset = 0;
  for (ClusterGroup* group : groups) {
    // Members are scored against the maintained centroid_sum, whose norm is
    // computed once. Member vectors are term counts, so that sum is exact
    // integer arithmetic: the same member set gives the same sum, and so
    // the same representative, whatever order Add, Merge and Restrict
    // folded it in (serial and parallel plans agree byte for byte).
    double norm = group->centroid_sum.Norm();
    double best_sim = -1.0;
    DocId best = group->members.empty() ? 0 : group->members.front();
    for (size_t k = 0; k < group->members.size(); ++k) {
      const txt::SparseVector* vec = vectors[offset + k];
      if (vec == nullptr) continue;
      double sim = group->centroid_sum.CosineWithNorm(*vec, norm);
      if (sim > best_sim) {
        best_sim = sim;
        best = group->members[k];
      }
    }
    offset += group->members.size();
    group->representative = best;
  }
}

}  // namespace insightnotes::mining
