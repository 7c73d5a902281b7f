#include "mining/clustering.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/sorted_ids.h"

namespace insightnotes::mining {

namespace {

/// One group's centroid sum scattered by term, so each member's dot with
/// it costs O(|member|) instead of a merge walk over both. Open addressing
/// over the first power of two >= 2|C| slots: the memory follows the
/// largest centroid this thread scattered, never the magnitude of a term
/// id. Slots carry the stamp of the scatter that wrote them, so starting
/// the next one clears the table by bumping the stamp.
class CentroidScatter {
 public:
  void Load(txt::SparseView centroid) {
    const size_t terms = centroid.entries().size();
    bits_ = 4;
    while ((size_t{1} << bits_) < 2 * terms) ++bits_;
    if (slots_.size() < (size_t{1} << bits_)) slots_.resize(size_t{1} << bits_);
    if (++stamp_ == 0) {  // Wrapped: no slot may keep a live-looking stamp.
      for (Slot& slot : slots_) slot.stamp = 0;
      stamp_ = 1;
    }
    const size_t mask = (size_t{1} << bits_) - 1;
    for (const txt::TermWeight& e : centroid.entries()) {
      size_t at = Home(e.term);
      while (slots_[at].stamp == stamp_) at = (at + 1) & mask;
      slots_[at] = Slot{e.term, stamp_, e.value};
    }
  }

  /// `member`'s dot with the loaded centroid: the products SparseView::Dot
  /// forms, added in the same ascending term order, so the same bits.
  double Dot(txt::SparseView member) const {
    const size_t mask = (size_t{1} << bits_) - 1;
    double sum = 0.0;
    for (const txt::TermWeight& e : member.entries()) {
      for (size_t at = Home(e.term); slots_[at].stamp == stamp_; at = (at + 1) & mask) {
        if (slots_[at].term == e.term) {
          sum += slots_[at].value * e.value;
          break;
        }
      }
    }
    return sum;
  }

 private:
  struct Slot {
    txt::TermId term = 0;
    uint32_t stamp = 0;
    double value = 0.0;
  };
  /// Fibonacci hashing: the top bits_ bits of the scrambled id.
  size_t Home(txt::TermId term) const {
    return static_cast<size_t>((uint64_t{term} * 0x9E3779B97F4A7C15ULL) >> (64 - bits_));
  }

  std::vector<Slot> slots_;
  uint32_t stamp_ = 0;
  unsigned bits_ = 4;
};

/// The member of `members` (ascending) closest to `centroid` by cosine,
/// ties to the lowest id; `vectors` is aligned with `members`, and a
/// member with no vector is skipped. The centroid is the maintained exact
/// integer sum and every norm is computed once (the centroid's by the
/// caller, the members' on commit), so the same member set elects the same
/// representative whatever order Add, Merge and Restrict folded it in
/// (serial and parallel plans agree byte for byte). The centroid is
/// scattered once into this thread's table; each member's dot then reads
/// it in O(|member|).
DocId Elect(txt::SparseView centroid, double norm, std::span<const DocId> members,
            std::span<const DocVector* const> vectors) {
  // A lone member wins whatever its cosine (every cosine beats -1).
  if (members.size() <= 1) return members.empty() ? 0 : members.front();
  thread_local CentroidScatter scatter;
  scatter.Load(centroid);
  double best_sim = -1.0;
  DocId best = members.front();
  for (size_t k = 0; k < members.size(); ++k) {
    const DocVector* vec = vectors[k];
    if (vec == nullptr) continue;
    const double sim = txt::SparseView::CosineFromDot(scatter.Dot(vec->vector.view()),
                                                      norm, vec->norm);
    if (sim > best_sim) {
      best_sim = sim;
      best = members[k];
    }
  }
  return best;
}

}  // namespace

// --- DocVectorStore ---------------------------------------------------------

DocVectorStore::Slot* DocVectorStore::FindSlot(DocId doc) const {
  const DocId key = doc >> kPageBits;
  auto it = std::lower_bound(pages_.begin(), pages_.end(), key,
                             [](const Page& page, DocId k) { return page.key < k; });
  if (it == pages_.end() || it->key != key) return nullptr;
  return &(*it->slots)[doc & (kPageSize - 1)];
}

bool DocVectorStore::Commit(DocId doc, txt::SparseVector vector) {
  const double norm = vector.Norm();
  std::lock_guard<std::mutex> lock(mutex_);
  Slot* slot = FindSlot(doc);
  if (slot == nullptr) {
    const DocId key = doc >> kPageBits;
    auto it = std::lower_bound(pages_.begin(), pages_.end(), key,
                               [](const Page& page, DocId k) { return page.key < k; });
    it = pages_.insert(it, Page{key, std::make_unique<std::array<Slot, kPageSize>>()});
    slot = &(*it->slots)[doc & (kPageSize - 1)];
  }
  if (slot->committed) return false;
  slot->stored.vector = std::move(vector);
  slot->stored.norm = norm;
  slot->committed = true;
  return true;
}

bool DocVectorStore::Contains(DocId doc) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Slot* slot = FindSlot(doc);
  return slot != nullptr && slot->committed;
}

bool DocVectorStore::empty() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pages_.empty();
}

void DocVectorStore::GetVectors(std::span<const DocId> docs,
                                std::vector<const DocVector*>* out) const {
  out->resize(docs.size());
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < docs.size(); ++i) {
    const Slot* slot = FindSlot(docs[i]);
    (*out)[i] = slot != nullptr && slot->committed ? &slot->stored : nullptr;
  }
}

void DocVectorStore::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  pages_.clear();
}

// --- ClusterSet -------------------------------------------------------------

ClusterGroup ClusterSet::group(size_t index) const {
  const Group& g = groups_[index];
  return ClusterGroup{g.representative, MembersOf(g), CentroidOf(g), g.norm};
}

bool ClusterSet::Contains(DocId doc) const {
  size_t at = GallopSorted(docs_, 0, doc, SlotDoc{});
  return at != docs_.size() && docs_[at].doc == doc;
}

bool ClusterSet::ContainsAny(std::span<const DocId> docs) const {
  return IntersectsSorted(docs_, docs, SlotDoc{});
}

void ClusterSet::AppendGroups(const ClusterSet& from, size_t first, size_t last) {
  if (first == last) return;
  // Consecutive groups own consecutive runs: one copy per array.
  const Group& head = from.groups_[first];
  const Group& tail = from.groups_[last - 1];
  const size_t member_base = members_.size();
  const size_t centroid_base = centroids_.size();
  members_.insert(members_.end(), from.members_.begin() + head.member_begin,
                  from.members_.begin() + tail.member_begin + tail.member_count);
  centroids_.insert(centroids_.end(), from.centroids_.begin() + head.centroid_begin,
                    from.centroids_.begin() + tail.centroid_begin + tail.centroid_count);
  for (size_t g = first; g < last; ++g) {
    Group copy = from.groups_[g];
    copy.member_begin = static_cast<uint32_t>(copy.member_begin - head.member_begin + member_base);
    copy.centroid_begin =
        static_cast<uint32_t>(copy.centroid_begin - head.centroid_begin + centroid_base);
    groups_.push_back(copy);
  }
}

void ClusterSet::SealGroup(size_t member_begin, size_t centroid_begin,
                           std::span<const DocVector* const> vectors) {
  Group g;
  g.member_begin = static_cast<uint32_t>(member_begin);
  g.member_count = static_cast<uint32_t>(members_.size() - member_begin);
  g.centroid_begin = static_cast<uint32_t>(centroid_begin);
  g.centroid_count = static_cast<uint32_t>(centroids_.size() - centroid_begin);
  g.norm = CentroidOf(g).Norm();
  g.representative = Elect(CentroidOf(g), g.norm, MembersOf(g), vectors);
  groups_.push_back(g);
}

Result<size_t> ClusterSet::Add(DocId doc) {
  auto pos = std::lower_bound(docs_.begin(), docs_.end(), doc,
                              [](const DocSlot& slot, DocId d) { return slot.doc < d; });
  if (pos != docs_.end() && pos->doc == doc) {
    return Status::AlreadyExists("document " + std::to_string(doc) +
                                 " already clustered");
  }
  std::vector<const DocVector*> vectors;
  store_->GetVectors({&doc, 1}, &vectors);
  const DocVector* vec = vectors.front();
  if (vec == nullptr) {
    return Status::NotFound("vector store has no vector for document " +
                            std::to_string(doc));
  }
  // Join the most similar group at or above the threshold; ties go to the
  // lowest group index (deterministic).
  size_t best = groups_.size();
  double best_sim = -1.0;
  for (size_t i = 0; i < groups_.size(); ++i) {
    double sim = CentroidOf(groups_[i]).CosineWithNorms(vec->vector.view(),
                                                        groups_[i].norm, vec->norm);
    if (sim >= threshold_ && sim > best_sim) {
      best = i;
      best_sim = sim;
    }
  }
  docs_.insert(pos, DocSlot{doc, best});
  if (best == groups_.size()) {
    const size_t member_begin = members_.size();
    const size_t centroid_begin = centroids_.size();
    members_.push_back(doc);
    const auto& entries = vec->vector.entries();
    centroids_.insert(centroids_.end(), entries.begin(), entries.end());
    SealGroup(member_begin, centroid_begin, vectors);
    return best;
  }

  // The joined group's runs grow in place; the runs after it shift.
  Group& g = groups_[best];
  std::span<const DocId> members = MembersOf(g);
  auto at = std::lower_bound(members.begin(), members.end(), doc) - members.begin();
  members_.insert(members_.begin() + g.member_begin + at, doc);
  ++g.member_count;
  std::vector<txt::TermWeight> sum;
  sum.reserve(g.centroid_count + vec->vector.NumNonZero());
  txt::AppendSum(CentroidOf(g), vec->vector.view(), &sum);
  const auto grown = static_cast<std::ptrdiff_t>(sum.size()) - g.centroid_count;
  auto run = centroids_.begin() + g.centroid_begin;
  if (grown > 0) {
    centroids_.insert(run + g.centroid_count, static_cast<size_t>(grown), txt::TermWeight{});
  } else if (grown < 0) {
    centroids_.erase(run + static_cast<std::ptrdiff_t>(sum.size()), run + g.centroid_count);
  }
  std::copy(sum.begin(), sum.end(), centroids_.begin() + g.centroid_begin);
  g.centroid_count = static_cast<uint32_t>(sum.size());
  for (size_t i = best + 1; i < groups_.size(); ++i) {
    ++groups_[i].member_begin;
    groups_[i].centroid_begin = static_cast<uint32_t>(groups_[i].centroid_begin + grown);
  }
  store_->GetVectors(MembersOf(g), &vectors);
  g.norm = CentroidOf(g).Norm();
  g.representative = Elect(CentroidOf(g), g.norm, MembersOf(g), vectors);
  return best;
}

Status ClusterSet::Restrict(std::span<const DocId> dropped) {
  INSIGHTNOTES_ASSIGN_OR_RETURN(*this, Restricted(dropped));
  return Status::OK();
}

Result<ClusterSet> ClusterSet::Restricted(std::span<const DocId> dropped) const {
  // The slots of the members among `dropped`, ascending.
  std::vector<size_t> hit_at;
  hit_at.reserve(std::min(dropped.size(), docs_.size()));
  size_t at = 0;
  for (DocId doc : dropped) {
    at = GallopSorted(docs_, at, doc, SlotDoc{});
    if (at == docs_.size()) break;
    if (docs_[at].doc == doc) hit_at.push_back(at);
  }
  if (hit_at.empty()) return *this;
  // The same members group by group, each run ascending, and how many
  // each group loses.
  std::vector<std::pair<size_t, DocId>> hits;
  hits.reserve(hit_at.size());
  std::vector<uint32_t> lost(groups_.size(), 0);
  for (size_t i : hit_at) {
    hits.emplace_back(docs_[i].group, docs_[i].doc);
    ++lost[docs_[i].group];
  }
  std::sort(hits.begin(), hits.end());

  // The vectors of every member of each group that loses some but not all
  // of its members, in one lookup, group after group.
  std::vector<DocId> lookup;
  lookup.reserve(members_.size());
  for (size_t g = 0; g < groups_.size(); ++g) {
    if (lost[g] == 0 || lost[g] == groups_[g].member_count) continue;
    std::span<const DocId> members = MembersOf(groups_[g]);
    lookup.insert(lookup.end(), members.begin(), members.end());
  }
  std::vector<const DocVector*> vectors;
  store_->GetVectors(lookup, &vectors);

  ClusterSet out(store_, threshold_);
  out.groups_.reserve(groups_.size());
  out.members_.reserve(members_.size() - hits.size());
  out.centroids_.reserve(centroids_.size());
  out.docs_.reserve(docs_.size() - hits.size());
  std::vector<size_t> renumber(groups_.size());
  std::vector<const DocVector*> kept;
  kept.reserve(lookup.size());
  size_t offset = 0;
  size_t h = 0;
  size_t copy_from = 0;  // Untouched groups are copied in runs.
  for (size_t g = 0; g < groups_.size(); ++g) {
    const Group& source = groups_[g];
    if (lost[g] == 0) {
      renumber[g] = out.groups_.size() + (g - copy_from);
      continue;
    }
    out.AppendGroups(*this, copy_from, g);
    copy_from = g + 1;
    if (lost[g] == source.member_count) {  // Emptied: vanishes.
      h += lost[g];
      continue;
    }
    renumber[g] = out.groups_.size();
    // One walk over the members against the group's run of dropped ones:
    // survivors are copied, dropped vectors come off a copy of the sum.
    const size_t member_begin = out.members_.size();
    const size_t centroid_begin = out.centroids_.size();
    std::span<const txt::TermWeight> sum = CentroidOf(source).entries();
    out.centroids_.insert(out.centroids_.end(), sum.begin(), sum.end());
    kept.clear();
    for (DocId doc : MembersOf(source)) {
      const DocVector* vec = vectors[offset++];
      if (h == hits.size() || hits[h].second != doc) {
        out.members_.push_back(doc);
        kept.push_back(vec);
        continue;
      }
      ++h;
      if (vec == nullptr) {
        return Status::Internal("vector store has no vector for document " +
                                std::to_string(doc));
      }
      txt::SubtractFromTail(&out.centroids_, centroid_begin, vec->vector.view());
    }
    txt::DropZeros(&out.centroids_, centroid_begin);
    out.SealGroup(member_begin, centroid_begin, kept);
  }
  out.AppendGroups(*this, copy_from, groups_.size());
  auto next_hit = hit_at.begin();
  for (size_t i = 0; i < docs_.size(); ++i) {
    if (next_hit != hit_at.end() && *next_hit == i) {
      ++next_hit;
      continue;
    }
    out.docs_.push_back(DocSlot{docs_[i].doc, renumber[docs_[i].group]});
  }
  // The sums were reserved at their size before the drops; a restricted
  // set may be kept long after (a trim memo holds it), so it keeps no
  // slack.
  out.centroids_.shrink_to_fit();
  return out;
}

Status ClusterSet::Merge(const ClusterSet& other) {
  if (&other == this) return Status::OK();  // Every member is shared.
  constexpr size_t kNone = std::numeric_limits<size_t>::max();
  // One walk over both document lists: which local groups each incoming
  // group shares members with, and the documents new here.
  std::vector<std::pair<size_t, size_t>> shared;  // (incoming, local) group.
  std::vector<DocSlot> fresh;                     // With their incoming group.
  std::vector<uint32_t> fresh_in(other.groups_.size(), 0);
  fresh.reserve(other.docs_.size());
  size_t mine = 0;
  for (const DocSlot& slot : other.docs_) {
    mine = GallopSorted(docs_, mine, slot.doc, SlotDoc{});
    if (mine != docs_.size() && docs_[mine].doc == slot.doc) {
      shared.emplace_back(slot.group, docs_[mine].group);
    } else {
      fresh.push_back(slot);
      ++fresh_in[slot.group];
    }
  }
  std::sort(shared.begin(), shared.end());
  shared.erase(std::unique(shared.begin(), shared.end()), shared.end());

  // Fold the incoming groups in one at a time. One that shares members
  // combines the local groups it touches into the first (a union-find over
  // local groups: root[g] leads to the group g was combined into) and
  // brings its new documents there; a disjoint one is appended.
  const size_t local = groups_.size();
  std::vector<size_t> root(local);
  std::iota(root.begin(), root.end(), size_t{0});
  auto find = [&root](size_t g) {
    while (root[g] != g) g = root[g] = root[root[g]];
    return g;
  };
  std::vector<size_t> target(other.groups_.size(), kNone);
  std::vector<bool> changed(local, false);
  bool any_changed = false;
  std::vector<size_t> touched;
  for (size_t in = 0, s = 0; in < other.groups_.size(); ++in) {
    touched.clear();
    for (; s < shared.size() && shared[s].first == in; ++s) {
      touched.push_back(find(shared[s].second));
    }
    if (touched.empty()) continue;
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    const size_t first = touched.front();
    for (size_t k = 1; k < touched.size(); ++k) root[touched[k]] = first;
    if (touched.size() > 1 || fresh_in[in] > 0) changed[first] = any_changed = true;
    target[in] = first;
  }

  // Final group order: the surviving local groups, then the appended ones.
  std::vector<size_t> index_of(local);
  size_t next = 0;
  for (size_t g = 0; g < local; ++g) {
    root[g] = find(g);
    if (root[g] == g) index_of[g] = next++;
  }
  for (size_t g = 0; g < local; ++g) index_of[g] = index_of[root[g]];
  std::vector<size_t> appended_index(other.groups_.size(), kNone);
  for (size_t in = 0; in < other.groups_.size(); ++in) {
    if (target[in] == kNone) appended_index[in] = next++;
  }
  auto append_incoming = [&](ClusterSet* into) {
    for (size_t in = 0; in < other.groups_.size();) {
      size_t end = in;
      while (end < other.groups_.size() && target[end] == kNone) ++end;
      into->AppendGroups(other, in, end);
      in = end + 1;
    }
  };
  auto slot_of_fresh = [&](const DocSlot& incoming) {
    return DocSlot{incoming.doc, target[incoming.group] == kNone
                                     ? appended_index[incoming.group]
                                     : index_of[target[incoming.group]]};
  };

  // No local group changed: the new groups are appended in place and their
  // documents merged into the slots.
  if (!any_changed) {
    append_incoming(this);
    const size_t held = docs_.size();
    for (const DocSlot& slot : fresh) docs_.push_back(slot_of_fresh(slot));
    std::inplace_merge(docs_.begin(), docs_.begin() + static_cast<std::ptrdiff_t>(held),
                       docs_.end(),
                       [](const DocSlot& a, const DocSlot& b) { return a.doc < b.doc; });
    return Status::OK();
  }

  // Each combined group's sources: its local groups ascending (a counting
  // sort by root), then its new documents ascending.
  std::vector<size_t> source_begin(local + 1, 0);
  for (size_t g = 0; g < local; ++g) ++source_begin[root[g] + 1];
  for (size_t g = 0; g < local; ++g) source_begin[g + 1] += source_begin[g];
  std::vector<size_t> sources(local);
  {
    std::vector<size_t> fill(source_begin.begin(), source_begin.end() - 1);
    for (size_t g = 0; g < local; ++g) sources[fill[root[g]]++] = g;
  }
  std::vector<std::pair<size_t, DocId>> placed;  // (root, doc)
  for (const DocSlot& slot : fresh) {
    if (target[slot.group] != kNone) placed.emplace_back(root[target[slot.group]], slot.doc);
  }
  std::stable_sort(placed.begin(), placed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  // The vectors of every member of a combined group, in one lookup, in
  // the order the build below visits them.
  std::vector<DocId> lookup;
  for (size_t r = 0, p = 0; r < local; ++r) {
    if (root[r] != r || !changed[r]) continue;
    for (size_t k = source_begin[r]; k < source_begin[r + 1]; ++k) {
      std::span<const DocId> members = MembersOf(groups_[sources[k]]);
      lookup.insert(lookup.end(), members.begin(), members.end());
    }
    for (; p < placed.size() && placed[p].first == r; ++p) lookup.push_back(placed[p].second);
  }
  std::vector<const DocVector*> vectors;
  store_->GetVectors(lookup, &vectors);

  ClusterSet out(store_, threshold_);
  out.groups_.reserve(next);
  out.members_.reserve(members_.size() + fresh.size());
  out.centroids_.reserve(centroids_.size() + other.centroids_.size());
  out.docs_.reserve(docs_.size() + fresh.size());
  std::vector<std::pair<DocId, const DocVector*>> combined;
  std::vector<txt::TermWeight> sum;
  std::vector<txt::TermWeight> scratch;
  std::vector<const DocVector*> kept;
  size_t offset = 0;
  size_t p = 0;
  size_t copy_from = 0;  // Unchanged groups are copied in runs.
  for (size_t g = 0; g < local; ++g) {
    if (root[g] == g && !changed[g]) continue;
    out.AppendGroups(*this, copy_from, g);
    copy_from = g + 1;
    if (root[g] != g) continue;  // Combined into an earlier group.
    // A combined group: the union of its sources' members, and the sum of
    // their sums and the new documents' vectors (exact integer sums, so
    // the fold order does not matter).
    combined.clear();
    sum.clear();
    for (size_t k = source_begin[g]; k < source_begin[g + 1]; ++k) {
      const Group& source = groups_[sources[k]];
      for (DocId doc : MembersOf(source)) combined.emplace_back(doc, vectors[offset++]);
      scratch.clear();
      txt::AppendSum(txt::SparseView(sum), CentroidOf(source), &scratch);
      sum.swap(scratch);
    }
    for (; p < placed.size() && placed[p].first == g; ++p) {
      const DocVector* vec = vectors[offset++];
      if (vec == nullptr) {
        return Status::Internal("merge source missing vector for document " +
                                std::to_string(placed[p].second));
      }
      combined.emplace_back(placed[p].second, vec);
      scratch.clear();
      txt::AppendSum(txt::SparseView(sum), vec->vector.view(), &scratch);
      sum.swap(scratch);
    }
    std::sort(combined.begin(), combined.end());
    const size_t member_begin = out.members_.size();
    const size_t centroid_begin = out.centroids_.size();
    kept.clear();
    for (const auto& [doc, vec] : combined) {
      out.members_.push_back(doc);
      kept.push_back(vec);
    }
    out.centroids_.insert(out.centroids_.end(), sum.begin(), sum.end());
    out.SealGroup(member_begin, centroid_begin, kept);
  }
  out.AppendGroups(*this, copy_from, local);
  append_incoming(&out);

  // The slots: local documents renumbered, new ones merged in.
  auto f = fresh.begin();
  for (const DocSlot& slot : docs_) {
    for (; f != fresh.end() && f->doc < slot.doc; ++f) out.docs_.push_back(slot_of_fresh(*f));
    out.docs_.push_back(DocSlot{slot.doc, index_of[slot.group]});
  }
  for (; f != fresh.end(); ++f) out.docs_.push_back(slot_of_fresh(*f));
  *this = std::move(out);
  return Status::OK();
}

Result<std::vector<DocId>> ClusterSet::GroupMembers(size_t index) const {
  if (index >= groups_.size()) {
    return Status::OutOfRange("cluster group " + std::to_string(index) +
                              " out of range");
  }
  std::span<const DocId> members = MembersOf(groups_[index]);
  return std::vector<DocId>(members.begin(), members.end());
}

bool ClusterSet::SameGrouping(const ClusterSet& other) const {
  if (groups_.size() != other.groups_.size()) return false;
  auto key = [](const ClusterSet& cs) {
    std::vector<std::vector<DocId>> groups;
    groups.reserve(cs.groups_.size());
    for (const Group& g : cs.groups_) {
      std::span<const DocId> members = cs.MembersOf(g);
      groups.emplace_back(members.begin(), members.end());
    }
    std::sort(groups.begin(), groups.end());
    return groups;
  };
  return key(*this) == key(other);
}

}  // namespace insightnotes::mining
