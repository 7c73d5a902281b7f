// Online single-pass (leader-follower) text clustering with centroid
// maintenance and representative election — the kernel behind Cluster-type
// summary objects (cf. text-stream clustering, the paper's reference [23]).
//
// A ClusterSet holds groups of similar documents. It supports the full
// algebra the summary layer needs:
//   * Add      — incremental maintenance on annotation insert,
//   * Restrict — projection trim: drop the effect of a set of documents in
//                one pass,
//   * Merge    — join/grouping, overlap-aware: groups sharing members are
//                combined (no double counting), disjoint groups are
//                concatenated — exactly Figure 2's SimCluster semantics.
// Representatives are re-elected deterministically (closest to centroid,
// ties to the lowest document id) whenever membership changes, so a
// group's representative is a function of its member set alone.

#ifndef INSIGHTNOTES_MINING_CLUSTERING_H_
#define INSIGHTNOTES_MINING_CLUSTERING_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "txt/tfidf.h"
#include "txt/tokenizer.h"
#include "txt/vocabulary.h"

namespace insightnotes::mining {

using DocId = uint64_t;

/// Source of document vectors for removal, merging and representative
/// election. When a ClusterSet is given a store, it does NOT retain member
/// vectors itself — cloning a cluster summary then costs O(members) ids
/// instead of O(members x terms) vector data. InsightNotes points this at
/// the summary instance's vectorize-once cache.
class DocVectorStore {
 public:
  virtual ~DocVectorStore() = default;
  /// Resolves every document of one cluster operation in a single call,
  /// so a store takes its lock once, not once per document: `out` is
  /// resized to `docs.size()` and out[i] is the vector of docs[i], or
  /// nullptr if unknown.
  virtual void GetVectors(std::span<const DocId> docs,
                          std::vector<const txt::SparseVector*>* out) const = 0;
};

/// Turns raw text into sparse term vectors against a shared, growing
/// vocabulary. One vectorizer is shared by all summary objects of a cluster
/// instance so their vectors are comparable.
class TextVectorizer {
 public:
  TextVectorizer() = default;

  /// Tokenizes and counts; new terms extend the vocabulary.
  txt::SparseVector Vectorize(std::string_view text);

  /// Counts pre-tokenized terms; new terms extend the vocabulary. Lets
  /// parallel ingest tokenize off-thread and fold into the shared
  /// vocabulary in a deterministic serial pass.
  txt::SparseVector VectorizeTokens(const std::vector<std::string>& tokens);

  const txt::Tokenizer& tokenizer() const { return tokenizer_; }
  const txt::Vocabulary& vocabulary() const { return vocab_; }

 private:
  txt::Tokenizer tokenizer_;
  txt::Vocabulary vocab_;
};

/// One group of similar documents.
struct ClusterGroup {
  // Sum of member vectors. Member vectors are term counts, so the sum is
  // exact integer arithmetic and does not depend on fold order.
  txt::SparseVector centroid_sum;
  std::vector<DocId> members;      // Sorted ascending.
  DocId representative = 0;

  size_t size() const { return members.size(); }
  /// centroid_sum / |members| is the centroid; cosine is scale-invariant so
  /// similarity checks use centroid_sum directly.
  double SimilarityTo(const txt::SparseVector& vec) const {
    return centroid_sum.Cosine(vec);
  }
};

class ClusterSet {
 public:
  /// Documents join the most similar existing group when cosine similarity
  /// to its centroid is >= `threshold`, otherwise they seed a new group.
  /// With a null `store`, member vectors are retained internally
  /// (standalone mode); with a store, vectors are fetched on demand and the
  /// set stays lightweight.
  explicit ClusterSet(double threshold = 0.35, const DocVectorStore* store = nullptr)
      : threshold_(threshold), store_(store) {}

  /// Adds a document; returns the index of the group it joined.
  Result<size_t> Add(DocId doc, const txt::SparseVector& vec);

  /// Removes the effect of every document in `dropped` (ascending;
  /// non-members are ignored) — the projection trim. One pass per group:
  /// members and centroid sums shrink, empty groups vanish, and each group
  /// that lost a member re-elects once (Figure 2: A5 replaces the dropped
  /// A2). Internal (set unchanged) if a dropped vector is unknown.
  Status Restrict(std::span<const DocId> dropped);

  /// True if `doc` is a member of any group.
  bool Contains(DocId doc) const;
  /// True if any of `docs` (ascending) is a member.
  bool ContainsAny(std::span<const DocId> docs) const;

  /// Overlap-aware merge (join semantics): groups of `other` sharing at
  /// least one member with a group here are combined without double
  /// counting; disjoint groups are appended. Matches folding `other`'s
  /// groups in one at a time: a combined group takes the place of the
  /// first group it absorbs.
  Status Merge(const ClusterSet& other);

  const std::vector<ClusterGroup>& groups() const { return groups_; }
  size_t NumGroups() const { return groups_.size(); }
  size_t NumDocuments() const { return docs_.size(); }
  double threshold() const { return threshold_; }

  /// Members of group `index`.
  Result<std::vector<DocId>> GroupMembers(size_t index) const;

  /// Deep equality of membership (groups compared as sorted member lists) —
  /// used by the plan-equivalence tests.
  bool SameGrouping(const ClusterSet& other) const;

 private:
  /// A member document and the index of the group holding it.
  struct DocSlot {
    DocId doc;
    size_t group;
  };
  struct SlotDoc {
    DocId operator()(const DocSlot& slot) const { return slot.doc; }
  };

  /// Slot of `doc` in docs_, or docs_.end().
  std::vector<DocSlot>::const_iterator FindSlot(DocId doc) const;
  /// Re-elects the representative of each group in `groups`, resolving all
  /// their member vectors in one lookup.
  void ElectRepresentatives(std::span<ClusterGroup* const> groups) const;
  /// Erases emptied groups and renumbers docs_ to match.
  void DropEmptyGroups();
  /// Vectors of `docs` from the store or the owned map, in one lookup.
  void VectorsOf(std::span<const DocId> docs,
                 std::vector<const txt::SparseVector*>* out) const;

  double threshold_;
  const DocVectorStore* store_;

  std::vector<ClusterGroup> groups_;
  // Every member with its group, sorted by document: membership tests and
  // a document's group are one binary search, with no scan of the groups.
  std::vector<DocSlot> docs_;
  // Standalone mode only (store_ == nullptr): retained member vectors.
  std::map<DocId, txt::SparseVector> owned_vectors_;
};

}  // namespace insightnotes::mining

#endif  // INSIGHTNOTES_MINING_CLUSTERING_H_
