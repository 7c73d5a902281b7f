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
//
// The election kernel scatters the group's exact integer centroid sum once
// into a per-thread open-addressing table keyed by term id (sized to the
// centroid, reused from election to election, so no allocation per
// election and no memory that grows with a term id's magnitude). Each
// member's dot then costs one lookup per member term, and the products
// are added in ascending term order: the same operations as the merge-walk
// SparseView::Dot, so the same bits. An election over members m of a
// centroid C costs O(|C| + sum |m|) rather than a merge walk of
// O(|C| + |m|) per member.
//
// A set is flat: group headers over one member array and one centroid-entry
// array, plus the sorted document-to-group slots. Copying a set (the
// copy-on-write clone of a summary object) is four array copies; member
// vectors live once, in a DocVectorStore.

#ifndef INSIGHTNOTES_MINING_CLUSTERING_H_
#define INSIGHTNOTES_MINING_CLUSTERING_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ranges>
#include <span>
#include <vector>

#include "common/result.h"
#include "txt/tfidf.h"

namespace insightnotes::mining {

using DocId = uint64_t;

/// A committed document vector and its norm, computed once on commit.
struct DocVector {
  txt::SparseVector vector;
  double norm = 0.0;
};

/// The term vectors of a cluster instance's documents: a table indexed by
/// document id, in fixed-size pages allocated the first time an id in them
/// is committed (ids are dense, so pages fill up; a stray far id costs one
/// page). Every ClusterSet resolves member vectors here, so sets carry ids
/// and centroid sums only.
///
/// Contract:
///   * a document's vector is committed once and never changes;
///   * pointers handed out by GetVectors stay valid until Clear(): pages
///     never move, and growing the page directory moves only page pointers;
///   * Commit, Contains and GetVectors are thread-safe (one mutex); a
///     returned pointer is read without it.
class DocVectorStore {
 public:
  DocVectorStore() = default;
  DocVectorStore(const DocVectorStore&) = delete;
  DocVectorStore& operator=(const DocVectorStore&) = delete;

  /// Stores `vector` and its norm for `doc`. Returns false, keeping the
  /// first, if `doc` already has one (readers may hold pointers into it).
  bool Commit(DocId doc, txt::SparseVector vector);

  bool Contains(DocId doc) const;
  /// True if no vector was committed since construction or Clear().
  bool empty() const;

  /// Resolves every document of one cluster operation under one lock:
  /// `out` is resized to `docs.size()` and out[i] is the vector of
  /// docs[i], or nullptr if none was committed.
  void GetVectors(std::span<const DocId> docs, std::vector<const DocVector*>* out) const;

  /// Drops every vector, invalidating every pointer handed out.
  void Clear();

 private:
  static constexpr unsigned kPageBits = 10;
  static constexpr DocId kPageSize = DocId{1} << kPageBits;
  struct Slot {
    DocVector stored;
    bool committed = false;
  };
  struct Page {
    DocId key;  // doc >> kPageBits of every slot in it.
    std::unique_ptr<std::array<Slot, kPageSize>> slots;
  };

  /// Slot of `doc`, or nullptr if its page was never allocated. Caller
  /// holds mutex_.
  Slot* FindSlot(DocId doc) const;

  mutable std::mutex mutex_;
  std::vector<Page> pages_;  // Sorted by key.
};

/// Read-only view of one group, valid until its set changes.
struct ClusterGroup {
  DocId representative = 0;
  std::span<const DocId> members;  // Ascending.
  // Sum of member vectors. Member vectors are term counts, so the sum is
  // exact integer arithmetic and does not depend on fold order. Cosine is
  // scale-invariant, so similarity checks use it for the centroid.
  txt::SparseView centroid_sum;
  // centroid_sum's norm, computed once whenever the sum changes.
  double norm = 0.0;

  size_t size() const { return members.size(); }
};

class ClusterSet {
 public:
  /// Documents join the most similar existing group when cosine similarity
  /// to its centroid is >= `threshold`, otherwise they seed a new group.
  /// Member vectors are read from `store`, which must outlive the set.
  explicit ClusterSet(const DocVectorStore* store, double threshold = 0.35)
      : store_(store), threshold_(threshold) {}

  /// Adds a document whose vector is in the store; returns the index of
  /// the group it joined. NotFound if the store has no vector for it.
  Result<size_t> Add(DocId doc);

  /// Removes the effect of every document in `dropped` (ascending;
  /// non-members are ignored) — the projection trim. See Restricted.
  Status Restrict(std::span<const DocId> dropped);

  /// This set without the effect of `dropped`, built in one pass: groups
  /// that lose no member are copied as ranges; the others keep their
  /// surviving members, subtract the dropped vectors from their sums and
  /// re-elect once (Figure 2: A5 replaces the dropped A2); emptied groups
  /// vanish. Internal if a vector it needs is not in the store.
  Result<ClusterSet> Restricted(std::span<const DocId> dropped) const;

  /// True if `doc` is a member of any group.
  bool Contains(DocId doc) const;
  /// True if any of `docs` (ascending) is a member.
  bool ContainsAny(std::span<const DocId> docs) const;

  /// Overlap-aware merge (join semantics): groups of `other` sharing at
  /// least one member with a group here are combined without double
  /// counting; disjoint groups are appended as ranges. Matches folding
  /// `other`'s groups in one at a time: a combined group takes the place of
  /// the first group it absorbs. Both sets must read the same store.
  Status Merge(const ClusterSet& other);

  /// Group `index` (< NumGroups()).
  ClusterGroup group(size_t index) const;
  /// Every group, in order, as views.
  auto groups() const {
    return std::views::iota(size_t{0}, groups_.size()) |
           std::views::transform([this](size_t g) { return group(g); });
  }
  size_t NumGroups() const { return groups_.size(); }
  size_t NumDocuments() const { return docs_.size(); }
  /// Approximate bytes of the set (its arrays; vectors live in the store).
  size_t ApproxBytes() const {
    return sizeof(*this) + groups_.capacity() * sizeof(Group) +
           members_.capacity() * sizeof(DocId) +
           centroids_.capacity() * sizeof(txt::TermWeight) + docs_.capacity() * sizeof(DocSlot);
  }
  double threshold() const { return threshold_; }

  /// Members of group `index`.
  Result<std::vector<DocId>> GroupMembers(size_t index) const;

  /// Deep equality of membership (groups compared as sorted member lists) —
  /// used by the plan-equivalence tests.
  bool SameGrouping(const ClusterSet& other) const;

 private:
  /// A group: its representative, the norm of its centroid sum, and its
  /// runs in members_ and centroids_.
  struct Group {
    DocId representative;
    double norm;
    uint32_t member_begin;
    uint32_t member_count;
    uint32_t centroid_begin;
    uint32_t centroid_count;
  };
  /// A member document and the index of the group holding it.
  struct DocSlot {
    DocId doc;
    size_t group;
  };
  struct SlotDoc {
    DocId operator()(const DocSlot& slot) const { return slot.doc; }
  };

  std::span<const DocId> MembersOf(const Group& g) const {
    return {members_.data() + g.member_begin, g.member_count};
  }
  txt::SparseView CentroidOf(const Group& g) const {
    return txt::SparseView({centroids_.data() + g.centroid_begin, g.centroid_count});
  }
  /// Appends groups [first, last) of `from` as they are: a group's sum and
  /// representative are functions of its member set.
  void AppendGroups(const ClusterSet& from, size_t first, size_t last);
  /// Appends a group over the members and sum already at the tails of
  /// members_ and centroids_ (from `member_begin` and `centroid_begin`),
  /// electing its representative from `vectors` (aligned with the members).
  void SealGroup(size_t member_begin, size_t centroid_begin,
                 std::span<const DocVector* const> vectors);

  const DocVectorStore* store_;
  double threshold_;

  std::vector<Group> groups_;
  // Each group's members, ascending, group after group.
  std::vector<DocId> members_;
  // Each group's centroid sum, by term, group after group.
  std::vector<txt::TermWeight> centroids_;
  // Every member with its group, sorted by document: membership tests and
  // a document's group are one binary search, with no scan of the groups.
  std::vector<DocSlot> docs_;
};

}  // namespace insightnotes::mining

#endif  // INSIGHTNOTES_MINING_CLUSTERING_H_
