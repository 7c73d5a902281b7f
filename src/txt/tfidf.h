// Sparse term vectors and cosine similarity: the geometric substrate of the
// clustering kernel and the snippet sentence scorer.

#ifndef INSIGHTNOTES_TXT_TFIDF_H_
#define INSIGHTNOTES_TXT_TFIDF_H_

#include <cstdint>
#include <span>
#include <vector>

#include "txt/vocabulary.h"

namespace insightnotes::txt {

/// One term of a sparse vector and its weight.
struct TermWeight {
  TermId term;
  double value;
};

/// Read-only sparse vector over a contiguous run of entries sorted by term:
/// a SparseVector's own entries, or a slice of a packed array such as a
/// cluster group's centroid sum. The similarity arithmetic lives here once.
class SparseView {
 public:
  SparseView() = default;
  explicit SparseView(std::span<const TermWeight> entries) : entries_(entries) {}

  std::span<const TermWeight> entries() const { return entries_; }

  /// Accumulates in ascending term order, so equal entries give equal bits.
  double Dot(SparseView other) const;
  double Norm() const;
  /// Cosine in [0, 1] for non-negative vectors given both norms (0 if
  /// either is 0): scoring many vectors against one computes no norm twice.
  double CosineWithNorms(SparseView other, double norm, double other_norm) const;
  /// The cosine CosineWithNorms returns for a dot product computed apart.
  static double CosineFromDot(double dot, double norm, double other_norm);

 private:
  std::span<const TermWeight> entries_;
};

/// Appends a + b to `out`, term by term in one merge walk, dropping terms
/// that sum to zero.
void AppendSum(SparseView a, SparseView b, std::vector<TermWeight>* out);

/// entries[begin, end) -= part, in place, where [begin, end) is sorted by
/// term: one forward walk that allocates nothing when every term of `part`
/// is already there (a member vector subtracted from a group sum that holds
/// it). A term absent there is inserted negated. Terms that reach zero
/// stay until DropZeros, so several subtractions compact once.
void SubtractFromTail(std::vector<TermWeight>* entries, size_t begin, SparseView part);

/// Erases the terms of entries[begin, end) that are zero.
void DropZeros(std::vector<TermWeight>* entries, size_t begin);

/// Sparse vector over TermId dimensions, kept sorted by term id: a
/// document's term counts. Cluster centroid sums are maintained over packed
/// arrays with AppendSum, SubtractFromTail and DropZeros.
class SparseVector {
 public:
  SparseVector() = default;

  /// The term-count vector of `terms` (any order; a repeated id counts
  /// once per occurrence).
  static SparseVector FromTermIds(std::span<const TermId> terms);

  void Set(TermId id, double value);
  double Get(TermId id) const;

  double Dot(const SparseVector& other) const;
  double Norm() const;

  /// Cosine similarity in [0, 1] for non-negative vectors; 0 if either is 0.
  double Cosine(const SparseVector& other) const;
  /// Cosine(other) given this vector's Norm(), for scoring many vectors
  /// against one.
  double CosineWithNorm(const SparseVector& other, double norm) const;

  /// L2-normalized copy (zero vector stays zero).
  SparseVector Normalized() const;

  size_t NumNonZero() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  using Entry = TermWeight;
  const std::vector<Entry>& entries() const { return entries_; }
  SparseView view() const { return SparseView(entries_); }

 private:
  // Invariant: sorted by term, no zero values (within epsilon after ops).
  std::vector<Entry> entries_;
};

}  // namespace insightnotes::txt

#endif  // INSIGHTNOTES_TXT_TFIDF_H_
