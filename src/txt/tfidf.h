// Sparse term vectors and cosine similarity: the geometric substrate of the
// clustering kernel and the snippet sentence scorer.

#ifndef INSIGHTNOTES_TXT_TFIDF_H_
#define INSIGHTNOTES_TXT_TFIDF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "txt/vocabulary.h"

namespace insightnotes::txt {

/// Sparse vector over TermId dimensions, kept sorted by term id. Supports
/// the add/subtract/scale operations the incremental cluster centroids need.
class SparseVector {
 public:
  SparseVector() = default;

  /// Builds a term-frequency vector from tokens (unnormalized counts).
  static SparseVector FromTokens(const std::vector<std::string>& tokens,
                                 Vocabulary* vocab);

  /// Builds a term-frequency vector using only existing vocabulary entries
  /// (unknown terms are skipped). Leaves `vocab` unmodified.
  static SparseVector FromTokensConst(const std::vector<std::string>& tokens,
                                      const Vocabulary& vocab);

  void Set(TermId id, double value);
  double Get(TermId id) const;

  /// this += other * scale.
  void AddScaled(const SparseVector& other, double scale);

  /// this -= part, in place: one forward walk that allocates nothing when
  /// every term of `part` is already here (a member vector subtracted from
  /// a group sum that holds it). A term absent here is inserted negated.
  void Subtract(const SparseVector& part);

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

  struct Entry {
    TermId term;
    double value;
  };
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  // Invariant: sorted by term, no zero values (within epsilon after ops).
  std::vector<Entry> entries_;
};

}  // namespace insightnotes::txt

#endif  // INSIGHTNOTES_TXT_TFIDF_H_
