// Multinomial Naive Bayes text classifier (Manning, Raghavan & Schütze,
// IIR ch. 13 — the paper's reference [12]). Backs Classifier-type summary
// instances: the domain admin defines the class labels and supplies
// training examples; classification of new annotations is incremental and
// per-document.

#ifndef INSIGHTNOTES_MINING_NAIVE_BAYES_H_
#define INSIGHTNOTES_MINING_NAIVE_BAYES_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "txt/analyzer.h"

namespace insightnotes::mining {

/// Trainable multinomial NB with Laplace (add-one) smoothing over the term
/// ids of a txt::Analyzer. Ties break deterministically toward the lower
/// label index.
///
/// Training keeps counts; Compile() turns them into a dense table, analyzer
/// term id -> one log-likelihood per label, plus the log priors. A term the
/// model never saw in training has no row: it carries no class evidence and
/// is skipped (IIR ch. 13 classifies over vocabulary terms only), and the
/// smoothing denominators count the model's own training vocabulary, not
/// the analyzer's. Classifying sums table rows, per label in token order,
/// which is the order the textbook formula adds its logarithms in.
class NaiveBayesClassifier {
 public:
  /// `analyzer` turns training and classified text into term ids; without
  /// one the classifier owns its own.
  explicit NaiveBayesClassifier(std::vector<std::string> labels,
                                std::shared_ptr<txt::Analyzer> analyzer = nullptr);

  /// Adds one training document for `label`; the tables are recompiled
  /// before the next classification (Compile).
  Status Train(size_t label, std::string_view text);

  /// Most probable label index for `text`, analysed by analyzer(). Compiles
  /// first if training changed the model. Usable with zero training (all
  /// priors equal -> label 0); callers normally train first.
  size_t Classify(std::string_view text);

  /// Per-label log posterior (unnormalized) of `text` — for tests/benches.
  std::vector<double> Scores(std::string_view text);

  /// Rebuilds the tables if Train ran since the last compile.
  void Compile();
  bool compiled() const { return compiled_; }

  /// Classify and Scores over analyzer term ids in text order. The model
  /// must be compiled; these read only the tables, so concurrent callers
  /// are safe while nobody trains.
  size_t Classify(std::span<const txt::TermId> terms) const;
  std::vector<double> Scores(std::span<const txt::TermId> terms) const;

  /// Moves the model onto `analyzer`: each trained term is interned there
  /// (in ascending id order of the current analyzer) and its counts follow.
  void Rebind(std::shared_ptr<txt::Analyzer> analyzer);

  txt::Analyzer* analyzer() const { return analyzer_.get(); }
  const std::vector<std::string>& labels() const { return labels_; }
  size_t num_labels() const { return labels_.size(); }
  uint64_t num_training_docs() const { return num_docs_; }
  /// Distinct terms seen in training.
  size_t vocabulary_size() const { return vocabulary_size_; }

 private:
  static constexpr uint32_t kNoRow = static_cast<uint32_t>(-1);

  std::vector<std::string> labels_;
  std::shared_ptr<txt::Analyzer> analyzer_;

  // Training state. counts_[term * L + label] = occurrences of `term` in
  // that label's training docs (L = number of labels).
  std::vector<uint32_t> counts_;
  size_t vocabulary_size_ = 0;
  std::vector<uint64_t> total_terms_;  // Per label.
  std::vector<uint64_t> doc_counts_;   // Per label.
  uint64_t num_docs_ = 0;

  // Compiled tables, current while compiled_.
  bool compiled_ = false;
  std::vector<double> log_prior_;  // Per label.
  // row_of_[term]: the term's row in log_likelihood_, or kNoRow.
  std::vector<uint32_t> row_of_;
  std::vector<double> log_likelihood_;  // [row * L + label].
};

}  // namespace insightnotes::mining

#endif  // INSIGHTNOTES_MINING_NAIVE_BAYES_H_
