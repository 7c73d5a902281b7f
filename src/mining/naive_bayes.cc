#include "mining/naive_bayes.h"

#include <algorithm>
#include <cmath>

namespace insightnotes::mining {

namespace {

/// True if no label's training docs hold the term of `counts` (L labels).
bool Untrained(const uint32_t* counts, size_t l) {
  return std::all_of(counts, counts + l, [](uint32_t c) { return c == 0; });
}

}  // namespace

NaiveBayesClassifier::NaiveBayesClassifier(std::vector<std::string> labels,
                                           std::shared_ptr<txt::Analyzer> analyzer)
    : labels_(std::move(labels)),
      analyzer_(analyzer != nullptr ? std::move(analyzer) : std::make_shared<txt::Analyzer>()),
      total_terms_(labels_.size(), 0),
      doc_counts_(labels_.size(), 0) {}

Status NaiveBayesClassifier::Train(size_t label, std::string_view text) {
  if (label >= labels_.size()) {
    return Status::InvalidArgument("label index " + std::to_string(label) +
                                   " out of range (have " +
                                   std::to_string(labels_.size()) + " labels)");
  }
  const size_t l = labels_.size();
  for (txt::TermId term : analyzer_->Analyze(text).terms) {
    const size_t base = static_cast<size_t>(term) * l;
    if (counts_.size() < base + l) counts_.resize(base + l, 0);
    uint32_t* row = counts_.data() + base;
    if (Untrained(row, l)) ++vocabulary_size_;
    ++row[label];
    ++total_terms_[label];
  }
  ++doc_counts_[label];
  ++num_docs_;
  compiled_ = false;
  return Status::OK();
}

void NaiveBayesClassifier::Compile() {
  if (compiled_) return;
  const size_t l = labels_.size();
  log_prior_.assign(l, 0.0);
  std::vector<double> denom(l);
  const double vocab_size = static_cast<double>(vocabulary_size_);
  for (size_t c = 0; c < l; ++c) {
    // Smoothed log prior.
    log_prior_[c] = std::log((static_cast<double>(doc_counts_[c]) + 1.0) /
                             (static_cast<double>(num_docs_) + static_cast<double>(l)));
    denom[c] = static_cast<double>(total_terms_[c]) + vocab_size + 1.0;
  }
  row_of_.assign(l == 0 ? 0 : counts_.size() / l, kNoRow);
  log_likelihood_.clear();
  log_likelihood_.reserve(vocabulary_size_ * l);
  uint32_t rows = 0;
  for (size_t term = 0; term < row_of_.size(); ++term) {
    const uint32_t* counts = counts_.data() + term * l;
    if (Untrained(counts, l)) continue;
    row_of_[term] = rows++;
    // In-vocabulary terms unseen in class c get Laplace mass.
    for (size_t c = 0; c < l; ++c) {
      log_likelihood_.push_back(std::log((static_cast<double>(counts[c]) + 1.0) / denom[c]));
    }
  }
  compiled_ = true;
}

std::vector<double> NaiveBayesClassifier::Scores(std::span<const txt::TermId> terms) const {
  const size_t l = labels_.size();
  std::vector<double> scores = log_prior_;
  for (txt::TermId term : terms) {
    if (term >= row_of_.size() || row_of_[term] == kNoRow) continue;
    const double* row = log_likelihood_.data() + static_cast<size_t>(row_of_[term]) * l;
    for (size_t c = 0; c < l; ++c) scores[c] += row[c];
  }
  return scores;
}

size_t NaiveBayesClassifier::Classify(std::span<const txt::TermId> terms) const {
  if (labels_.empty()) return 0;
  std::vector<double> scores = Scores(terms);
  size_t best = 0;
  for (size_t c = 1; c < scores.size(); ++c) {
    if (scores[c] > scores[best]) best = c;
  }
  return best;
}

std::vector<double> NaiveBayesClassifier::Scores(std::string_view text) {
  Compile();
  return Scores(analyzer_->Analyze(text).terms);
}

size_t NaiveBayesClassifier::Classify(std::string_view text) {
  Compile();
  return Classify(analyzer_->Analyze(text).terms);
}

void NaiveBayesClassifier::Rebind(std::shared_ptr<txt::Analyzer> analyzer) {
  if (analyzer == analyzer_) return;
  const size_t l = labels_.size();
  std::vector<uint32_t> counts;
  for (size_t term = 0; l > 0 && term < counts_.size() / l; ++term) {
    const uint32_t* row = counts_.data() + term * l;
    if (Untrained(row, l)) continue;
    const txt::TermId moved = analyzer->Intern(analyzer_->TermOf(static_cast<txt::TermId>(term)));
    const size_t base = static_cast<size_t>(moved) * l;
    if (counts.size() < base + l) counts.resize(base + l, 0);
    std::copy(row, row + l, counts.data() + base);
  }
  counts_ = std::move(counts);
  analyzer_ = std::move(analyzer);
  compiled_ = false;
}

}  // namespace insightnotes::mining
