// Extractive snippet summarization for large document annotations (survey:
// Nenkova & McKeown, the paper's reference [24]). Sentences are scored by
// the frequency of their content words within the document, normalized by
// sentence length; the top sentences are reported in original order.

#ifndef INSIGHTNOTES_MINING_SNIPPETS_H_
#define INSIGHTNOTES_MINING_SNIPPETS_H_

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "txt/analyzer.h"

namespace insightnotes::mining {

struct SnippetOptions {
  size_t max_sentences = 2;   // Sentences per snippet.
  size_t max_chars = 200;     // Hard display cap (ellipsized).
};

class SnippetExtractor {
 public:
  SnippetExtractor() = default;
  explicit SnippetExtractor(SnippetOptions options) : options_(options) {}

  /// Produces a short extractive snippet of `document`, whose analysis is
  /// `body` (txt::Analyzer::Analyze(document)). Deterministic: equal-scoring
  /// sentences keep document order. Empty documents yield an empty snippet.
  std::string Summarize(std::string_view document, const txt::Analysis& body) const;

  /// Per-sentence scores (exposed for tests): frequency-weighted coverage
  /// of the document's dominant terms, length-normalized. `terms` are the
  /// document's term ids in text order; sentence k holds
  /// terms[sentence_ends[k - 1], sentence_ends[k]) (from 0 for k = 0), and
  /// every term belongs to a sentence.
  static std::vector<double> ScoreSentences(std::span<const txt::TermId> terms,
                                            std::span<const size_t> sentence_ends);

  const SnippetOptions& options() const { return options_; }

 private:
  SnippetOptions options_;
};

}  // namespace insightnotes::mining

#endif  // INSIGHTNOTES_MINING_SNIPPETS_H_
