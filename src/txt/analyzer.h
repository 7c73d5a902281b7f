// The one text analysis of the engine: every summarizer reads an
// annotation body as the term ids this analyzer assigns, so a body is
// tokenized, stop-filtered and stemmed once however many summary instances
// maintain it.

#ifndef INSIGHTNOTES_TXT_ANALYZER_H_
#define INSIGHTNOTES_TXT_ANALYZER_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "txt/vocabulary.h"

namespace insightnotes::txt {

/// The terms of one text, in text order.
struct Analysis {
  std::vector<TermId> terms;
  /// starts[i] is the byte offset in the text where the token of terms[i]
  /// begins (the snippet scorer assigns tokens to sentences by it).
  std::vector<size_t> starts;
};

/// Tokenizer's default configuration (lower-case, split on
/// non-alphanumerics, drop stopwords and tokens shorter than two bytes,
/// Porter-stem) over one term dictionary. A surface-form memo maps each
/// distinct word, exactly as it appears in the text, to its term id (or to
/// "dropped" for a stopword), so lower-casing, the stopword test and the
/// stemmer run once per distinct word; probes look the word up in place.
///
/// Ids are dense and assigned in first-seen order, so analysing the same
/// texts in the same order gives the same ids. Analyze and Intern grow the
/// dictionary and are not thread-safe: the engine calls them only from its
/// single writer, and readers use the ids they returned.
class Analyzer {
 public:
  Analyzer() = default;
  Analyzer(const Analyzer&) = delete;
  Analyzer& operator=(const Analyzer&) = delete;

  /// The analysis of `text`. Equal to Tokenizer{}.Tokenize(text) with
  /// every token interned.
  Analysis Analyze(std::string_view text);

  /// The id of the stemmed term `term`, added if new.
  TermId Intern(std::string_view term) { return terms_.GetOrAdd(term); }

  /// The stemmed term of `id` (< size()).
  const std::string& TermOf(TermId id) const { return terms_.TermOf(id); }

  /// Number of distinct terms.
  size_t size() const { return terms_.size(); }
  /// Number of distinct surface forms memoized.
  size_t memo_size() const { return memo_.size(); }

 private:
  /// Term id of the word `word` (alphanumeric, at least two bytes): a memo
  /// hit, or one normalization whose result is memoized.
  TermId Resolve(std::string_view word);

  Vocabulary terms_;
  std::unordered_map<std::string, TermId, TermHash, std::equal_to<>> memo_;
};

}  // namespace insightnotes::txt

#endif  // INSIGHTNOTES_TXT_ANALYZER_H_
