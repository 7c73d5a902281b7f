#include "mining/snippets.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "txt/sentence.h"
#include "txt/tfidf.h"

namespace insightnotes::mining {

std::vector<double> SnippetExtractor::ScoreSentences(std::span<const txt::TermId> terms,
                                                     std::span<const size_t> sentence_ends) {
  // Document-level term frequencies.
  const txt::SparseVector tf = txt::SparseVector::FromTermIds(terms);
  std::vector<double> scores;
  scores.reserve(sentence_ends.size());
  size_t begin = 0;
  for (size_t end : sentence_ends) {
    if (end == begin) {
      scores.push_back(0.0);
      continue;
    }
    double sum = 0.0;
    for (size_t k = begin; k < end; ++k) sum += tf.Get(terms[k]);
    // Length normalization dampens the bias toward long sentences without
    // fully removing it (sqrt, as in centroid-based summarizers).
    scores.push_back(sum / std::sqrt(static_cast<double>(end - begin)));
    begin = end;
  }
  return scores;
}

std::string SnippetExtractor::Summarize(std::string_view document,
                                        const txt::Analysis& body) const {
  const std::vector<std::string_view> sentences = txt::SplitSentences(document);
  if (sentences.empty()) return "";
  // Sentences are contiguous views of `document` and a token never spans a
  // sentence boundary, so each sentence owns the tokens starting before its
  // end.
  std::vector<size_t> ends;
  ends.reserve(sentences.size());
  size_t token = 0;
  for (std::string_view sentence : sentences) {
    const size_t end = static_cast<size_t>(sentence.data() - document.data()) + sentence.size();
    while (token < body.starts.size() && body.starts[token] < end) ++token;
    ends.push_back(token);
  }
  std::vector<double> scores = ScoreSentences(body.terms, ends);

  // Select the top-k sentence indexes, then restore document order.
  std::vector<size_t> order(sentences.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  size_t k = std::min(options_.max_sentences, sentences.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<ptrdiff_t>(k),
                    order.end(), [&](size_t a, size_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;  // Stable: earlier sentence wins ties.
                    });
  std::vector<size_t> chosen(order.begin(), order.begin() + static_cast<ptrdiff_t>(k));
  std::sort(chosen.begin(), chosen.end());

  std::string snippet;
  for (size_t idx : chosen) {
    if (!snippet.empty()) snippet += " ";
    snippet += sentences[idx];
  }
  return Ellipsize(snippet, options_.max_chars);
}

}  // namespace insightnotes::mining
