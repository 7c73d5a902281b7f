#include "txt/analyzer.h"

#include <cctype>

#include "txt/stemmer.h"
#include "txt/stopwords.h"

namespace insightnotes::txt {

namespace {

// Tokenizer's default TokenizerOptions::min_token_length.
constexpr size_t kMinTokenLength = 2;

}  // namespace

TermId Analyzer::Resolve(std::string_view word) {
  auto it = memo_.find(word);
  if (it != memo_.end()) return it->second;
  std::string lower(word);
  for (char& c : lower) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  const TermId id = IsStopword(lower) ? kInvalidTermId : terms_.GetOrAdd(PorterStem(lower));
  memo_.emplace(word, id);
  return id;
}

Analysis Analyzer::Analyze(std::string_view text) {
  Analysis out;
  size_t begin = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i < text.size() && std::isalnum(static_cast<unsigned char>(text[i]))) continue;
    if (i - begin >= kMinTokenLength) {
      const TermId id = Resolve(text.substr(begin, i - begin));
      if (id != kInvalidTermId) {
        out.terms.push_back(id);
        out.starts.push_back(begin);
      }
    }
    begin = i + 1;
  }
  return out;
}

}  // namespace insightnotes::txt
