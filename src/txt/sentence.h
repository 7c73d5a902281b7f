// Sentence segmentation for the extractive snippet summarizer.

#ifndef INSIGHTNOTES_TXT_SENTENCE_H_
#define INSIGHTNOTES_TXT_SENTENCE_H_

#include <string_view>
#include <vector>

namespace insightnotes::txt {

/// Splits `text` into sentences on '.', '!', '?' and newlines, honoring a
/// small abbreviation list ("e.g.", "i.e.", "Dr.", ...). Whitespace is
/// stripped and empty sentences dropped. Each sentence is a view of `text`.
std::vector<std::string_view> SplitSentences(std::string_view text);

}  // namespace insightnotes::txt

#endif  // INSIGHTNOTES_TXT_SENTENCE_H_
