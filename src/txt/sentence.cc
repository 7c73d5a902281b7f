#include "txt/sentence.h"

#include <array>
#include <cctype>

#include "common/string_util.h"

namespace insightnotes::txt {

namespace {

// Trailing words after which a '.' does not end a sentence.
constexpr std::array<std::string_view, 10> kAbbreviations = {
    "dr", "mr", "mrs", "ms", "prof", "e.g", "i.e", "etc", "vs", "fig"};

bool EndsWithAbbreviation(std::string_view text_before_dot) {
  // Extract the final word (letters and internal dots only).
  size_t end = text_before_dot.size();
  size_t start = end;
  while (start > 0) {
    char c = text_before_dot[start - 1];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '.') {
      --start;
    } else {
      break;
    }
  }
  if (start == end) return false;
  std::string word = ToLower(text_before_dot.substr(start, end - start));
  for (std::string_view abbr : kAbbreviations) {
    if (word == abbr) return true;
  }
  return false;
}

}  // namespace

std::vector<std::string_view> SplitSentences(std::string_view text) {
  std::vector<std::string_view> sentences;
  // The sentence being read is text[begin, i]: a newline ends it unread.
  size_t begin = 0;
  auto close = [&](size_t end) {
    std::string_view stripped = StripWhitespace(text.substr(begin, end - begin));
    if (!stripped.empty()) sentences.push_back(stripped);
  };
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '\n') {
      close(i);
      begin = i + 1;
      continue;
    }
    if (c == '!' || c == '?' ||
        (c == '.' && !EndsWithAbbreviation(text.substr(begin, i - begin)))) {
      // A terminator followed by end-of-text, whitespace, or a quote closes
      // the sentence; "3.14" stays together because the next char is a digit.
      bool boundary = (i + 1 >= text.size()) ||
                      std::isspace(static_cast<unsigned char>(text[i + 1])) ||
                      text[i + 1] == '"' || text[i + 1] == '\'';
      if (boundary) {
        close(i + 1);
        begin = i + 1;
      }
    }
  }
  close(text.size());
  return sentences;
}

}  // namespace insightnotes::txt
