#include "mining/snippets.h"

#include <gtest/gtest.h>

#include "txt/analyzer.h"

namespace insightnotes::mining {
namespace {

/// Summarizes `document` with a fresh analyzer, as a standalone instance
/// would.
std::string Summarize(const SnippetExtractor& ex, std::string_view document) {
  txt::Analyzer analyzer;
  return ex.Summarize(document, analyzer.Analyze(document));
}

/// Scores `sentences` as the sentences of one document.
std::vector<double> ScoreSentences(const std::vector<std::string>& sentences) {
  txt::Analyzer analyzer;
  std::vector<txt::TermId> terms;
  std::vector<size_t> ends;
  for (const std::string& sentence : sentences) {
    const txt::Analysis analysis = analyzer.Analyze(sentence);
    terms.insert(terms.end(), analysis.terms.begin(), analysis.terms.end());
    ends.push_back(terms.size());
  }
  return SnippetExtractor::ScoreSentences(terms, ends);
}

TEST(SnippetTest, EmptyDocument) {
  SnippetExtractor ex;
  EXPECT_EQ(Summarize(ex, ""), "");
  EXPECT_EQ(Summarize(ex, "   \n "), "");
}

TEST(SnippetTest, ShortDocumentReturnedWhole) {
  SnippetExtractor ex;
  EXPECT_EQ(Summarize(ex, "The swan goose is large."), "The swan goose is large.");
}

TEST(SnippetTest, SelectsDominantTopicSentences) {
  SnippetOptions opts;
  opts.max_sentences = 1;
  opts.max_chars = 500;
  SnippetExtractor ex(opts);
  std::string doc =
      "The swan goose eats stonewort. "
      "Stonewort grows in lakes where the swan goose feeds on stonewort daily. "
      "Unrelated trivia about telescopes.";
  std::string snippet = Summarize(ex, doc);
  // The middle sentence covers the dominant terms (stonewort/goose) most.
  EXPECT_NE(snippet.find("stonewort"), std::string::npos);
  EXPECT_EQ(snippet.find("telescopes"), std::string::npos);
}

TEST(SnippetTest, PreservesDocumentOrder) {
  SnippetOptions opts;
  opts.max_sentences = 2;
  opts.max_chars = 500;
  SnippetExtractor ex(opts);
  std::string doc =
      "Geese migrate south in winter. "
      "Completely different filler text here. "
      "Migration of geese follows the south winter routes.";
  std::string snippet = Summarize(ex, doc);
  size_t first = snippet.find("Geese migrate");
  size_t second = snippet.find("Migration of geese");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
}

TEST(SnippetTest, RespectsMaxChars) {
  SnippetOptions opts;
  opts.max_sentences = 5;
  opts.max_chars = 50;
  SnippetExtractor ex(opts);
  std::string doc(
      "A very long sentence about the swan goose and its behavior in the wild. "
      "Another long sentence about the swan goose follows here.");
  std::string snippet = Summarize(ex, doc);
  EXPECT_LE(snippet.size(), 50u);
  EXPECT_EQ(snippet.substr(snippet.size() - 3), "...");
}

TEST(SnippetTest, DeterministicAcrossCalls) {
  SnippetExtractor ex;
  std::string doc =
      "Sentence one about geese. Sentence two about swans. "
      "Sentence three about geese and swans together.";
  EXPECT_EQ(Summarize(ex, doc), Summarize(ex, doc));
}

TEST(SnippetTest, ScoresMatchSentenceCount) {
  std::vector<std::string> sentences = {"geese eat plants", "geese fly", ""};
  auto scores = ScoreSentences(sentences);
  ASSERT_EQ(scores.size(), 3u);
  EXPECT_GT(scores[0], 0.0);
  EXPECT_DOUBLE_EQ(scores[2], 0.0);
}

TEST(SnippetTest, RepeatedTermsRaiseScore) {
  // "goose" dominates the document; the sentence with two mentions of the
  // dominant term outranks the one-off sentence of equal length.
  std::vector<std::string> sentences = {"goose watched goose", "heron watched once"};
  auto scores = ScoreSentences(sentences);
  EXPECT_GT(scores[0], scores[1]);
}

}  // namespace
}  // namespace insightnotes::mining
