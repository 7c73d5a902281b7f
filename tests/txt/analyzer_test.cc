#include "txt/analyzer.h"

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "txt/stemmer.h"
#include "txt/tokenizer.h"
#include "workload/annotation_gen.h"
#include "workload/bird_data.h"

namespace insightnotes::txt {
namespace {

/// Comments and documents as the workload generates them.
std::vector<std::string> Corpus() {
  workload::AnnotationGenerator gen(19);
  const auto& species = workload::CuratedSpecies();
  std::vector<std::string> texts;
  for (size_t i = 0; i < 600; ++i) {
    const auto& sp = species[i % species.size()];
    texts.push_back(i % 10 == 0 ? gen.GenerateDocument(sp, 6).annotation.body
                                : gen.GenerateComment(sp).annotation.body);
  }
  return texts;
}

/// Inputs no generator produces: control bytes, NUL, bytes >= 0x80 inside
/// and between words, a 10 kB token, case and digit mixes, one-byte and
/// stopword tokens, punctuation only and nothing at all.
std::vector<std::string> HostileTexts() {
  std::vector<std::string> texts = {
      "",
      "?!... --- ,,,",
      "a b c d e f g",
      "THE Goose WAS eating Stoneworts AND the GEESE were",
      "weight 3200g approx 3.2 kg 1e10 0x7f 007",
      "\t\n\r\v\f  \n",
      "caf\xc3\xa9 na\xc3\xafve r\xc3\xa9sum\xc3\xa9 \xe2\x80\x94 goose\xe2\x80\x99s",
      "\x80\x81\xfe\xff mixed\xff" "bytes \xc0\xafslash",
      "it is what it is, and they were there",
      "Observing observed observes observation",
  };
  texts.push_back(std::string("nul\0inside\0words", 16));
  texts.push_back(std::string(10 * 1024, 'q'));
  texts.push_back("lead " + std::string(10 * 1024, 'Z') + "trailing tail");
  std::string every_byte;
  for (int b = 0; b < 256; ++b) every_byte.push_back(static_cast<char>(b));
  texts.push_back(every_byte + every_byte);
  return texts;
}

/// What the analyzer must reproduce: Tokenizer::Tokenize, each token
/// interned in order into one vocabulary.
std::vector<TermId> Reference(const Tokenizer& tokenizer, Vocabulary* vocab,
                              std::string_view text) {
  std::vector<TermId> ids;
  for (const std::string& token : tokenizer.Tokenize(text)) ids.push_back(vocab->GetOrAdd(token));
  return ids;
}

void ExpectMatchesTokenizer(const std::vector<std::string>& texts) {
  Analyzer analyzer;
  Tokenizer tokenizer;
  Vocabulary vocab;
  for (const std::string& text : texts) {
    const Analysis analysis = analyzer.Analyze(text);
    EXPECT_EQ(analysis.terms, Reference(tokenizer, &vocab, text)) << text.substr(0, 80);
    ASSERT_EQ(analysis.starts.size(), analysis.terms.size());
    for (size_t i = 0; i < analysis.starts.size(); ++i) {
      const size_t start = analysis.starts[i];
      ASSERT_LT(start, text.size());
      if (i > 0) {
        EXPECT_LT(analysis.starts[i - 1], start);
      }
      // A token starts a word.
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(text[start])));
      if (start > 0) {
        EXPECT_FALSE(std::isalnum(static_cast<unsigned char>(text[start - 1])));
      }
    }
  }
  EXPECT_EQ(analyzer.size(), vocab.size());
  for (TermId id = 0; id < vocab.size(); ++id) EXPECT_EQ(analyzer.TermOf(id), vocab.TermOf(id));
}

TEST(AnalyzerTest, MatchesTokenizerOnGeneratedCorpus) { ExpectMatchesTokenizer(Corpus()); }

TEST(AnalyzerTest, MatchesTokenizerOnHostileBytes) { ExpectMatchesTokenizer(HostileTexts()); }

TEST(AnalyzerTest, IdsDoNotDependOnMemoState) {
  std::vector<std::string> texts = Corpus();
  const std::vector<std::string> hostile = HostileTexts();
  texts.insert(texts.end(), hostile.begin(), hostile.end());

  Analyzer analyzer;
  std::vector<std::vector<TermId>> cold;
  for (const std::string& text : texts) cold.push_back(analyzer.Analyze(text).terms);
  const size_t terms = analyzer.size();
  const size_t memo = analyzer.memo_size();
  EXPECT_GT(memo, 0u);
  // Warm: every word is a memo hit; nothing new is stemmed or interned.
  for (size_t i = 0; i < texts.size(); ++i) {
    EXPECT_EQ(analyzer.Analyze(texts[i]).terms, cold[i]) << i;
  }
  EXPECT_EQ(analyzer.size(), terms);
  EXPECT_EQ(analyzer.memo_size(), memo);

  // A memo warmed in reverse order assigns other ids to the same terms.
  Analyzer reversed;
  for (size_t i = texts.size(); i-- > 0;) reversed.Analyze(texts[i]);
  for (size_t i = 0; i < texts.size(); ++i) {
    const std::vector<TermId> ids = reversed.Analyze(texts[i]).terms;
    ASSERT_EQ(ids.size(), cold[i].size());
    for (size_t k = 0; k < ids.size(); ++k) {
      EXPECT_EQ(reversed.TermOf(ids[k]), analyzer.TermOf(cold[i][k]));
    }
  }
}

TEST(AnalyzerTest, CaseVariantsShareOneTerm) {
  Analyzer analyzer;
  const Analysis analysis = analyzer.Analyze("Geese GEESE geese Goose");
  ASSERT_EQ(analysis.terms.size(), 4u);
  EXPECT_EQ(analysis.terms[0], analysis.terms[1]);
  EXPECT_EQ(analysis.terms[1], analysis.terms[2]);
  EXPECT_EQ(analyzer.size(), 2u);        // "gees", "goos".
  EXPECT_EQ(analyzer.memo_size(), 4u);  // Each surface form once.
}

TEST(AnalyzerTest, InternSharesIdsWithAnalysis) {
  Analyzer analyzer;
  const TermId eat = analyzer.Intern(PorterStem("eating"));
  EXPECT_EQ(analyzer.Analyze("EATING eats").terms, (std::vector<TermId>{eat, eat}));
  EXPECT_EQ(analyzer.Intern("eat"), eat);
  EXPECT_EQ(analyzer.size(), 1u);
}

}  // namespace
}  // namespace insightnotes::txt
