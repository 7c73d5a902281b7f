#include "txt/tfidf.h"

#include <gtest/gtest.h>

#include <cmath>

#include "txt/vocabulary.h"

namespace insightnotes::txt {
namespace {

TEST(VocabularyTest, InternsTerms) {
  Vocabulary v;
  TermId a = v.GetOrAdd("swan");
  TermId b = v.GetOrAdd("goose");
  TermId a2 = v.GetOrAdd("swan");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.TermOf(a), "swan");
  EXPECT_EQ(v.Lookup("goose"), b);
  EXPECT_EQ(v.Lookup("heron"), kInvalidTermId);
}

TEST(SparseVectorTest, FromTermIdsCountsTerms) {
  Vocabulary vocab;
  std::vector<TermId> terms;
  for (const char* token : {"a", "b", "a", "c", "a"}) terms.push_back(vocab.GetOrAdd(token));
  SparseVector v = SparseVector::FromTermIds(terms);
  EXPECT_EQ(v.NumNonZero(), 3u);
  EXPECT_DOUBLE_EQ(v.Get(vocab.Lookup("a")), 3.0);
  EXPECT_DOUBLE_EQ(v.Get(vocab.Lookup("b")), 1.0);
  EXPECT_DOUBLE_EQ(v.Get(vocab.Lookup("c")), 1.0);
}

TEST(SparseVectorTest, SetGetAndErase) {
  SparseVector v;
  v.Set(5, 2.0);
  v.Set(1, 1.0);
  v.Set(9, 3.0);
  EXPECT_DOUBLE_EQ(v.Get(5), 2.0);
  EXPECT_DOUBLE_EQ(v.Get(2), 0.0);
  v.Set(5, 0.0);  // Erase.
  EXPECT_DOUBLE_EQ(v.Get(5), 0.0);
  EXPECT_EQ(v.NumNonZero(), 2u);
}

TEST(SparseVectorTest, EntriesStaySorted) {
  SparseVector v;
  v.Set(9, 1.0);
  v.Set(1, 1.0);
  v.Set(5, 1.0);
  TermId prev = 0;
  for (const auto& e : v.entries()) {
    EXPECT_GE(e.term, prev);
    prev = e.term;
  }
}

TEST(SparseVectorTest, AppendSumMerges) {
  SparseVector a;
  a.Set(1, 1.0);
  a.Set(2, 2.0);
  SparseVector b;
  b.Set(2, 3.0);
  b.Set(4, 4.0);
  std::vector<TermWeight> sum;
  AppendSum(a.view(), b.view(), &sum);
  ASSERT_EQ(sum.size(), 3u);
  EXPECT_EQ(sum[0].term, 1u);
  EXPECT_DOUBLE_EQ(sum[0].value, 1.0);
  EXPECT_EQ(sum[1].term, 2u);
  EXPECT_DOUBLE_EQ(sum[1].value, 5.0);
  EXPECT_EQ(sum[2].term, 4u);
  EXPECT_DOUBLE_EQ(sum[2].value, 4.0);
}

TEST(SparseVectorTest, AppendSumDropsCancelledTerms) {
  SparseVector a;
  a.Set(3, 5.0);
  SparseVector b;
  b.Set(3, -5.0);
  std::vector<TermWeight> sum;
  AppendSum(a.view(), b.view(), &sum);
  EXPECT_TRUE(sum.empty());
}

TEST(SparseVectorTest, SubtractFromTailMatchesNegatedSum) {
  SparseVector sum;
  sum.Set(1, 2.0);
  sum.Set(3, 5.0);
  sum.Set(7, 1.0);
  SparseVector contained;  // Every term present: cancels term 7.
  contained.Set(3, 2.0);
  contained.Set(7, 1.0);
  SparseVector foreign;  // Terms 0 and 9 are absent from `sum`.
  foreign.Set(0, 4.0);
  foreign.Set(1, 1.0);
  foreign.Set(9, 3.0);
  const TermWeight head{100, 9.0};  // Entries before `begin` are untouched.
  for (const SparseVector* part : {&contained, &foreign}) {
    SparseVector negated;
    for (const auto& e : part->entries()) negated.Set(e.term, -e.value);
    std::vector<TermWeight> expected;
    AppendSum(sum.view(), negated.view(), &expected);
    std::vector<TermWeight> actual = {head};
    actual.insert(actual.end(), sum.entries().begin(), sum.entries().end());
    SubtractFromTail(&actual, 1, part->view());
    DropZeros(&actual, 1);
    ASSERT_EQ(actual.size(), expected.size() + 1);
    EXPECT_EQ(actual[0].term, head.term);
    EXPECT_EQ(actual[0].value, head.value);
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i + 1].term, expected[i].term);
      EXPECT_DOUBLE_EQ(actual[i + 1].value, expected[i].value);
    }
  }
}

TEST(SparseVectorTest, DotAndNorm) {
  SparseVector a;
  a.Set(1, 3.0);
  a.Set(2, 4.0);
  SparseVector b;
  b.Set(2, 2.0);
  EXPECT_DOUBLE_EQ(a.Dot(b), 8.0);
  EXPECT_DOUBLE_EQ(a.Norm(), 5.0);
}

TEST(SparseVectorTest, CosineProperties) {
  SparseVector a;
  a.Set(1, 1.0);
  a.Set(2, 1.0);
  SparseVector scaled;
  scaled.Set(1, 10.0);
  scaled.Set(2, 10.0);
  SparseVector orthogonal;
  orthogonal.Set(3, 1.0);
  SparseVector zero;
  EXPECT_NEAR(a.Cosine(scaled), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(a.Cosine(orthogonal), 0.0);
  EXPECT_DOUBLE_EQ(a.Cosine(zero), 0.0);
  EXPECT_DOUBLE_EQ(zero.Cosine(zero), 0.0);
  // Symmetry.
  SparseVector c;
  c.Set(1, 2.0);
  c.Set(3, 1.0);
  EXPECT_DOUBLE_EQ(a.Cosine(c), c.Cosine(a));
}

TEST(SparseVectorTest, NormalizedHasUnitNorm) {
  SparseVector a;
  a.Set(1, 3.0);
  a.Set(2, 4.0);
  SparseVector n = a.Normalized();
  EXPECT_NEAR(n.Norm(), 1.0, 1e-12);
  EXPECT_NEAR(n.Get(1), 0.6, 1e-12);
  SparseVector zero;
  EXPECT_TRUE(zero.Normalized().empty());
}

}  // namespace
}  // namespace insightnotes::txt
