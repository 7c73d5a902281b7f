#include "mining/clustering.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"

namespace insightnotes::mining {
namespace {

std::vector<DocId> Ids(std::initializer_list<DocId> ids) { return std::vector<DocId>(ids); }

/// An integer term-count vector over terms 0, 1, ...
txt::SparseVector Counts(std::initializer_list<double> counts) {
  txt::SparseVector v;
  txt::TermId term = 0;
  for (double c : counts) v.Set(term++, c);
  return v;
}

class ClusteringTest : public ::testing::Test {
 protected:
  txt::SparseVector V(const std::string& text) { return vectorizer_.Vectorize(text); }
  TextVectorizer vectorizer_;
};

TEST_F(ClusteringTest, SimilarDocumentsShareAGroup) {
  ClusterSet cs(0.3);
  ASSERT_TRUE(cs.Add(1, V("the goose was eating stonewort plants")).ok());
  ASSERT_TRUE(cs.Add(2, V("goose eating stonewort near the lake")).ok());
  ASSERT_TRUE(cs.Add(3, V("wingspan measured at 160 centimeters")).ok());
  EXPECT_EQ(cs.NumGroups(), 2u);
  EXPECT_EQ(cs.NumDocuments(), 3u);
}

TEST_F(ClusteringTest, DissimilarDocumentsSeedNewGroups) {
  ClusterSet cs(0.9);  // Very strict threshold.
  ASSERT_TRUE(cs.Add(1, V("alpha beta gamma")).ok());
  ASSERT_TRUE(cs.Add(2, V("delta epsilon zeta")).ok());
  ASSERT_TRUE(cs.Add(3, V("eta theta iota")).ok());
  EXPECT_EQ(cs.NumGroups(), 3u);
}

TEST_F(ClusteringTest, DuplicateAddRejected) {
  ClusterSet cs;
  ASSERT_TRUE(cs.Add(1, V("hello world")).ok());
  EXPECT_TRUE(cs.Add(1, V("hello again")).status().IsAlreadyExists());
}

TEST_F(ClusteringTest, RepresentativeIsAMember) {
  ClusterSet cs(0.2);
  ASSERT_TRUE(cs.Add(10, V("swan goose eating stonewort")).ok());
  ASSERT_TRUE(cs.Add(20, V("goose eating stonewort daily")).ok());
  ASSERT_TRUE(cs.Add(30, V("stonewort eaten by goose swan")).ok());
  for (const auto& g : cs.groups()) {
    EXPECT_TRUE(std::binary_search(g.members.begin(), g.members.end(),
                                   g.representative));
  }
}

TEST_F(ClusteringTest, RestrictDropsEffectAndReelects) {
  ClusterSet cs(0.2);
  ASSERT_TRUE(cs.Add(1, V("goose eating stonewort plants lake")).ok());
  ASSERT_TRUE(cs.Add(2, V("goose eating stonewort")).ok());
  ASSERT_TRUE(cs.Add(3, V("eating stonewort lake")).ok());
  ASSERT_EQ(cs.NumGroups(), 1u);
  DocId rep = cs.groups()[0].representative;
  ASSERT_TRUE(cs.Restrict(Ids({rep})).ok());
  ASSERT_EQ(cs.NumGroups(), 1u);
  EXPECT_EQ(cs.groups()[0].size(), 2u);
  EXPECT_NE(cs.groups()[0].representative, rep);
  EXPECT_FALSE(cs.Contains(rep));
}

TEST_F(ClusteringTest, RestrictLastMemberDeletesGroup) {
  ClusterSet cs;
  ASSERT_TRUE(cs.Add(1, V("solitary document")).ok());
  ASSERT_TRUE(cs.Restrict(Ids({1})).ok());
  EXPECT_EQ(cs.NumGroups(), 0u);
  EXPECT_EQ(cs.NumDocuments(), 0u);
  // A non-member is ignored.
  EXPECT_TRUE(cs.Restrict(Ids({1})).ok());
  EXPECT_EQ(cs.NumGroups(), 0u);
}

TEST_F(ClusteringTest, AddRestrictIsIdentity) {
  ClusterSet cs(0.25);
  ASSERT_TRUE(cs.Add(1, V("goose eating stonewort")).ok());
  ASSERT_TRUE(cs.Add(2, V("goose eating plants")).ok());
  std::vector<std::vector<DocId>> before;
  for (const auto& g : cs.groups()) before.push_back(g.members);
  ASSERT_TRUE(cs.Add(99, V("totally unrelated telescope hardware")).ok());
  ASSERT_TRUE(cs.Restrict(Ids({99})).ok());
  std::vector<std::vector<DocId>> after;
  for (const auto& g : cs.groups()) after.push_back(g.members);
  EXPECT_EQ(before, after);
}

TEST_F(ClusteringTest, MergeDisjointAppendsGroups) {
  ClusterSet a(0.9);
  ASSERT_TRUE(a.Add(1, V("alpha beta")).ok());
  ClusterSet b(0.9);
  ASSERT_TRUE(b.Add(2, V("gamma delta")).ok());
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.NumGroups(), 2u);
  EXPECT_EQ(a.NumDocuments(), 2u);
}

TEST_F(ClusteringTest, MergeSharedMembersNotDoubleCounted) {
  // The same annotation (doc 5) is attached to both tuples (Figure 2's
  // "five common annotations" case).
  ClusterSet a(0.2);
  ASSERT_TRUE(a.Add(5, V("goose eating stonewort")).ok());
  ASSERT_TRUE(a.Add(6, V("goose eating plants")).ok());
  ClusterSet b(0.2);
  ASSERT_TRUE(b.Add(5, V("goose eating stonewort")).ok());
  ASSERT_TRUE(b.Add(7, V("stonewort eaten by birds")).ok());
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.NumDocuments(), 3u);  // 5, 6, 7 — doc 5 counted once.
  size_t total_members = 0;
  for (const auto& g : a.groups()) total_members += g.size();
  EXPECT_EQ(total_members, 3u);
}

TEST_F(ClusteringTest, MergeOverlappingGroupsCombine) {
  ClusterSet a(0.99);  // Strict: nothing auto-joins.
  ASSERT_TRUE(a.Add(1, V("one two")).ok());
  ASSERT_TRUE(a.Add(2, V("three four")).ok());
  ClusterSet b(0.99);
  ASSERT_TRUE(b.Add(1, V("one two")).ok());
  ASSERT_TRUE(b.Add(3, V("five six")).ok());
  // b's group {1,3}? No: strict threshold separates them; b has {1} and {3}.
  ASSERT_EQ(b.NumGroups(), 2u);
  ASSERT_TRUE(a.Merge(b).ok());
  // Group containing 1 stays a single group; 3 arrives as its own group.
  EXPECT_EQ(a.NumDocuments(), 3u);
  EXPECT_EQ(a.NumGroups(), 3u);
}

TEST_F(ClusteringTest, MergeBridgingGroupCombinesLocalGroups) {
  ClusterSet a(0.99);
  ASSERT_TRUE(a.Add(1, V("one two")).ok());
  ASSERT_TRUE(a.Add(2, V("three four")).ok());
  ASSERT_EQ(a.NumGroups(), 2u);
  // `b` holds docs 1 and 2 in ONE group (loose threshold): merging must
  // bridge a's two groups into one.
  ClusterSet b(0.0);
  ASSERT_TRUE(b.Add(1, V("one two")).ok());
  ASSERT_TRUE(b.Add(2, V("three four")).ok());
  ASSERT_EQ(b.NumGroups(), 1u);
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.NumGroups(), 1u);
  EXPECT_EQ(a.groups()[0].members, (std::vector<DocId>{1, 2}));
}

TEST_F(ClusteringTest, MergeCommutativeOnMembership) {
  auto build = [&](std::vector<std::pair<DocId, std::string>> docs) {
    ClusterSet cs(0.3);
    for (auto& [id, text] : docs) EXPECT_TRUE(cs.Add(id, V(text)).ok());
    return cs;
  };
  auto a1 = build({{1, "goose eating stonewort"}, {2, "wingspan anatomy size"}});
  auto b1 = build({{3, "goose eating plants stonewort"}, {4, "disease influenza"}});
  auto a2 = build({{1, "goose eating stonewort"}, {2, "wingspan anatomy size"}});
  auto b2 = build({{3, "goose eating plants stonewort"}, {4, "disease influenza"}});
  ASSERT_TRUE(a1.Merge(b1).ok());
  ASSERT_TRUE(b2.Merge(a2).ok());
  EXPECT_EQ(a1.NumDocuments(), b2.NumDocuments());
  EXPECT_TRUE(a1.SameGrouping(b2));
}

TEST_F(ClusteringTest, GroupMembersAccessor) {
  ClusterSet cs;
  ASSERT_TRUE(cs.Add(42, V("hello world")).ok());
  auto members = cs.GroupMembers(0);
  ASSERT_TRUE(members.ok());
  EXPECT_EQ(*members, (std::vector<DocId>{42}));
  EXPECT_TRUE(cs.GroupMembers(5).status().IsOutOfRange());
}

TEST_F(ClusteringTest, EmptyTextDocumentsCluster) {
  ClusterSet cs;
  // Zero vectors have 0 cosine to everything: each seeds its own group.
  ASSERT_TRUE(cs.Add(1, V("")).ok());
  ASSERT_TRUE(cs.Add(2, V("")).ok());
  EXPECT_EQ(cs.NumGroups(), 2u);
}

TEST_F(ClusteringTest, Figure2DroppedRepresentativeIsReplaced) {
  // Figure 2 step 1: A2 represents {A1, A2, A5}; projecting out A2's
  // column re-elects, and A5 (closest to the new centroid) replaces it.
  ClusterSet cs(0.0);
  ASSERT_TRUE(cs.Add(1, Counts({3, 0})).ok());
  ASSERT_TRUE(cs.Add(2, Counts({2, 2})).ok());
  ASSERT_TRUE(cs.Add(5, Counts({1, 3})).ok());
  ASSERT_EQ(cs.NumGroups(), 1u);
  ASSERT_EQ(cs.groups()[0].representative, 2u);
  ASSERT_TRUE(cs.Restrict(Ids({2})).ok());
  EXPECT_EQ(cs.groups()[0].members, Ids({1, 5}));
  EXPECT_EQ(cs.groups()[0].representative, 5u);
}

TEST_F(ClusteringTest, DroppingANonRepresentativeReelects) {
  // The representative is the member closest to the centroid of the
  // current members, so losing any member can move it.
  ClusterSet cs(0.0);
  ASSERT_TRUE(cs.Add(1, Counts({3, 0})).ok());
  ASSERT_TRUE(cs.Add(2, Counts({2, 2})).ok());
  ASSERT_TRUE(cs.Add(5, Counts({1, 3})).ok());
  ASSERT_TRUE(cs.Add(7, Counts({0, 4})).ok());
  ASSERT_EQ(cs.groups()[0].representative, 2u);
  ASSERT_TRUE(cs.Restrict(Ids({1})).ok());
  EXPECT_EQ(cs.groups()[0].representative, 5u);
}

TEST_F(ClusteringTest, RestrictSetMatchesOneDocAtATime) {
  const std::vector<std::string> texts = {
      "goose eating stonewort",      "goose eating plants",
      "wingspan measured large",     "influenza outbreak disease",
      "stonewort lake plants goose", "large wingspan and weight",
      "sick goose with influenza",   "photo of the lake",
  };
  Random rng(3);
  for (int round = 0; round < 30; ++round) {
    ClusterSet at_once(0.3);
    ClusterSet one_by_one(0.3);
    for (DocId doc = 0; doc < 40; ++doc) {
      txt::SparseVector vec = V(texts[rng.Uniform(texts.size())] + " " +
                                texts[rng.Uniform(texts.size())]);
      ASSERT_TRUE(at_once.Add(doc, vec).ok());
      ASSERT_TRUE(one_by_one.Add(doc, vec).ok());
    }
    std::vector<DocId> dropped;
    for (DocId doc = 0; doc < 45; ++doc) {
      if (rng.Bernoulli(0.5)) dropped.push_back(doc);
    }
    ASSERT_TRUE(at_once.Restrict(dropped).ok());
    for (DocId doc : dropped) {
      ASSERT_TRUE(one_by_one.Restrict(std::span<const DocId>(&doc, 1)).ok());
    }
    ASSERT_EQ(at_once.NumGroups(), one_by_one.NumGroups());
    for (size_t g = 0; g < at_once.NumGroups(); ++g) {
      EXPECT_EQ(at_once.groups()[g].members, one_by_one.groups()[g].members);
      EXPECT_EQ(at_once.groups()[g].representative, one_by_one.groups()[g].representative);
      const auto& x = at_once.groups()[g].centroid_sum.entries();
      const auto& y = one_by_one.groups()[g].centroid_sum.entries();
      ASSERT_EQ(x.size(), y.size());
      for (size_t k = 0; k < x.size(); ++k) {
        EXPECT_EQ(x[k].term, y[k].term);
        EXPECT_EQ(x[k].value, y[k].value);
      }
    }
    EXPECT_EQ(at_once.NumDocuments(), 40 - std::count_if(dropped.begin(), dropped.end(),
                                                         [](DocId d) { return d < 40; }));
    for (DocId doc : dropped) EXPECT_FALSE(at_once.Contains(doc));
  }
}

TEST_F(ClusteringTest, RestrictEverythingEmptiesSet) {
  ClusterSet cs(0.5);
  ASSERT_TRUE(cs.Add(1, V("goose eating stonewort")).ok());
  ASSERT_TRUE(cs.Add(2, V("influenza outbreak")).ok());
  ASSERT_TRUE(cs.Add(3, V("goose eating plants")).ok());
  ASSERT_TRUE(cs.Restrict(Ids({0, 1, 2, 3, 4})).ok());
  EXPECT_EQ(cs.NumGroups(), 0u);
  EXPECT_EQ(cs.NumDocuments(), 0u);
}

TEST_F(ClusteringTest, MergeBridgingGroupsKeepsFirstGroupPosition) {
  // a: {1} {2} {3}; b bridges 1 and 3 and adds 4. The combined group takes
  // the place of the first group it absorbs; {2} keeps its order.
  ClusterSet a(0.99);
  ASSERT_TRUE(a.Add(1, V("one two")).ok());
  ASSERT_TRUE(a.Add(2, V("three four")).ok());
  ASSERT_TRUE(a.Add(3, V("five six")).ok());
  ClusterSet b(0.0);
  ASSERT_TRUE(b.Add(3, V("five six")).ok());
  ASSERT_TRUE(b.Add(1, V("one two")).ok());
  ASSERT_TRUE(b.Add(4, V("seven eight")).ok());
  ASSERT_EQ(b.NumGroups(), 1u);
  ASSERT_TRUE(a.Merge(b).ok());
  ASSERT_EQ(a.NumGroups(), 2u);
  EXPECT_EQ(a.groups()[0].members, Ids({1, 3, 4}));
  EXPECT_EQ(a.groups()[1].members, Ids({2}));
  EXPECT_EQ(a.NumDocuments(), 4u);
  EXPECT_TRUE(a.Contains(4));
}

}  // namespace
}  // namespace insightnotes::mining
