#include "mining/clustering.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <set>
#include <span>

#include "common/random.h"
#include "txt/analyzer.h"

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
  txt::SparseVector V(const std::string& text) {
    return txt::SparseVector::FromTermIds(analyzer_.Analyze(text).terms);
  }
  /// Commits `vec` for `doc` (a document keeps its first vector) and adds
  /// it to `cs`.
  Result<size_t> Add(ClusterSet& cs, DocId doc, txt::SparseVector vec) {
    store_.Commit(doc, std::move(vec));
    return cs.Add(doc);
  }
  static std::vector<DocId> Members(const ClusterSet& cs, size_t group) {
    return *cs.GroupMembers(group);
  }
  txt::Analyzer analyzer_;
  DocVectorStore store_;
};

TEST_F(ClusteringTest, SimilarDocumentsShareAGroup) {
  ClusterSet cs(&store_, 0.3);
  ASSERT_TRUE(Add(cs, 1, V("the goose was eating stonewort plants")).ok());
  ASSERT_TRUE(Add(cs, 2, V("goose eating stonewort near the lake")).ok());
  ASSERT_TRUE(Add(cs, 3, V("wingspan measured at 160 centimeters")).ok());
  EXPECT_EQ(cs.NumGroups(), 2u);
  EXPECT_EQ(cs.NumDocuments(), 3u);
}

TEST_F(ClusteringTest, DissimilarDocumentsSeedNewGroups) {
  ClusterSet cs(&store_, 0.9);  // Very strict threshold.
  ASSERT_TRUE(Add(cs, 1, V("alpha beta gamma")).ok());
  ASSERT_TRUE(Add(cs, 2, V("delta epsilon zeta")).ok());
  ASSERT_TRUE(Add(cs, 3, V("eta theta iota")).ok());
  EXPECT_EQ(cs.NumGroups(), 3u);
}

TEST_F(ClusteringTest, DuplicateAddRejected) {
  ClusterSet cs(&store_);
  ASSERT_TRUE(Add(cs, 1, V("hello world")).ok());
  EXPECT_TRUE(Add(cs, 1, V("hello again")).status().IsAlreadyExists());
}

TEST_F(ClusteringTest, RepresentativeIsAMember) {
  ClusterSet cs(&store_, 0.2);
  ASSERT_TRUE(Add(cs, 10, V("swan goose eating stonewort")).ok());
  ASSERT_TRUE(Add(cs, 20, V("goose eating stonewort daily")).ok());
  ASSERT_TRUE(Add(cs, 30, V("stonewort eaten by goose swan")).ok());
  for (const auto& g : cs.groups()) {
    EXPECT_TRUE(std::binary_search(g.members.begin(), g.members.end(),
                                   g.representative));
  }
}

TEST_F(ClusteringTest, RestrictDropsEffectAndReelects) {
  ClusterSet cs(&store_, 0.2);
  ASSERT_TRUE(Add(cs, 1, V("goose eating stonewort plants lake")).ok());
  ASSERT_TRUE(Add(cs, 2, V("goose eating stonewort")).ok());
  ASSERT_TRUE(Add(cs, 3, V("eating stonewort lake")).ok());
  ASSERT_EQ(cs.NumGroups(), 1u);
  DocId rep = cs.groups()[0].representative;
  ASSERT_TRUE(cs.Restrict(Ids({rep})).ok());
  ASSERT_EQ(cs.NumGroups(), 1u);
  EXPECT_EQ(cs.groups()[0].size(), 2u);
  EXPECT_NE(cs.groups()[0].representative, rep);
  EXPECT_FALSE(cs.Contains(rep));
}

TEST_F(ClusteringTest, RestrictLastMemberDeletesGroup) {
  ClusterSet cs(&store_);
  ASSERT_TRUE(Add(cs, 1, V("solitary document")).ok());
  ASSERT_TRUE(cs.Restrict(Ids({1})).ok());
  EXPECT_EQ(cs.NumGroups(), 0u);
  EXPECT_EQ(cs.NumDocuments(), 0u);
  // A non-member is ignored.
  EXPECT_TRUE(cs.Restrict(Ids({1})).ok());
  EXPECT_EQ(cs.NumGroups(), 0u);
}

TEST_F(ClusteringTest, AddRestrictIsIdentity) {
  ClusterSet cs(&store_, 0.25);
  ASSERT_TRUE(Add(cs, 1, V("goose eating stonewort")).ok());
  ASSERT_TRUE(Add(cs, 2, V("goose eating plants")).ok());
  std::vector<std::vector<DocId>> before;
  for (size_t g = 0; g < cs.NumGroups(); ++g) before.push_back(Members(cs, g));
  ASSERT_TRUE(Add(cs, 99, V("totally unrelated telescope hardware")).ok());
  ASSERT_TRUE(cs.Restrict(Ids({99})).ok());
  std::vector<std::vector<DocId>> after;
  for (size_t g = 0; g < cs.NumGroups(); ++g) after.push_back(Members(cs, g));
  EXPECT_EQ(before, after);
}

TEST_F(ClusteringTest, MergeDisjointAppendsGroups) {
  ClusterSet a(&store_, 0.9);
  ASSERT_TRUE(Add(a, 1, V("alpha beta")).ok());
  ClusterSet b(&store_, 0.9);
  ASSERT_TRUE(Add(b, 2, V("gamma delta")).ok());
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.NumGroups(), 2u);
  EXPECT_EQ(a.NumDocuments(), 2u);
}

TEST_F(ClusteringTest, MergeSharedMembersNotDoubleCounted) {
  // The same annotation (doc 5) is attached to both tuples (Figure 2's
  // "five common annotations" case).
  ClusterSet a(&store_, 0.2);
  ASSERT_TRUE(Add(a, 5, V("goose eating stonewort")).ok());
  ASSERT_TRUE(Add(a, 6, V("goose eating plants")).ok());
  ClusterSet b(&store_, 0.2);
  ASSERT_TRUE(Add(b, 5, V("goose eating stonewort")).ok());
  ASSERT_TRUE(Add(b, 7, V("stonewort eaten by birds")).ok());
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.NumDocuments(), 3u);  // 5, 6, 7 — doc 5 counted once.
  size_t total_members = 0;
  for (const auto& g : a.groups()) total_members += g.size();
  EXPECT_EQ(total_members, 3u);
}

TEST_F(ClusteringTest, MergeOverlappingGroupsCombine) {
  ClusterSet a(&store_, 0.99);  // Strict: nothing auto-joins.
  ASSERT_TRUE(Add(a, 1, V("one two")).ok());
  ASSERT_TRUE(Add(a, 2, V("three four")).ok());
  ClusterSet b(&store_, 0.99);
  ASSERT_TRUE(Add(b, 1, V("one two")).ok());
  ASSERT_TRUE(Add(b, 3, V("five six")).ok());
  // b's group {1,3}? No: strict threshold separates them; b has {1} and {3}.
  ASSERT_EQ(b.NumGroups(), 2u);
  ASSERT_TRUE(a.Merge(b).ok());
  // Group containing 1 stays a single group; 3 arrives as its own group.
  EXPECT_EQ(a.NumDocuments(), 3u);
  EXPECT_EQ(a.NumGroups(), 3u);
}

TEST_F(ClusteringTest, MergeBridgingGroupCombinesLocalGroups) {
  ClusterSet a(&store_, 0.99);
  ASSERT_TRUE(Add(a, 1, V("one two")).ok());
  ASSERT_TRUE(Add(a, 2, V("three four")).ok());
  ASSERT_EQ(a.NumGroups(), 2u);
  // `b` holds docs 1 and 2 in ONE group (loose threshold): merging must
  // bridge a's two groups into one.
  ClusterSet b(&store_, 0.0);
  ASSERT_TRUE(Add(b, 1, V("one two")).ok());
  ASSERT_TRUE(Add(b, 2, V("three four")).ok());
  ASSERT_EQ(b.NumGroups(), 1u);
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.NumGroups(), 1u);
  EXPECT_EQ(Members(a, 0), (std::vector<DocId>{1, 2}));
}

TEST_F(ClusteringTest, MergeCommutativeOnMembership) {
  auto build = [&](std::vector<std::pair<DocId, std::string>> docs) {
    ClusterSet cs(&store_, 0.3);
    for (auto& [id, text] : docs) EXPECT_TRUE(Add(cs, id, V(text)).ok());
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
  ClusterSet cs(&store_);
  ASSERT_TRUE(Add(cs, 42, V("hello world")).ok());
  auto members = cs.GroupMembers(0);
  ASSERT_TRUE(members.ok());
  EXPECT_EQ(*members, (std::vector<DocId>{42}));
  EXPECT_TRUE(cs.GroupMembers(5).status().IsOutOfRange());
}

TEST_F(ClusteringTest, EmptyTextDocumentsCluster) {
  ClusterSet cs(&store_);
  // Zero vectors have 0 cosine to everything: each seeds its own group.
  ASSERT_TRUE(Add(cs, 1, V("")).ok());
  ASSERT_TRUE(Add(cs, 2, V("")).ok());
  EXPECT_EQ(cs.NumGroups(), 2u);
}

TEST_F(ClusteringTest, Figure2DroppedRepresentativeIsReplaced) {
  // Figure 2 step 1: A2 represents {A1, A2, A5}; projecting out A2's
  // column re-elects, and A5 (closest to the new centroid) replaces it.
  ClusterSet cs(&store_, 0.0);
  ASSERT_TRUE(Add(cs, 1, Counts({3, 0})).ok());
  ASSERT_TRUE(Add(cs, 2, Counts({2, 2})).ok());
  ASSERT_TRUE(Add(cs, 5, Counts({1, 3})).ok());
  ASSERT_EQ(cs.NumGroups(), 1u);
  ASSERT_EQ(cs.groups()[0].representative, 2u);
  ASSERT_TRUE(cs.Restrict(Ids({2})).ok());
  EXPECT_EQ(Members(cs, 0), Ids({1, 5}));
  EXPECT_EQ(cs.groups()[0].representative, 5u);
}

TEST_F(ClusteringTest, DroppingANonRepresentativeReelects) {
  // The representative is the member closest to the centroid of the
  // current members, so losing any member can move it.
  ClusterSet cs(&store_, 0.0);
  ASSERT_TRUE(Add(cs, 1, Counts({3, 0})).ok());
  ASSERT_TRUE(Add(cs, 2, Counts({2, 2})).ok());
  ASSERT_TRUE(Add(cs, 5, Counts({1, 3})).ok());
  ASSERT_TRUE(Add(cs, 7, Counts({0, 4})).ok());
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
    // Every round gives documents 0..39 new vectors: a store of its own.
    DocVectorStore store;
    ClusterSet at_once(&store, 0.3);
    ClusterSet one_by_one(&store, 0.3);
    for (DocId doc = 0; doc < 40; ++doc) {
      store.Commit(doc, V(texts[rng.Uniform(texts.size())] + " " +
                          texts[rng.Uniform(texts.size())]));
      ASSERT_TRUE(at_once.Add(doc).ok());
      ASSERT_TRUE(one_by_one.Add(doc).ok());
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
      EXPECT_EQ(Members(at_once, g), Members(one_by_one, g));
      EXPECT_EQ(at_once.groups()[g].representative, one_by_one.groups()[g].representative);
      const auto x = at_once.groups()[g].centroid_sum.entries();
      const auto y = one_by_one.groups()[g].centroid_sum.entries();
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
  ClusterSet cs(&store_, 0.5);
  ASSERT_TRUE(Add(cs, 1, V("goose eating stonewort")).ok());
  ASSERT_TRUE(Add(cs, 2, V("influenza outbreak")).ok());
  ASSERT_TRUE(Add(cs, 3, V("goose eating plants")).ok());
  ASSERT_TRUE(cs.Restrict(Ids({0, 1, 2, 3, 4})).ok());
  EXPECT_EQ(cs.NumGroups(), 0u);
  EXPECT_EQ(cs.NumDocuments(), 0u);
}

TEST_F(ClusteringTest, MergeBridgingGroupsKeepsFirstGroupPosition) {
  // a: {1} {2} {3}; b bridges 1 and 3 and adds 4. The combined group takes
  // the place of the first group it absorbs; {2} keeps its order.
  ClusterSet a(&store_, 0.99);
  ASSERT_TRUE(Add(a, 1, V("one two")).ok());
  ASSERT_TRUE(Add(a, 2, V("three four")).ok());
  ASSERT_TRUE(Add(a, 3, V("five six")).ok());
  ClusterSet b(&store_, 0.0);
  ASSERT_TRUE(Add(b, 3, V("five six")).ok());
  ASSERT_TRUE(Add(b, 1, V("one two")).ok());
  ASSERT_TRUE(Add(b, 4, V("seven eight")).ok());
  ASSERT_EQ(b.NumGroups(), 1u);
  ASSERT_TRUE(a.Merge(b).ok());
  ASSERT_EQ(a.NumGroups(), 2u);
  EXPECT_EQ(Members(a, 0), Ids({1, 3, 4}));
  EXPECT_EQ(Members(a, 1), Ids({2}));
  EXPECT_EQ(a.NumDocuments(), 4u);
  EXPECT_TRUE(a.Contains(4));
}

// --- Independent oracle -----------------------------------------------------
// Seeded random Add / Restrict / Merge sequences over one shared vector
// store, each step checked against brute force. Only the adapter below
// names the set's storage API.

/// The shared store: every document's vector, committed once.
class OracleStore {
 public:
  void Commit(DocId doc, txt::SparseVector vec) {
    store_.Commit(doc, vec);
    vectors_.emplace(doc, std::move(vec));
  }
  void Clear() {
    store_.Clear();
    vectors_.clear();
  }
  const txt::SparseVector& At(DocId doc) const { return vectors_.at(doc); }
  const DocVectorStore* store() const { return &store_; }

 private:
  DocVectorStore store_;
  std::map<DocId, txt::SparseVector> vectors_;
};

ClusterSet MakeSet(const OracleStore& store, double threshold) {
  return ClusterSet(store.store(), threshold);
}

Result<size_t> AddDoc(ClusterSet* cs, const OracleStore&, DocId doc) { return cs->Add(doc); }

struct GroupState {
  std::vector<DocId> members;
  std::vector<std::pair<txt::TermId, double>> centroid;
  double norm;
  DocId representative;
  bool operator==(const GroupState&) const = default;
};

std::vector<GroupState> StateOf(const ClusterSet& cs) {
  std::vector<GroupState> out;
  for (const ClusterGroup& g : cs.groups()) {
    GroupState s;
    s.members.assign(g.members.begin(), g.members.end());
    for (const auto& e : g.centroid_sum.entries()) s.centroid.emplace_back(e.term, e.value);
    s.norm = g.norm;
    s.representative = g.representative;
    out.push_back(std::move(s));
  }
  return out;
}

class ClusterOracleTest : public ::testing::Test {
 protected:
  static constexpr DocId kUniverse = 160;

  /// How the universe's vectors are drawn: 1 + Uniform(max_terms) draws
  /// from `term_ids`, each counting 1 + Uniform(max_count).
  struct Shape {
    std::vector<txt::TermId> term_ids;
    uint64_t max_terms;
    uint64_t max_count;
  };

  /// Ten terms, up to four per document, counts up to three: many ties.
  static Shape Narrow() {
    Shape shape{{}, 4, 3};
    for (txt::TermId t = 0; t < 10; ++t) shape.term_ids.push_back(t);
    return shape;
  }

  /// 320 term ids spread up to just below UINT32_MAX, up to 60 per
  /// document, counts up to 2^20: centroids of hundreds of terms whose
  /// dots are sums of products past 2^53, so rounding makes the order of
  /// the additions visible in the bits.
  static Shape Wide() {
    Shape shape{{0, 1, uint32_t{1} << 31, UINT32_MAX - 2, UINT32_MAX - 1}, 60,
                uint64_t{1} << 20};
    Random rng(4242);
    while (shape.term_ids.size() < 320) {
      shape.term_ids.push_back(static_cast<txt::TermId>(rng.Uniform(UINT32_MAX - 1)));
    }
    return shape;
  }

  void SetUp() override { Populate(20150531, Narrow()); }

  /// Commits a fresh vector for every document of the universe.
  void Populate(uint64_t seed, const Shape& shape) {
    store_.Clear();
    Random rng(seed);
    for (DocId doc = 0; doc < kUniverse; ++doc) {
      txt::SparseVector vec;
      // A few zero vectors: cosine 0 against everything.
      if (!rng.Bernoulli(0.04)) {
        const uint64_t terms = 1 + rng.Uniform(shape.max_terms);
        for (uint64_t k = 0; k < terms; ++k) {
          vec.Set(shape.term_ids[rng.Uniform(shape.term_ids.size())],
                  static_cast<double>(1 + rng.Uniform(shape.max_count)));
        }
      }
      store_.Commit(doc, vec);
    }
  }

  /// Sum of the stored vectors of `members`, by term.
  std::map<txt::TermId, double> Refold(const std::vector<DocId>& members) const {
    std::map<txt::TermId, double> sum;
    for (DocId doc : members) {
      for (const auto& e : store_.At(doc).entries()) sum[e.term] += e.value;
    }
    return sum;
  }

  /// Norm of `sum`, its squares added in ascending term order.
  static double NormOf(const std::map<txt::TermId, double>& sum) {
    double sum_sq = 0.0;
    for (const auto& [term, value] : sum) sum_sq += value * value;
    return std::sqrt(sum_sq);
  }

  /// Cosine of `vec` against `sum`, from scratch: the dot is a merge walk
  /// over both, adding each product centroid x member in ascending term
  /// order; both norms accumulate in ascending term order.
  static double Cos(const std::map<txt::TermId, double>& sum, const txt::SparseVector& vec) {
    double dot = 0.0;
    double vec_sq = 0.0;
    auto it = sum.begin();
    for (const auto& e : vec.entries()) {
      while (it != sum.end() && it->first < e.term) ++it;
      if (it != sum.end() && it->first == e.term) dot += it->second * e.value;
      vec_sq += e.value * e.value;
    }
    const double sum_norm = NormOf(sum);
    const double vec_norm = std::sqrt(vec_sq);
    if (sum_norm < 1e-12 || vec_norm < 1e-12) return 0.0;
    return std::clamp(dot / (sum_norm * vec_norm), 0.0, 1.0);
  }

  /// Every structural and numeric invariant of `cs`, from brute force.
  void CheckSet(const ClusterSet& cs, const std::string& where) const {
    const std::vector<GroupState> state = StateOf(cs);
    ASSERT_EQ(state.size(), cs.NumGroups()) << where;
    std::set<DocId> seen;
    for (size_t g = 0; g < state.size(); ++g) {
      const GroupState& group = state[g];
      ASSERT_FALSE(group.members.empty()) << where << ": empty group " << g;
      for (size_t k = 1; k < group.members.size(); ++k) {
        ASSERT_LT(group.members[k - 1], group.members[k]) << where << ": group " << g;
      }
      for (DocId doc : group.members) {
        ASSERT_TRUE(seen.insert(doc).second) << where << ": doc " << doc << " twice";
      }
      auto members = cs.GroupMembers(g);
      ASSERT_TRUE(members.ok()) << where;
      ASSERT_EQ(*members, group.members) << where;
      // centroid_sum is the exact sum of the members' stored vectors.
      const std::map<txt::TermId, double> sum = Refold(group.members);
      ASSERT_EQ(group.centroid.size(), sum.size()) << where << ": group " << g;
      size_t k = 0;
      for (const auto& [term, value] : sum) {
        ASSERT_EQ(group.centroid[k].first, term) << where << ": group " << g;
        ASSERT_EQ(group.centroid[k].second, value) << where << ": group " << g;
        ++k;
      }
      ASSERT_EQ(std::bit_cast<uint64_t>(group.norm), std::bit_cast<uint64_t>(NormOf(sum)))
          << where << ": group " << g;
      // The representative: highest cosine to the centroid, ties to the
      // lowest id.
      DocId best = group.members.front();
      double best_sim = -1.0;
      for (DocId doc : group.members) {
        const double sim = Cos(sum, store_.At(doc));
        if (sim > best_sim) {
          best_sim = sim;
          best = doc;
        }
      }
      ASSERT_EQ(group.representative, best) << where << ": group " << g;
    }
    // The document-to-group slots agree with the groups.
    ASSERT_EQ(cs.NumDocuments(), seen.size()) << where;
    for (DocId doc = 0; doc < kUniverse; ++doc) {
      ASSERT_EQ(cs.Contains(doc), seen.contains(doc)) << where << ": doc " << doc;
      const DocId one[] = {doc};
      ASSERT_EQ(cs.ContainsAny(one), seen.contains(doc)) << where << ": doc " << doc;
    }
  }

  /// Member lists of `state`.
  static std::vector<std::vector<DocId>> Membership(const std::vector<GroupState>& state) {
    std::vector<std::vector<DocId>> out;
    for (const GroupState& g : state) out.push_back(g.members);
    return out;
  }

  /// Adds `doc` and checks the group it joins: the most similar at or
  /// above the threshold, ties to the lowest index, else a new last group.
  void CheckedAdd(ClusterSet* cs, DocId doc, const std::string& where) {
    std::vector<std::vector<DocId>> expected = Membership(StateOf(*cs));
    size_t best = expected.size();
    double best_sim = -1.0;
    for (size_t g = 0; g < expected.size(); ++g) {
      const double sim = Cos(Refold(expected[g]), store_.At(doc));
      if (sim >= cs->threshold() && sim > best_sim) {
        best = g;
        best_sim = sim;
      }
    }
    if (best == expected.size()) {
      expected.push_back({doc});
    } else {
      auto& m = expected[best];
      m.insert(std::lower_bound(m.begin(), m.end(), doc), doc);
    }
    auto joined = AddDoc(cs, store_, doc);
    ASSERT_TRUE(joined.ok()) << where << ": " << joined.status().ToString();
    ASSERT_EQ(*joined, best) << where;
    ASSERT_EQ(Membership(StateOf(*cs)), expected) << where;
    CheckSet(*cs, where);
  }

  /// Restricts by `dropped` and checks the groups keep their order, lose
  /// exactly the dropped members, and vanish when emptied.
  void CheckedRestrict(ClusterSet* cs, const std::vector<DocId>& dropped,
                       const std::string& where) {
    std::vector<std::vector<DocId>> expected;
    for (std::vector<DocId> members : Membership(StateOf(*cs))) {
      std::erase_if(members, [&](DocId d) {
        return std::binary_search(dropped.begin(), dropped.end(), d);
      });
      if (!members.empty()) expected.push_back(std::move(members));
    }
    ASSERT_TRUE(cs->Restrict(dropped).ok()) << where;
    ASSERT_EQ(Membership(StateOf(*cs)), expected) << where;
    CheckSet(*cs, where);
  }

  /// Merges `other` into `cs` and checks it against a brute-force fold of
  /// `other`'s groups and against merging them in one at a time.
  void CheckedMerge(ClusterSet* cs, const ClusterSet& other, const std::string& where) {
    // Brute force: an incoming group overlapping local groups combines them
    // into the first; a disjoint one is appended.
    std::vector<std::vector<DocId>> expected = Membership(StateOf(*cs));
    const std::vector<std::vector<DocId>> incoming = Membership(StateOf(other));
    for (const std::vector<DocId>& group : incoming) {
      std::vector<size_t> hit;
      for (size_t g = 0; g < expected.size(); ++g) {
        for (DocId doc : group) {
          if (std::binary_search(expected[g].begin(), expected[g].end(), doc)) {
            hit.push_back(g);
            break;
          }
        }
      }
      if (hit.empty()) {
        expected.push_back(group);
        continue;
      }
      std::set<DocId> combined(group.begin(), group.end());
      for (size_t g : hit) combined.insert(expected[g].begin(), expected[g].end());
      expected[hit.front()].assign(combined.begin(), combined.end());
      for (size_t k = hit.size(); k-- > 1;) {
        expected.erase(expected.begin() + static_cast<std::ptrdiff_t>(hit[k]));
      }
    }
    // One group at a time: each incoming group alone is `other` restricted
    // to it, whose sum and representative depend on its members only.
    ClusterSet folded = *cs;
    for (size_t g = 0; g < incoming.size(); ++g) {
      std::vector<DocId> rest;
      for (size_t h = 0; h < incoming.size(); ++h) {
        if (h != g) rest.insert(rest.end(), incoming[h].begin(), incoming[h].end());
      }
      std::sort(rest.begin(), rest.end());
      ClusterSet single = other;
      ASSERT_TRUE(single.Restrict(rest).ok()) << where;
      ASSERT_EQ(single.NumGroups(), 1u) << where;
      ASSERT_TRUE(folded.Merge(single).ok()) << where;
    }
    ASSERT_TRUE(cs->Merge(other).ok()) << where;
    ASSERT_EQ(Membership(StateOf(*cs)), expected) << where;
    ASSERT_EQ(StateOf(*cs), StateOf(folded)) << where;
    CheckSet(*cs, where);
  }

  /// A random subset of the universe, ascending.
  static std::vector<DocId> Subset(Random* rng, double p) {
    std::vector<DocId> out;
    for (DocId doc = 0; doc < kUniverse; ++doc) {
      if (rng->Bernoulli(p)) out.push_back(doc);
    }
    return out;
  }

  /// A set over a random subset of the universe, added in random order.
  ClusterSet RandomSet(Random* rng, double threshold, const std::string& where) {
    ClusterSet cs = MakeSet(store_, threshold);
    std::vector<DocId> docs = Subset(rng, 0.02 + 0.2 * rng->NextDouble());
    for (size_t i = docs.size(); i > 1; --i) std::swap(docs[i - 1], docs[rng->Uniform(i)]);
    for (DocId doc : docs) {
      CheckedAdd(&cs, doc, where + " build");
      if (HasFatalFailure()) break;
    }
    return cs;
  }

  /// `rounds` rounds of random Add / Restrict / Merge sequences on two
  /// sets built at thresholds drawn from `thresholds`, each step checked.
  void RandomRounds(Random* rng, int rounds, std::span<const double> thresholds) {
    for (int round = 0; round < rounds; ++round) {
      const std::string where = "round " + std::to_string(round);
      const double threshold = thresholds[rng->Uniform(thresholds.size())];
      ClusterSet a = RandomSet(rng, threshold, where + " a");
      ASSERT_FALSE(HasFatalFailure());
      ClusterSet b =
          RandomSet(rng, thresholds[rng->Uniform(thresholds.size())], where + " b");
      ASSERT_FALSE(HasFatalFailure());
      for (int op = 0; op < 6; ++op) {
        const std::string step = where + " op " + std::to_string(op);
        switch (rng->Uniform(4)) {
          case 0: {
            const DocId doc = rng->Uniform(kUniverse);
            if (!a.Contains(doc)) CheckedAdd(&a, doc, step + " add");
            break;
          }
          case 1:
            CheckedRestrict(&a, Subset(rng, 0.3 * rng->NextDouble()), step + " restrict");
            break;
          case 2:
            CheckedRestrict(&b, Subset(rng, 0.3 * rng->NextDouble()), step + " restrict b");
            break;
          default:
            CheckedMerge(&a, b, step + " merge");
            break;
        }
        ASSERT_FALSE(HasFatalFailure());
      }
      // A copy is independent of its source.
      ClusterSet copy = a;
      const std::vector<GroupState> before = StateOf(a);
      CheckedRestrict(&copy, Subset(rng, 0.5), where + " copy");
      ASSERT_EQ(StateOf(a), before) << where;
    }
  }

  OracleStore store_;
};

TEST_F(ClusterOracleTest, RandomAddRestrictMergeMatchBruteForce) {
  constexpr double kThresholds[] = {0.0, 0.2, 0.35, 0.6, 0.99};
  Random rng(7);
  RandomRounds(&rng, 500, kThresholds);
}

TEST_F(ClusterOracleTest, WideTermsAndLargeCountsMatchMergeWalkBitForBit) {
  // Term ids up to UINT32_MAX - 1 (the election's scratch must not size
  // itself by them), counts up to 2^20 and centroids of hundreds of terms:
  // representatives, centroid entries and norms still equal the merge-walk
  // reference bit for bit after every Add, Restrict and Merge.
  Populate(99, Wide());
  constexpr double kThresholds[] = {0.0, 0.05, 0.1, 0.3};
  Random rng(11);
  RandomRounds(&rng, 120, kThresholds);
  // The wide universe does grow centroids of hundreds of terms.
  ClusterSet all = MakeSet(store_, 0.0);
  for (DocId doc = 0; doc < kUniverse; ++doc) ASSERT_TRUE(all.Add(doc).ok());
  EXPECT_GT(all.group(0).centroid_sum.entries().size(), 300u);
  CheckSet(all, "all");
}

TEST_F(ClusterOracleTest, ElectionTiesFollowTheMergeWalkBits) {
  // Two members whose values over the same terms are reversed: the
  // centroid is symmetric, so their dots are the same products, added in
  // opposite term orders. Counts up to 2^26 put the sums past 2^53, where
  // the two orders round differently, so the election must add in the
  // merge walk's ascending order to pick the reference's winner.
  std::vector<txt::TermId> terms = Wide().term_ids;
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  terms.resize(150);
  Random rng(2015);
  int order_visible = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const std::string where = "trial " + std::to_string(trial);
    txt::SparseVector a;
    txt::SparseVector b;
    std::vector<double> values(terms.size());
    for (double& v : values) v = static_cast<double>(1 + rng.Uniform(uint64_t{1} << 26));
    for (size_t i = 0; i < terms.size(); ++i) {
      a.Set(terms[i], values[i]);
      b.Set(terms[i], values[terms.size() - 1 - i]);
    }
    std::map<txt::TermId, double> sum;
    for (size_t i = 0; i < terms.size(); ++i) sum[terms[i]] = values[i] + values[terms.size() - 1 - i];
    double forward = 0.0;
    double backward = 0.0;
    for (const auto& e : a.entries()) forward += sum.at(e.term) * e.value;
    for (auto it = a.entries().rbegin(); it != a.entries().rend(); ++it) {
      backward += sum.at(it->term) * it->value;
    }
    order_visible += forward != backward;
    store_.Clear();
    store_.Commit(0, a);
    store_.Commit(1, b);
    ClusterSet cs = MakeSet(store_, 0.0);
    CheckedAdd(&cs, 0, where);
    CheckedAdd(&cs, 1, where);
    ASSERT_FALSE(HasFatalFailure());
  }
  // The case is live: most trials' sums depend on the order.
  EXPECT_GT(order_visible, 100);
}

}  // namespace
}  // namespace insightnotes::mining
