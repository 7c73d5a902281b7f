#include "common/coverage.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/random.h"
#include "core/summary_manager.h"
#include "testutil.h"

namespace insightnotes {
namespace {

using core::AttachmentList;
using core::AttachmentListPtr;
using testutil::Att;
using testutil::Entries;
using testutil::MakeList;

// Coverage as a brute-force oracle keeps it: id -> column set, where
// "whole row" is its own flag instead of the empty set.
struct Oracle {
  bool whole_row = false;
  std::set<size_t> columns;
};
using OracleMap = std::map<uint64_t, Oracle>;

// Ascending, duplicate-free ids from [base, base + 40), each with a random
// column set over `width` columns; about one in four is whole-row.
std::vector<Att> RandomList(Random* rng, size_t width, uint64_t base = 0) {
  std::vector<Att> list;
  for (uint64_t id = base; id < base + 40; ++id) {
    if (!rng->Bernoulli(0.3)) continue;
    Att att{id, {}};
    if (!rng->Bernoulli(0.25)) {
      const size_t n = 1 + rng->Uniform(3);
      for (size_t i = 0; i < n; ++i) att.columns.push_back(rng->Uniform(width));
      NormalizeCoverage(&att.columns);
    }
    list.push_back(std::move(att));
  }
  return list;
}

void AddToOracle(const std::vector<Att>& list, size_t offset, OracleMap* oracle) {
  for (const Att& att : list) {
    Oracle& entry = (*oracle)[att.id];
    if (att.columns.empty()) entry.whole_row = true;
    for (size_t c : att.columns) entry.columns.insert(c + offset);
  }
}

std::vector<Att> FromOracle(const OracleMap& oracle) {
  std::vector<Att> list;
  for (const auto& [id, entry] : oracle) {
    Att att{id, {}};
    if (!entry.whole_row) att.columns.assign(entry.columns.begin(), entry.columns.end());
    list.push_back(std::move(att));
  }
  return list;
}

// The layout rule: the fewest words that hold the highest covered column.
size_t ExpectedWords(const std::vector<Att>& entries) {
  size_t width = 0;
  for (const Att& att : entries) {
    if (!att.columns.empty()) width = std::max(width, att.columns.back() + 1);
  }
  return (width + 63) / 64;
}

void ExpectList(const AttachmentListPtr& list, const std::vector<Att>& expected) {
  EXPECT_EQ(Entries(list), expected);
  if (expected.empty()) {
    EXPECT_EQ(list, nullptr);
  } else {
    ASSERT_NE(list, nullptr);
    EXPECT_EQ(list->words(), ExpectedWords(expected));
  }
}

TEST(CoverageTest, NormalizeSortsAndDeduplicates) {
  std::vector<size_t> columns = {4, 1, 4, 0, 1};
  NormalizeCoverage(&columns);
  EXPECT_EQ(columns, (std::vector<size_t>{0, 1, 4}));
  std::vector<size_t> whole_row;
  NormalizeCoverage(&whole_row);
  EXPECT_TRUE(whole_row.empty());
}

TEST(CoverageTest, WholeRowAbsorbsColumnSets) {
  std::vector<size_t> columns = {1, 3};
  UnionCoverage(&columns, {0, 3});
  EXPECT_EQ(columns, (std::vector<size_t>{0, 1, 3}));
  UnionCoverage(&columns, {});
  EXPECT_TRUE(columns.empty());
  UnionCoverage(&columns, {2});
  EXPECT_TRUE(columns.empty());
}

TEST(CoverageTest, MasksHoldColumnsPastSixtyFour) {
  const std::vector<Att> entries = {{1, {0, 63, 64, 127, 128, 200}}, {5, {}}, {9, {70}}};
  const AttachmentListPtr list = MakeList(entries);
  ExpectList(list, entries);
  EXPECT_EQ(list->words(), 4u);
  EXPECT_FALSE(list->IsWholeRow(0));
  EXPECT_TRUE(list->IsWholeRow(1));
  EXPECT_EQ(MakeList({}), nullptr);
  EXPECT_EQ(MakeList({{3, {}}})->words(), 0u);
}

TEST(CoverageTest, UnionShiftsAcrossWordBoundaries) {
  const AttachmentListPtr left = MakeList({{1, {2}}, {4, {}}});
  const AttachmentListPtr right = MakeList({{1, {60}}, {3, {63}}, {4, {0}}, {6, {5}}});
  // Column 60 + 10 = 70 and 63 + 10 = 73 land in the second word.
  ExpectList(AttachmentList::Union(left, right, 10),
             {{1, {2, 70}}, {3, {73}}, {4, {}}, {6, {15}}});
  ExpectList(AttachmentList::Union(left, right, 64),
             {{1, {2, 124}}, {3, {127}}, {4, {}}, {6, {69}}});
  ExpectList(AttachmentList::Union(left, right, 1), {{1, {2, 61}}, {3, {64}}, {4, {}}, {6, {6}}});
  // A null side: the other list, shifted when it is the right one.
  EXPECT_EQ(AttachmentList::Union(left, nullptr, 7), left);
  EXPECT_EQ(AttachmentList::Union(nullptr, right), right);
  ExpectList(AttachmentList::Union(nullptr, MakeList({{2, {1}}}), 70), {{2, {71}}});
}

// Random attachment lists against a std::map union: ids on one side or
// both, whole-row entries on either side, shifted (join) columns that
// cross word boundaries, and every fourth round a list wholly above the
// other (the append path).
TEST(CoverageTest, UnionMatchesBruteForceMap) {
  Random rng(23);
  for (int round = 0; round < 1000; ++round) {
    const size_t width = round % 2 == 0 ? 6 : 150;
    const std::vector<Att> into = RandomList(&rng, width);
    const std::vector<Att> from = RandomList(&rng, width, round % 4 == 0 ? 40 : 0);
    const size_t offset = rng.Bernoulli(0.3) ? 0 : 1 + rng.Uniform(140);

    OracleMap oracle;
    AddToOracle(into, 0, &oracle);
    AddToOracle(from, offset, &oracle);

    SCOPED_TRACE("round=" + std::to_string(round) + " offset=" + std::to_string(offset));
    ExpectList(AttachmentList::Union(MakeList(into), MakeList(from), offset),
               FromOracle(oracle));
  }
}

// Projection against a brute-force remap: a random projection (items
// reading zero to two input columns, so one column can feed two outputs)
// over lists wider than one word, trimming or plumbing.
TEST(CoverageTest, ProjectMatchesBruteForceRemap) {
  Random rng(7);
  for (int round = 0; round < 1000; ++round) {
    const size_t in_columns = round % 2 == 0 ? 6 : 150;
    const size_t items = 1 + rng.Uniform(round % 2 == 0 ? 6 : 100);
    std::vector<std::vector<size_t>> refs(items);
    for (std::vector<size_t>& item : refs) {
      const size_t n = rng.Uniform(3);
      for (size_t i = 0; i < n; ++i) item.push_back(rng.Uniform(in_columns));
    }
    const bool trim = rng.Bernoulli(0.5);
    const std::vector<Att> input = RandomList(&rng, in_columns);
    std::vector<ann::AnnotationId> pending;
    for (ann::AnnotationId id = 1; id < 80; id += 1 + rng.Uniform(30)) {
      if (std::none_of(input.begin(), input.end(), [id](const Att& a) { return a.id == id; })) {
        pending.push_back(id);
      }
    }

    std::vector<Att> expected;
    std::vector<ann::AnnotationId> expected_trimmed = pending;
    for (const Att& att : input) {
      Att out{att.id, {}};
      for (size_t item = 0; item < items; ++item) {
        for (size_t c : refs[item]) {
          if (std::binary_search(att.columns.begin(), att.columns.end(), c)) {
            out.columns.push_back(item);
            break;
          }
        }
      }
      if (!att.columns.empty() && out.columns.empty() && trim) {
        expected_trimmed.push_back(att.id);
        continue;
      }
      expected.push_back(std::move(out));
    }
    std::sort(expected_trimmed.begin(), expected_trimmed.end());

    SCOPED_TRACE("round=" + std::to_string(round));
    std::vector<ann::AnnotationId> trimmed = pending;
    ExpectList(AttachmentList::Project(MakeList(input), core::ColumnMap::Of(in_columns, refs),
                                       trim, &trimmed),
               expected);
    EXPECT_EQ(trimmed, expected_trimmed);
  }
}

TEST(CoverageTest, ProjectTrimsOrDegradesDroppedCoverage) {
  // Input (a, b, c); output (c, a, c): column 2 feeds two positions.
  const core::ColumnMap map = core::ColumnMap::Of(3, {{2}, {0}, {2}});
  const AttachmentListPtr list = MakeList({{1, {1}}, {2, {2}}, {3, {}}, {4, {0, 1}}});
  std::vector<ann::AnnotationId> trimmed;
  ExpectList(AttachmentList::Project(list, map, /*trim=*/true, &trimmed),
             {{2, {0, 2}}, {3, {}}, {4, {1}}});
  EXPECT_EQ(trimmed, (std::vector<ann::AnnotationId>{1}));
  trimmed.clear();
  ExpectList(AttachmentList::Project(list, map, /*trim=*/false, &trimmed),
             {{1, {}}, {2, {0, 2}}, {3, {}}, {4, {1}}});
  EXPECT_TRUE(trimmed.empty());
  // A list of whole-row entries passes through as the same list.
  const AttachmentListPtr whole = MakeList({{5, {}}});
  EXPECT_EQ(AttachmentList::Project(whole, map, true, &trimmed), whole);
}

TEST(CoverageTest, WholeRowListHasNoWords) {
  const AttachmentListPtr list = MakeList({{1, {3}}, {2, {}}, {8, {70, 90}}});
  const AttachmentListPtr grouped = AttachmentList::WholeRow(list);
  ExpectList(grouped, {{1, {}}, {2, {}}, {8, {}}});
  EXPECT_EQ(grouped->words(), 0u);
  EXPECT_EQ(AttachmentList::WholeRow(grouped), grouped);
  EXPECT_EQ(AttachmentList::WholeRow(nullptr), nullptr);
}

// A group's Release merges all its lists in one k-way merge; the union is
// associative and commutative, so the result equals the sequential left
// fold (and the brute-force map) for any number of runs, whichever state
// folded them. Odd rounds give each run ids above the previous run's (no
// interleaving: each run is copied in one burst), the others overlap.
TEST(CoverageTest, ReleaseEqualsSequentialFold) {
  Random rng(31);
  for (int round = 0; round < 600; ++round) {
    const size_t runs = 1 + rng.Uniform(40);
    const size_t width = round % 4 < 2 ? 6 : 150;
    const bool interleave = round % 2 == 0;
    std::vector<std::vector<Att>> lists(runs);
    OracleMap oracle;
    AttachmentListPtr sequential;
    for (size_t k = 0; k < runs; ++k) {
      std::vector<Att>& list = lists[k];
      const uint64_t base = interleave ? rng.Uniform(60) : 40 * k;
      if (!rng.Bernoulli(0.1)) list = RandomList(&rng, width, base);
      AddToOracle(list, 0, &oracle);
      sequential = AttachmentList::Union(sequential, MakeList(list));
    }
    // Two partial states, split at a random run, combined in order.
    const size_t split = rng.Uniform(runs + 1);
    core::PartialSummaryState states[2];
    for (size_t part = 0; part < 2; ++part) {
      const size_t begin = part == 0 ? 0 : split;
      const size_t end = part == 0 ? split : runs;
      for (size_t k = begin; k < end; ++k) {
        core::AnnotatedTuple tuple;
        tuple.attachments = MakeList(lists[k]);
        if (k == begin) {
          ASSERT_TRUE(states[part].Seed(&tuple).ok());
        } else {
          ASSERT_TRUE(states[part].Fold(tuple).ok());
        }
      }
    }
    ASSERT_TRUE(states[0].Combine(std::move(states[1])).ok());
    core::AnnotatedTuple out;
    states[0].Release(&out);

    SCOPED_TRACE("round=" + std::to_string(round) + " runs=" + std::to_string(runs));
    ExpectList(out.attachments, FromOracle(oracle));
    EXPECT_EQ(Entries(out.attachments), Entries(sequential));
  }
}

// UnionAll skips nulls, returns a list that came in alone (however often)
// as it is, and otherwise equals the pairwise fold, also when one list
// comes in several times among others.
TEST(CoverageTest, UnionAllMatchesPairwiseFold) {
  EXPECT_EQ(AttachmentList::UnionAll({}), nullptr);
  const AttachmentListPtr one = MakeList({{1, {0}}, {4, {}}});
  const AttachmentListPtr lists[] = {nullptr, one, nullptr, one};
  EXPECT_EQ(AttachmentList::UnionAll(lists), one);
  Random rng(57);
  for (int round = 0; round < 300; ++round) {
    std::vector<AttachmentListPtr> runs;
    AttachmentListPtr folded;
    const size_t n = 1 + rng.Uniform(12);
    for (size_t k = 0; k < n; ++k) {
      AttachmentListPtr list = !runs.empty() && rng.Bernoulli(0.2)
                                   ? runs[rng.Uniform(runs.size())]
                                   : MakeList(RandomList(&rng, 70, rng.Uniform(50)));
      folded = AttachmentList::Union(folded, list);
      runs.push_back(std::move(list));
    }
    SCOPED_TRACE("round=" + std::to_string(round));
    const AttachmentListPtr all = AttachmentList::UnionAll(runs);
    EXPECT_EQ(Entries(all), Entries(folded));
    if (folded != nullptr) {
      ASSERT_NE(all, nullptr);
      EXPECT_EQ(all->words(), folded->words());
    }
  }
}

}  // namespace
}  // namespace insightnotes
