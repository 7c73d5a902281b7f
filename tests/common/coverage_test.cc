#include "common/coverage.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/random.h"

namespace insightnotes {
namespace {

struct Att {
  uint64_t id = 0;
  std::vector<size_t> columns;

  friend bool operator==(const Att&, const Att&) = default;
};

// Coverage as a brute-force oracle keeps it: id -> column set, where
// "whole row" is its own flag instead of the empty set.
struct Oracle {
  bool whole_row = false;
  std::set<size_t> columns;
};

// Ascending, duplicate-free ids from [base, base + 40), each with a random
// column set over 6 columns; about one in four is whole-row.
std::vector<Att> RandomList(Random* rng, uint64_t base = 0) {
  std::vector<Att> list;
  for (uint64_t id = base; id < base + 40; ++id) {
    if (!rng->Bernoulli(0.3)) continue;
    Att att{id, {}};
    if (!rng->Bernoulli(0.25)) {
      const size_t n = 1 + rng->Uniform(3);
      for (size_t i = 0; i < n; ++i) att.columns.push_back(rng->Uniform(6));
      NormalizeCoverage(&att.columns);
    }
    list.push_back(std::move(att));
  }
  return list;
}

void AddToOracle(const std::vector<Att>& list, size_t offset,
                 std::map<uint64_t, Oracle>* oracle) {
  for (const Att& att : list) {
    Oracle& entry = (*oracle)[att.id];
    if (att.columns.empty()) entry.whole_row = true;
    for (size_t c : att.columns) entry.columns.insert(c + offset);
  }
}

std::vector<Att> FromOracle(const std::map<uint64_t, Oracle>& oracle) {
  std::vector<Att> list;
  for (const auto& [id, entry] : oracle) {
    Att att{id, {}};
    if (!entry.whole_row) att.columns.assign(entry.columns.begin(), entry.columns.end());
    list.push_back(std::move(att));
  }
  return list;
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

// Random attachment lists against a std::map union: ids on one side or
// both, whole-row entries on either side, shifted (join) columns, and every
// fourth round a list wholly above the other (the append path).
TEST(CoverageTest, UnionAttachmentsMatchesBruteForceMap) {
  Random rng(23);
  for (int round = 0; round < 500; ++round) {
    std::vector<Att> into = RandomList(&rng);
    const std::vector<Att> from = RandomList(&rng, round % 4 == 0 ? 40 : 0);
    const size_t offset = rng.Bernoulli(0.5) ? 0 : 1 + rng.Uniform(6);

    std::map<uint64_t, Oracle> oracle;
    AddToOracle(into, 0, &oracle);
    AddToOracle(from, offset, &oracle);

    UnionAttachments(&into, from, offset);
    ASSERT_EQ(into, FromOracle(oracle)) << "round=" << round << " offset=" << offset;
  }
}

}  // namespace
}  // namespace insightnotes
