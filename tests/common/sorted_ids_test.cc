#include "common/sorted_ids.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "common/random.h"

namespace insightnotes {
namespace {

// Ascending, duplicate-free ids drawn from [0, universe) with density `p`.
std::vector<uint64_t> RandomIds(Random* rng, uint64_t universe, double p) {
  std::vector<uint64_t> ids;
  for (uint64_t id = 0; id < universe; ++id) {
    if (rng->Bernoulli(p)) ids.push_back(id);
  }
  return ids;
}

// Sparse and dense id sets against lists of every length up to 300, so
// the galloping search hits both its short-step and long-step paths.
TEST(SortedIdsTest, MatchesStandardSetAlgorithms) {
  Random rng(17);
  for (int round = 0; round < 300; ++round) {
    std::vector<uint64_t> items = RandomIds(&rng, 600, rng.NextDouble());
    std::vector<uint64_t> ids = RandomIds(&rng, 600, rng.Bernoulli(0.5) ? 0.01 : 0.5);
    std::span<const uint64_t> id_span(ids);

    size_t from = items.empty() ? 0 : rng.Uniform(items.size() + 1);
    uint64_t probe = rng.Uniform(650);
    size_t expected_pos = std::max(
        from, static_cast<size_t>(std::lower_bound(items.begin(), items.end(), probe) -
                                  items.begin()));
    EXPECT_EQ(GallopSorted(items, from, probe), expected_pos);

    std::vector<uint64_t> common;
    std::set_intersection(items.begin(), items.end(), ids.begin(), ids.end(),
                          std::back_inserter(common));
    EXPECT_EQ(IntersectsSorted(items, id_span), !common.empty());

    std::vector<uint64_t> all;
    std::set_union(items.begin(), items.end(), ids.begin(), ids.end(),
                   std::back_inserter(all));
    std::vector<uint64_t> united = items;
    UnionSorted(&united, ids);
    EXPECT_EQ(united, all);
  }
}

}  // namespace
}  // namespace insightnotes
