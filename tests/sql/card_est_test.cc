// Hand-checked cardinality estimates: default selectivities without
// statistics, NDV/histogram-driven selectivities with them, join-size
// estimation, and the annotation-count distribution behind SUMMARY_COUNT
// predicates.

#include "sql/card_est.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rel/stats.h"
#include "sql/parser.h"
#include "testutil.h"

namespace insightnotes::sql {
namespace {

using testutil::I;
using testutil::S;

class CardEstTest : public ::testing::Test {
 protected:
  CardEstTest()
      : schema_(rel::Schema({{"a", rel::ValueType::kInt64, "t"},
                             {"s", rel::ValueType::kString, "t"}})) {}

  /// Parses one WHERE predicate and hands back its AST.
  AstExprPtr Where(const std::string& predicate) {
    auto statement = Parse("SELECT t.a FROM t t WHERE " + predicate);
    EXPECT_TRUE(statement.ok()) << statement.status().ToString();
    auto select = std::move(std::get<SelectStatement>(*statement));
    EXPECT_NE(select.where, nullptr);
    return std::move(select.where);
  }

  double Sel(const std::string& predicate, const rel::TableStats* stats) {
    AstExprPtr pred = Where(predicate);
    return EstimateSelectivity(*pred, schema_, stats);
  }

  /// Stats for t(a, s) with a = 0..99 (distinct) and s cycling 10 strings.
  rel::TableStats UniformStats() {
    rel::TableStats stats;
    stats.row_count = 100;
    std::vector<rel::Value> a_values, s_values;
    for (int64_t i = 0; i < 100; ++i) {
      a_values.push_back(I(i));
      s_values.push_back(S("s" + std::to_string(i % 10)));
    }
    stats.columns.push_back(rel::BuildColumnStats(std::move(a_values)));
    stats.columns.push_back(rel::BuildColumnStats(std::move(s_values)));
    return stats;
  }

  /// Like UniformStats but with a = 10..109, so literals below 10 are
  /// provably out of range without needing negative literals.
  rel::TableStats ShiftedStats() {
    rel::TableStats stats;
    stats.row_count = 100;
    std::vector<rel::Value> values;
    for (int64_t i = 10; i < 110; ++i) values.push_back(I(i));
    stats.columns.push_back(rel::BuildColumnStats(std::move(values)));
    stats.columns.push_back(rel::ColumnStats{});
    return stats;
  }

  rel::Schema schema_;
};

TEST_F(CardEstTest, DefaultsWithoutStats) {
  EXPECT_DOUBLE_EQ(Sel("t.a = 5", nullptr), kDefaultEqSelectivity);
  EXPECT_DOUBLE_EQ(Sel("t.a < 5", nullptr), kDefaultRangeSelectivity);
  EXPECT_DOUBLE_EQ(Sel("t.a >= 5", nullptr), kDefaultRangeSelectivity);
  EXPECT_DOUBLE_EQ(Sel("t.a != 5", nullptr), 1.0 - kDefaultEqSelectivity);
  // Conjunction multiplies, disjunction inclusion-excludes, NOT complements.
  EXPECT_DOUBLE_EQ(Sel("t.a = 5 AND t.a < 9", nullptr), 0.1 * 0.3);
  EXPECT_DOUBLE_EQ(Sel("t.a = 5 OR t.a < 9", nullptr), 0.1 + 0.3 - 0.1 * 0.3);
  EXPECT_DOUBLE_EQ(Sel("NOT t.a = 5", nullptr), 0.9);
  // Shapes with no column-vs-literal normal form fall back by operator.
  EXPECT_DOUBLE_EQ(Sel("t.a + 1 = 5", nullptr), kDefaultEqSelectivity);
}

TEST_F(CardEstTest, EqualitySelectivityFromNdv) {
  rel::TableStats stats = UniformStats();
  // 100 distinct values, no nulls: 1/ndv of the full mass.
  EXPECT_NEAR(Sel("t.a = 50", &stats), 0.01, 1e-9);
  EXPECT_NEAR(Sel("50 = t.a", &stats), 0.01, 1e-9);
  // Outside [min, max]: provably empty. (A negative literal parses as the
  // arithmetic 0 - k, so the below-min probe uses a shifted domain.)
  EXPECT_DOUBLE_EQ(Sel("t.a = 200", &stats), 0.0);
  rel::TableStats shifted = ShiftedStats();
  EXPECT_DOUBLE_EQ(Sel("t.a = 5", &shifted), 0.0);
  // String column: 10 distinct values.
  EXPECT_NEAR(Sel("t.s = 's3'", &stats), 0.1, 1e-9);
}

TEST_F(CardEstTest, RangeSelectivityFromHistogram) {
  rel::TableStats stats = UniformStats();
  // Uniform 0..99: the equi-depth histogram puts ~half the mass below 50.
  EXPECT_NEAR(Sel("t.a < 50", &stats), 0.5, 0.05);
  EXPECT_NEAR(Sel("t.a >= 90", &stats), 0.1, 0.05);
  EXPECT_NEAR(Sel("t.a > 25 AND t.a < 75", &stats), 0.5, 0.07);
  // Literal-on-the-left flips the operator: 50 > t.a == t.a < 50.
  EXPECT_NEAR(Sel("50 > t.a", &stats), 0.5, 0.05);
  // Ranges subsuming the whole domain / fully below it.
  EXPECT_NEAR(Sel("t.a <= 99", &stats), 1.0, 0.02);
  rel::TableStats shifted = ShiftedStats();
  EXPECT_DOUBLE_EQ(Sel("t.a < 5", &shifted), 0.0);
}

TEST_F(CardEstTest, NullFractionScalesEstimates) {
  rel::TableStats stats;
  stats.row_count = 100;
  std::vector<rel::Value> values;
  for (int64_t i = 0; i < 50; ++i) values.push_back(I(i));
  for (int64_t i = 0; i < 50; ++i) values.emplace_back();
  stats.columns.push_back(rel::BuildColumnStats(std::move(values)));
  stats.columns.push_back(rel::ColumnStats{});
  // Half the rows are NULL and never satisfy a comparison: eq selectivity
  // is (1/50 distinct) * (0.5 non-null) of ALL rows.
  EXPECT_NEAR(Sel("t.a = 10", &stats), 0.01, 1e-9);
  EXPECT_NEAR(Sel("t.a < 25", &stats), 0.25, 0.05);
}

TEST_F(CardEstTest, BuildColumnStatsProperties) {
  std::vector<rel::Value> values = {I(5), I(1), I(9), I(1), rel::Value(), I(5)};
  rel::ColumnStats stats = rel::BuildColumnStats(std::move(values), 4);
  EXPECT_EQ(stats.non_null_count, 5u);
  EXPECT_EQ(stats.null_count, 1u);
  EXPECT_EQ(stats.ndv, 3u);  // {1, 5, 9}.
  EXPECT_EQ(stats.min.AsInt64(), 1);
  EXPECT_EQ(stats.max.AsInt64(), 9);
  ASSERT_FALSE(stats.bounds.empty());
  EXPECT_EQ(stats.bounds.front().AsInt64(), 1);
  EXPECT_EQ(stats.bounds.back().AsInt64(), 9);
  EXPECT_DOUBLE_EQ(stats.NonNullFraction(), 5.0 / 6.0);
}

TEST_F(CardEstTest, JoinRowEstimates) {
  // |L| * |R| / max(ndv): a key-foreign-key join keeps the fact side.
  EXPECT_DOUBLE_EQ(EstimateJoinRows(1000, 100, 50, 100), 1000.0);
  // NDVs clamp to the side's row count (can't have more distincts than rows).
  EXPECT_DOUBLE_EQ(EstimateJoinRows(10, 10, 1000, 1000), 10.0);
  // Degenerate inputs stay finite; unknown NDVs floor at 1 (cross-like).
  EXPECT_DOUBLE_EQ(EstimateJoinRows(0, 100, 10, 10), 0.0);
  EXPECT_DOUBLE_EQ(EstimateJoinRows(100, 100, 0, 0), 100.0 * 100.0);
}

TEST_F(CardEstTest, ColumnNdvFallsBackToRowCount) {
  rel::TableStats stats = UniformStats();
  EXPECT_DOUBLE_EQ(ColumnNdv(schema_, "t.a", &stats, 7.0), 100.0);
  EXPECT_DOUBLE_EQ(ColumnNdv(schema_, "t.s", &stats, 7.0), 10.0);
  EXPECT_DOUBLE_EQ(ColumnNdv(schema_, "t.a", nullptr, 7.0), 7.0);
  EXPECT_DOUBLE_EQ(ColumnNdv(schema_, "t.ghost", &stats, 7.0), 7.0);
}

TEST_F(CardEstTest, AnnCountSelectivity) {
  rel::TableStats stats;
  stats.ann_count_freq = {{0, 80}, {1, 15}, {2, 5}};
  EXPECT_DOUBLE_EQ(stats.AnnCountSelectivity(rel::CompareOp::kGt, 0), 0.20);
  EXPECT_DOUBLE_EQ(stats.AnnCountSelectivity(rel::CompareOp::kEq, 1), 0.15);
  EXPECT_DOUBLE_EQ(stats.AnnCountSelectivity(rel::CompareOp::kLe, 1), 0.95);
  EXPECT_DOUBLE_EQ(stats.AnnCountSelectivity(rel::CompareOp::kGe, 2), 0.05);
  EXPECT_DOUBLE_EQ(stats.AnnCountSelectivity(rel::CompareOp::kNe, 0), 0.20);
  // No distribution recorded: agnostic.
  rel::TableStats empty;
  EXPECT_DOUBLE_EQ(empty.AnnCountSelectivity(rel::CompareOp::kGt, 0), 0.5);
}

}  // namespace
}  // namespace insightnotes::sql
