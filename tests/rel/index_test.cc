// rel::TableIndex — a table's secondary index, backed by a B+-tree over an
// in-memory index file — plus the Value comparators of rel/value.h. The
// tree's own ordering, range and remove behaviour is property-tested in
// btree_test.cc; these cases pin the probe contracts the planner relies on.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "rel/btree.h"
#include "rel/table.h"
#include "rel/value.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace insightnotes::rel {
namespace {

Value I(int64_t v) { return Value(v); }

class TableIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(disk_.Open("").ok());
    pool_ = std::make_unique<storage::BufferPool>(&disk_, 16);
    store_ = std::make_unique<BTreeStore>(pool_.get(), BTreeStoreMeta{},
                                          /*max_node_entries=*/6);
    auto tree = BTree::Create(store_.get());
    ASSERT_TRUE(tree.ok()) << tree.status();
    index_ = std::make_unique<TableIndex>(std::move(*tree));
  }

  std::vector<RowId> Lookup(const Value& key) const {
    std::vector<RowId> out;
    EXPECT_TRUE(index_->LookupInto(key, &out).ok());
    return out;
  }

  std::vector<RowId> Range(const Value* lo, const Value* hi) const {
    std::vector<RowId> out;
    EXPECT_TRUE(index_->RangeInto(lo, hi, &out).ok());
    return out;
  }

  storage::DiskManager disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<BTreeStore> store_;
  std::unique_ptr<TableIndex> index_;
};

TEST_F(TableIndexTest, RemoveSpecificPairing) {
  index_->Insert(I(5), 1);
  index_->Insert(I(5), 2);
  index_->Remove(I(5), 1);
  EXPECT_EQ(Lookup(I(5)), (std::vector<RowId>{2}));
  EXPECT_TRUE(index_->tree()->RemoveForRow(I(5), 99).IsNotFound());
  EXPECT_TRUE(index_->tree()->RemoveForRow(I(6), 2).IsNotFound());
  index_->Remove(I(5), 2);
  EXPECT_EQ(index_->NumEntries(), 0u);
  EXPECT_TRUE(index_->usable());
}

TEST_F(TableIndexTest, RemovingMissingPairingBreaksTheIndex) {
  index_->Insert(I(5), 1);
  // A missing entry means the tree diverged from the heap: the index stops
  // answering instead of failing the row mutation.
  index_->Remove(I(5), 99);
  EXPECT_FALSE(index_->usable());
  EXPECT_TRUE(index_->broken_status().IsNotFound());
  std::vector<RowId> out;
  EXPECT_TRUE(index_->LookupInto(I(5), &out).IsNotFound());
  EXPECT_TRUE(out.empty());
}

TEST_F(TableIndexTest, NumericKeyCoercion) {
  index_->Insert(I(5), 1);
  // 5.0 must find the int key 5 (Value equality/hash coercion contract).
  EXPECT_EQ(Lookup(Value(5.0)), (std::vector<RowId>{1}));
}

TEST_F(TableIndexTest, UnboundedRanges) {
  for (int64_t i = 0; i < 5; ++i) index_->Insert(I(i), static_cast<RowId>(i));
  Value hi = I(1);
  EXPECT_EQ(Range(nullptr, &hi), (std::vector<RowId>{0, 1}));
  Value lo = I(3);
  EXPECT_EQ(Range(&lo, nullptr), (std::vector<RowId>{3, 4}));
  EXPECT_EQ(Range(nullptr, nullptr).size(), 5u);
}

TEST(ValueLessTest, MixedTypesHaveTotalOrder) {
  ValueLess less;
  Value null = Value::Null();
  Value num = I(5);
  Value str = Value("a");
  EXPECT_TRUE(less(null, num));
  EXPECT_TRUE(less(num, str));
  EXPECT_TRUE(less(null, str));
  EXPECT_FALSE(less(str, num));
  EXPECT_FALSE(less(num, num));
  // Strict weak ordering sanity: !(a<b) && !(b<a) for equal values.
  EXPECT_FALSE(less(I(5), Value(5.0)));
  EXPECT_FALSE(less(Value(5.0), I(5)));
}

TEST_F(TableIndexTest, LookupIntoAppendsToExistingRows) {
  index_->Insert(I(1), 10);
  index_->Insert(I(2), 20);
  std::vector<RowId> out = {99};
  ASSERT_TRUE(index_->LookupInto(I(1), &out).ok());
  EXPECT_EQ(out, (std::vector<RowId>{99, 10}));
  ASSERT_TRUE(index_->LookupInto(I(7), &out).ok());  // Miss appends nothing.
  EXPECT_EQ(out, (std::vector<RowId>{99, 10}));
}

TEST_F(TableIndexTest, RangeIntoAppendsToExistingRows) {
  for (int64_t i = 0; i < 5; ++i) index_->Insert(I(i), static_cast<RowId>(i));
  std::vector<RowId> out = {99};
  Value lo = I(1), hi = I(3);
  ASSERT_TRUE(index_->RangeInto(&lo, &hi, &out).ok());
  EXPECT_EQ(out, (std::vector<RowId>{99, 1, 2, 3}));
  ASSERT_TRUE(index_->LookupInto(I(4), &out).ok());
  EXPECT_EQ(out, (std::vector<RowId>{99, 1, 2, 3, 4}));
}

// Reversed bounds (hi < lo) yield an empty result and leave the output
// untouched, for same-type and cross-type reversals alike (the planner
// widens strict bounds but never reorders user-supplied constants).
TEST_F(TableIndexTest, ReversedBoundsYieldEmpty) {
  for (int64_t i = 0; i < 10; ++i) index_->Insert(I(i), static_cast<RowId>(i));
  index_->Insert(Value("z"), 100);
  Value lo = I(7), hi = I(2);
  EXPECT_TRUE(Range(&lo, &hi).empty());
  std::vector<RowId> out = {99};
  ASSERT_TRUE(index_->RangeInto(&lo, &hi, &out).ok());
  EXPECT_EQ(out, (std::vector<RowId>{99}));  // Untouched, not grown.
  Value slo = Value("z"), shi = I(5);  // Cross-type: string > every int.
  ASSERT_TRUE(index_->RangeInto(&slo, &shi, &out).ok());
  EXPECT_EQ(out, (std::vector<RowId>{99}));
  Value eq = I(4);  // Equal bounds are NOT reversed: inclusive singleton.
  ASSERT_TRUE(index_->RangeInto(&eq, &eq, &out).ok());
  EXPECT_EQ(out, (std::vector<RowId>{99, 4}));
}

}  // namespace
}  // namespace insightnotes::rel
