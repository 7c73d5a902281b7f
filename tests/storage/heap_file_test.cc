#include "storage/heap_file.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/random.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace insightnotes::storage {
namespace {

class HeapFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(disk_.Open("").ok());
    pool_ = std::make_unique<BufferPool>(&disk_, 16);
    heap_ = std::make_unique<HeapFile>(pool_.get());
  }
  DiskManager disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<HeapFile> heap_;
};

TEST_F(HeapFileTest, AppendAndGet) {
  auto rid = heap_->Append("an annotation about swans");
  ASSERT_TRUE(rid.ok());
  auto got = heap_->Get(*rid);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "an annotation about swans");
  EXPECT_EQ(heap_->num_records(), 1u);
}

TEST_F(HeapFileTest, ManyRecordsSpanPages) {
  std::map<int, RecordId> rids;
  for (int i = 0; i < 500; ++i) {
    auto rid = heap_->Append("record payload number " + std::to_string(i));
    ASSERT_TRUE(rid.ok());
    rids[i] = *rid;
  }
  EXPECT_GT(heap_->num_data_pages(), 1u);
  for (const auto& [i, rid] : rids) {
    auto got = heap_->Get(rid);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, "record payload number " + std::to_string(i));
  }
}

TEST_F(HeapFileTest, OverflowRecordRoundTrips) {
  // ~3 pages worth of document (a "large attached article").
  std::string article;
  Random rng(5);
  while (article.size() < 3 * kPageSize + 123) {
    article += "sentence " + std::to_string(rng.NextUint64() % 1000) + " about bird behavior. ";
  }
  auto rid = heap_->Append(article);
  ASSERT_TRUE(rid.ok());
  auto got = heap_->Get(*rid);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, article);
}

TEST_F(HeapFileTest, OverflowBoundaryExactMultiple) {
  // Exercise the exact-chunk-multiple edge in the overflow writer.
  // 2 * kOverflowPayload: page minus checksum word minus overflow header.
  std::string payload(2 * (kPageSize - kPageDataOffset - 8), 'q');
  auto rid = heap_->Append(payload);
  ASSERT_TRUE(rid.ok());
  auto got = heap_->Get(*rid);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), payload.size());
  EXPECT_EQ(*got, payload);
}

TEST_F(HeapFileTest, DeleteHidesRecordFromScan) {
  auto a = heap_->Append("keep me");
  auto b = heap_->Append("delete me");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(heap_->Delete(*b).ok());
  EXPECT_TRUE(heap_->Get(*b).status().IsNotFound());
  int count = 0;
  ASSERT_TRUE(heap_
                  ->Scan([&](const RecordId&, std::string_view bytes) {
                    EXPECT_EQ(bytes, "keep me");
                    ++count;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(count, 1);
  EXPECT_EQ(heap_->num_records(), 1u);
}

TEST_F(HeapFileTest, ScanVisitsAllInOrder) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(heap_->Append("r" + std::to_string(i)).ok());
  }
  int next = 0;
  ASSERT_TRUE(heap_
                  ->Scan([&](const RecordId&, std::string_view bytes) {
                    EXPECT_EQ(bytes, "r" + std::to_string(next));
                    ++next;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(next, 50);
}

TEST_F(HeapFileTest, ScanEarlyStop) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(heap_->Append("x").ok());
  }
  int seen = 0;
  ASSERT_TRUE(heap_
                  ->Scan([&](const RecordId&, std::string_view) {
                    ++seen;
                    return seen < 3;
                  })
                  .ok());
  EXPECT_EQ(seen, 3);
}

TEST_F(HeapFileTest, ScanResolvesOverflowRecords) {
  std::string big(kPageSize * 2, 'B');
  ASSERT_TRUE(heap_->Append("small").ok());
  ASSERT_TRUE(heap_->Append(big).ok());
  std::vector<size_t> sizes;
  ASSERT_TRUE(heap_
                  ->Scan([&](const RecordId&, std::string_view bytes) {
                    sizes.push_back(bytes.size());
                    return true;
                  })
                  .ok());
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], 5u);
  EXPECT_EQ(sizes[1], big.size());
}

TEST_F(HeapFileTest, TwoHeapFilesShareOnePool) {
  HeapFile other(pool_.get());
  auto a = heap_->Append("mine");
  auto b = other.Append("yours");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*heap_->Get(*a), "mine");
  EXPECT_EQ(*other.Get(*b), "yours");
  int count = 0;
  ASSERT_TRUE(heap_->Scan([&](const RecordId&, std::string_view) {
    ++count;
    return true;
  }).ok());
  EXPECT_EQ(count, 1);
}

TEST_F(HeapFileTest, EmptyRecord) {
  auto rid = heap_->Append("");
  ASSERT_TRUE(rid.ok());
  auto got = heap_->Get(*rid);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "");
}

// A deleted record's overflow chain is reused by the next spill: the file
// does not grow, and both the reused and the untouched records read back.
TEST_F(HeapFileTest, DeletedOverflowChainIsReused) {
  const std::string first(3 * kPageSize, 'a');
  const std::string keep(2 * kPageSize, 'k');
  auto a = heap_->Append(first);
  auto k = heap_->Append(keep);
  ASSERT_TRUE(a.ok() && k.ok());
  const uint32_t pages = disk_.num_pages();
  ASSERT_TRUE(heap_->Delete(*a).ok());
  EXPECT_TRUE(heap_->Get(*a).status().IsNotFound());

  // Up to the freed page count, spills take freed pages only.
  const std::string second(3 * kPageSize - 200, 'b');
  auto b = heap_->Append(second);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(disk_.num_pages(), pages);
  auto got_b = heap_->Get(*b);
  auto got_k = heap_->Get(*k);
  ASSERT_TRUE(got_b.ok() && got_k.ok());
  EXPECT_EQ(*got_b, second);
  EXPECT_EQ(*got_k, keep);

  // Past the freed pages, spills grow the file again.
  auto c = heap_->Append(std::string(2 * kPageSize, 'c'));
  ASSERT_TRUE(c.ok());
  EXPECT_GT(disk_.num_pages(), pages);
}

// Deleting a tombstoned slot is an error and frees nothing: the chain is
// put on the free list once, so no page is ever handed to two records.
TEST_F(HeapFileTest, DoubleDeleteFreesNothing) {
  auto a = heap_->Append(std::string(2 * kPageSize, 'a'));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(heap_->Delete(*a).ok());
  EXPECT_FALSE(heap_->Delete(*a).ok());
  EXPECT_EQ(heap_->num_records(), 0u);

  const uint32_t pages = disk_.num_pages();
  auto b = heap_->Append(std::string(2 * kPageSize, 'b'));  // Takes the freed chain.
  auto c = heap_->Append(std::string(2 * kPageSize, 'c'));  // Must grow the file.
  ASSERT_TRUE(b.ok() && c.ok());
  EXPECT_GT(disk_.num_pages(), pages);
  auto got_b = heap_->Get(*b);
  auto got_c = heap_->Get(*c);
  ASSERT_TRUE(got_b.ok() && got_c.ok());
  EXPECT_EQ(*got_b, std::string(2 * kPageSize, 'b'));
  EXPECT_EQ(*got_c, std::string(2 * kPageSize, 'c'));
}

// Deleting an inline record frees no overflow page.
TEST_F(HeapFileTest, DeleteInlineRecordFreesNoPage) {
  auto small = heap_->Append("short note");
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(heap_->Delete(*small).ok());
  const uint32_t pages = disk_.num_pages();
  auto big = heap_->Append(std::string(kPageSize, 'x'));
  ASSERT_TRUE(big.ok());
  EXPECT_GT(disk_.num_pages(), pages);
}

}  // namespace
}  // namespace insightnotes::storage
