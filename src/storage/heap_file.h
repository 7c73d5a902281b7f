// HeapFile: an unordered collection of variable-length records stored in
// slotted pages through the buffer pool. Records larger than a page spill
// into overflow-page chains (annotation attachments can be multi-KB
// documents). RecordIds (page, slot) are stable handles.

#ifndef INSIGHTNOTES_STORAGE_HEAP_FILE_H_
#define INSIGHTNOTES_STORAGE_HEAP_FILE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace insightnotes::storage {

struct RecordId {
  PageId page = kInvalidPageId;
  SlotId slot = 0;

  bool valid() const { return page != kInvalidPageId; }
  friend bool operator==(const RecordId&, const RecordId&) = default;
};

/// Heap file over a shared buffer pool. Multiple heap files may share one
/// pool/disk (each tracks its own page list). Thread-safe: a per-file
/// shared_mutex is held across page-byte access — exclusively by mutators
/// (Append/Delete rewrite slot directories), shared by Get/Scan — so
/// readers never observe a half-written slot. Lock order is file latch →
/// pool mutex (the latch is acquired before any FetchPage/NewPage call).
class HeapFile {
 public:
  explicit HeapFile(BufferPool* pool) : pool_(pool) {}

  HeapFile(const HeapFile&) = delete;
  HeapFile& operator=(const HeapFile&) = delete;

  /// Appends a record, returning its stable id.
  Result<RecordId> Append(std::string_view record);

  /// Reads the record at `rid` (resolving overflow chains).
  Result<std::string> Get(const RecordId& rid) const;

  /// Tombstones the record at `rid`. A spilled record's overflow pages go
  /// on the file's free list, which later spills take pages from before
  /// growing the file. The list lives in memory and starts empty at open.
  /// Deleting a tombstoned slot is an error and frees nothing.
  Status Delete(const RecordId& rid);

  /// Invokes `fn(rid, bytes)` for every live record in storage order.
  /// Iteration stops early if `fn` returns false.
  Status Scan(const std::function<bool(const RecordId&, std::string_view)>& fn) const;

  uint64_t num_records() const {
    return num_records_.load(std::memory_order_relaxed);
  }
  size_t num_data_pages() const {
    std::shared_lock<std::shared_mutex> lock(latch_);
    return pages_.size();
  }

 private:
  // Every in-page payload starts with a tag byte distinguishing an inline
  // record from a spilled-record stub:
  //   inline:   [kInlineTag] [record bytes]
  //   overflow: [kOverflowTag] [total_len (u32)] [first overflow page (u32)]
  static constexpr char kInlineTag = 0;
  static constexpr char kOverflowTag = 1;
  // Records at or below this length are stored inline.
  static constexpr size_t kMaxInlineRecord = kPageSize - 64;

  struct OverflowHeader {
    PageId next;
    uint32_t length;  // Payload bytes in this page.
  };
  // Overflow pages reserve the disk layer's checksum word like every page.
  static constexpr size_t kOverflowPayload =
      kPageSize - kPageDataOffset - sizeof(OverflowHeader);

  Result<RecordId> AppendInline(std::string_view record);
  Result<RecordId> AppendOverflow(std::string_view record);
  /// Called per page of an overflow chain, in order: the record's total
  /// length, the page, and the record bytes it holds.
  using OverflowVisitor =
      std::function<void(uint32_t total, PageId page, std::string_view payload)>;
  /// Walks the chain `stub` points to, checking each page's payload length
  /// and that the chain holds exactly the stub's total.
  Status VisitOverflow(std::string_view stub, const OverflowVisitor& visit) const;
  Result<std::string> ReadOverflow(std::string_view stub) const;
  /// A page for one overflow chunk: a freed one if any, else a new one.
  Result<PageGuard> NewOverflowPage();

  BufferPool* pool_;
  // Guards pages_ and all slot-directory bytes this file touches.
  mutable std::shared_mutex latch_;
  std::vector<PageId> pages_;  // Data pages in append order.
  // Overflow pages of deleted records, reused by AppendOverflow.
  std::vector<PageId> free_overflow_pages_;
  std::atomic<uint64_t> num_records_{0};
};

}  // namespace insightnotes::storage

#endif  // INSIGHTNOTES_STORAGE_HEAP_FILE_H_
