#include "storage/heap_file.h"

#include <cstring>

namespace insightnotes::storage {

Result<RecordId> HeapFile::Append(std::string_view record) {
  std::unique_lock<std::shared_mutex> lock(latch_);
  if (record.size() > kMaxInlineRecord) {
    return AppendOverflow(record);
  }
  std::string tagged;
  tagged.reserve(record.size() + 1);
  tagged.push_back(kInlineTag);
  tagged.append(record);
  return AppendInline(tagged);
}

// Called with latch_ held exclusively.
Result<RecordId> HeapFile::AppendInline(std::string_view record) {
  if (!pages_.empty()) {
    PageId last = pages_.back();
    INSIGHTNOTES_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(last));
    SlottedPage page(guard.MutableData());
    if (page.HasRoomFor(record.size())) {
      INSIGHTNOTES_ASSIGN_OR_RETURN(SlotId slot, page.Insert(record));
      num_records_.fetch_add(1, std::memory_order_relaxed);
      return RecordId{last, slot};
    }
  }
  INSIGHTNOTES_ASSIGN_OR_RETURN(PageGuard guard, pool_->NewPage());
  SlottedPage page(guard.MutableData());
  page.Initialize();
  INSIGHTNOTES_ASSIGN_OR_RETURN(SlotId slot, page.Insert(record));
  pages_.push_back(guard.page_id());
  num_records_.fetch_add(1, std::memory_order_relaxed);
  return RecordId{guard.page_id(), slot};
}

Result<RecordId> HeapFile::AppendOverflow(std::string_view record) {
  // Write the chain back-to-front so each page knows its successor.
  PageId next = kInvalidPageId;
  // Chunk boundaries: the final chunk may be short; all chunks are written
  // front-to-back in the record but allocated back-to-front here.
  size_t num_chunks = (record.size() + kOverflowPayload - 1) / kOverflowPayload;
  for (size_t chunk = num_chunks; chunk-- > 0;) {
    size_t begin = chunk * kOverflowPayload;
    size_t len = std::min(kOverflowPayload, record.size() - begin);
    INSIGHTNOTES_ASSIGN_OR_RETURN(PageGuard guard, NewOverflowPage());
    char* data = guard.MutableData() + kPageDataOffset;
    OverflowHeader header{next, static_cast<uint32_t>(len)};
    std::memcpy(data, &header, sizeof(header));
    std::memcpy(data + sizeof(header), record.data() + begin, len);
    next = guard.page_id();
  }

  char stub[1 + sizeof(uint32_t) + sizeof(PageId)];
  stub[0] = kOverflowTag;
  auto total = static_cast<uint32_t>(record.size());
  std::memcpy(stub + 1, &total, sizeof(total));
  std::memcpy(stub + 1 + sizeof(total), &next, sizeof(next));
  return AppendInline(std::string_view(stub, sizeof(stub)));
}

// Called with latch_ held exclusively.
Result<PageGuard> HeapFile::NewOverflowPage() {
  if (free_overflow_pages_.empty()) return pool_->NewPage();
  // A freed page's bytes are dead: pin it zero-filled, as NewPage would,
  // without reading them back.
  PageId reuse = free_overflow_pages_.back();
  INSIGHTNOTES_ASSIGN_OR_RETURN(PageGuard guard, pool_->InitPage(reuse));
  free_overflow_pages_.pop_back();
  return guard;
}

Result<std::string> HeapFile::Get(const RecordId& rid) const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  INSIGHTNOTES_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(rid.page));
  SlottedPage page(const_cast<char*>(guard.data()));
  INSIGHTNOTES_ASSIGN_OR_RETURN(std::string_view bytes, page.Get(rid.slot));
  if (bytes.empty()) return Status::Internal("empty record payload");
  if (bytes[0] == kOverflowTag) return ReadOverflow(bytes);
  return std::string(bytes.substr(1));
}

// Called with latch_ held (shared or exclusive).
Status HeapFile::VisitOverflow(std::string_view stub,
                               const OverflowVisitor& visit) const {
  if (stub.size() < 1 + sizeof(uint32_t) + sizeof(PageId)) {
    return Status::Corruption("overflow stub truncated to " +
                              std::to_string(stub.size()) + " bytes");
  }
  uint32_t total;
  PageId current;
  std::memcpy(&total, stub.data() + 1, sizeof(total));
  std::memcpy(&current, stub.data() + 1 + sizeof(total), sizeof(current));
  size_t visited = 0;
  while (current != kInvalidPageId && visited < total) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(current));
    OverflowHeader header;
    std::memcpy(&header, guard.data() + kPageDataOffset, sizeof(header));
    // A corrupted chain page must not drive an OOB read or a loop that
    // never advances.
    if (header.length == 0 || header.length > kOverflowPayload) {
      return Status::Corruption("overflow page " + std::to_string(current) +
                                " claims " + std::to_string(header.length) +
                                " payload bytes (max " +
                                std::to_string(kOverflowPayload) + ")");
    }
    visit(total, current,
          std::string_view(guard.data() + kPageDataOffset + sizeof(header), header.length));
    visited += header.length;
    current = header.next;
  }
  if (visited != total) {
    return Status::Internal("overflow chain truncated: expected " +
                            std::to_string(total) + " bytes, got " +
                            std::to_string(visited));
  }
  return Status::OK();
}

// Called with latch_ held (shared or exclusive).
Result<std::string> HeapFile::ReadOverflow(std::string_view stub) const {
  std::string out;
  INSIGHTNOTES_RETURN_IF_ERROR(
      VisitOverflow(stub, [&](uint32_t total, PageId, std::string_view payload) {
        out.reserve(total);
        out.append(payload);
      }));
  return out;
}

Status HeapFile::Delete(const RecordId& rid) {
  std::unique_lock<std::shared_mutex> lock(latch_);
  INSIGHTNOTES_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(rid.page));
  SlottedPage page(guard.MutableData());
  // A tombstoned slot fails here, before any page is freed.
  INSIGHTNOTES_ASSIGN_OR_RETURN(std::string_view bytes, page.Get(rid.slot));
  std::vector<PageId> chain;
  if (!bytes.empty() && bytes[0] == kOverflowTag) {
    INSIGHTNOTES_RETURN_IF_ERROR(VisitOverflow(
        bytes, [&](uint32_t, PageId page, std::string_view) { chain.push_back(page); }));
  }
  INSIGHTNOTES_RETURN_IF_ERROR(page.Delete(rid.slot));
  num_records_.fetch_sub(1, std::memory_order_relaxed);
  free_overflow_pages_.insert(free_overflow_pages_.end(), chain.begin(), chain.end());
  return Status::OK();
}

Status HeapFile::Scan(
    const std::function<bool(const RecordId&, std::string_view)>& fn) const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  for (PageId page_id : pages_) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(page_id));
    SlottedPage page(const_cast<char*>(guard.data()));
    uint16_t num_slots = page.NumSlots();
    for (SlotId slot = 0; slot < num_slots; ++slot) {
      auto bytes = page.Get(slot);
      if (!bytes.ok()) continue;  // Tombstone.
      std::string materialized;
      std::string_view view = *bytes;
      if (view.empty()) return Status::Internal("empty record payload");
      if (view[0] == kOverflowTag) {
        INSIGHTNOTES_ASSIGN_OR_RETURN(materialized, ReadOverflow(view));
        view = materialized;
      } else {
        view = view.substr(1);
      }
      if (!fn(RecordId{page_id, slot}, view)) return Status::OK();
    }
  }
  return Status::OK();
}

}  // namespace insightnotes::storage
