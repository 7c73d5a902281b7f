#include "core/annotated_tuple.h"

#include <algorithm>
#include <bit>

#include "annotation/annotation_store.h"

namespace insightnotes::core {

namespace {

bool IsZero(const uint64_t* mask, size_t words) {
  for (size_t k = 0; k < words; ++k) {
    if (mask[k] != 0) return false;
  }
  return true;
}

// ORs `words` words of `from`, shifted up by `shift` bits, into `into`,
// which must be wide enough for the shifted bits.
void OrShifted(uint64_t* into, const uint64_t* from, size_t words, size_t shift) {
  const size_t skip = shift / 64;
  const size_t bits = shift % 64;
  for (size_t k = 0; k < words; ++k) {
    into[k + skip] |= from[k] << bits;
    if (bits != 0 && (from[k] >> (64 - bits)) != 0) into[k + skip + 1] |= from[k] >> (64 - bits);
  }
}

template <typename List>
auto FindIn(List& list, std::string_view name) {
  return std::find_if(list.begin(), list.end(),
                      [&](const auto& s) { return s->instance_name() == name; });
}

// Replaces `*object` with its copy restricted by `dropped` if that
// removes anything; an object the trim leaves whole stays shared.
Status Restrict(std::shared_ptr<const SummaryObject>* object,
                std::span<const ann::AnnotationId> dropped) {
  std::unique_ptr<SummaryObject> restricted = (*object)->Clone();
  INSIGHTNOTES_RETURN_IF_ERROR(restricted->Restrict(dropped));
  if (restricted->NumAnnotations() != (*object)->NumAnnotations()) *object = std::move(restricted);
  return Status::OK();
}

}  // namespace

ColumnMap ColumnMap::Of(size_t in_columns, const std::vector<std::vector<size_t>>& refs) {
  ColumnMap map;
  map.out_words = (refs.size() + 63) / 64;
  map.positions.assign(in_columns * map.out_words, 0);
  map.kept.assign((in_columns + 63) / 64, 0);
  for (size_t item = 0; item < refs.size(); ++item) {
    for (size_t c : refs[item]) {
      if (c >= in_columns) continue;
      map.positions[c * map.out_words + item / 64] |= uint64_t{1} << (item % 64);
      map.kept[c / 64] |= uint64_t{1} << (c % 64);
    }
  }
  return map;
}

std::shared_ptr<AttachmentList> AttachmentList::Allocate(size_t size, size_t words) {
  auto list = std::make_shared<AttachmentList>();
  list->size_ = size;
  list->words_ = words;
  list->data_.assign(size + size * words, 0);
  return list;
}

AttachmentListPtr AttachmentList::Finish(std::shared_ptr<AttachmentList> list, size_t size) {
  if (size == 0) return nullptr;
  size_t words = 0;
  for (size_t i = 0; i < size; ++i) {
    for (size_t k = list->words_; k > words; --k) {
      if (list->mask(i)[k - 1] != 0) words = k;
    }
  }
  if (size != list->size_ || words != list->words_) {
    // Entry i moves to [size + i * words): never past where it was.
    uint64_t* data = list->data_.data();
    for (size_t i = 0; i < size; ++i) {
      std::copy_n(list->mask(i), words, data + size + i * words);
    }
    list->data_.resize(size + size * words);
    // A list can outlive its statement (a row state or a trim memo keeps
    // it): it keeps no slack.
    list->data_.shrink_to_fit();
    list->size_ = size;
    list->words_ = words;
  }
  return list;
}

AttachmentListPtr AttachmentList::Build(std::span<const ann::Attachment* const> atts) {
  size_t width = 0;
  for (const ann::Attachment* att : atts) {
    if (!att->columns.empty()) width = std::max(width, att->columns.back() + 1);
  }
  std::shared_ptr<AttachmentList> list = Allocate(atts.size(), (width + 63) / 64);
  for (size_t i = 0; i < atts.size(); ++i) {
    list->data_[i] = atts[i]->annotation;
    uint64_t* mask = list->mutable_mask(i);
    for (size_t c : atts[i]->columns) mask[c / 64] |= uint64_t{1} << (c % 64);
  }
  return Finish(std::move(list), atts.size());
}

bool AttachmentList::IsWholeRow(size_t i) const { return IsZero(mask(i), words_); }

std::vector<size_t> AttachmentList::Columns(size_t i) const {
  std::vector<size_t> columns;
  for (size_t k = 0; k < words_; ++k) {
    for (uint64_t bits = mask(i)[k]; bits != 0; bits &= bits - 1) {
      columns.push_back(k * 64 + static_cast<size_t>(std::countr_zero(bits)));
    }
  }
  return columns;
}

AttachmentListPtr AttachmentList::Union(const AttachmentListPtr& a,
                                        const AttachmentListPtr& b, size_t shift) {
  if (b == nullptr) return a;
  if (shift == 0 && (a == nullptr || a == b)) return a == nullptr ? b : a;
  const size_t a_size = a == nullptr ? 0 : a->size_;
  const size_t a_words = a == nullptr ? 0 : a->words_;
  const size_t b_words = b->words_ == 0 ? 0 : (b->words_ * 64 + shift + 63) / 64;
  std::shared_ptr<AttachmentList> out =
      Allocate(a_size + b->size_, std::max(a_words, b_words));
  size_t i = 0;
  size_t j = 0;
  size_t n = 0;
  for (; i < a_size || j < b->size_; ++n) {
    const bool take_a = j == b->size_ || (i < a_size && a->id(i) <= b->id(j));
    const bool take_b = i == a_size || (j < b->size_ && b->id(j) <= a->id(i));
    uint64_t* mask = out->mutable_mask(n);
    out->data_[n] = take_a ? a->id(i) : b->id(j);
    // An id on both sides with a whole-row side stays whole-row.
    if (!(take_a && take_b && (a->IsWholeRow(i) || b->IsWholeRow(j)))) {
      if (take_a) std::copy_n(a->mask(i), a_words, mask);
      if (take_b) OrShifted(mask, b->mask(j), b->words_, shift);
    }
    i += take_a ? 1 : 0;
    j += take_b ? 1 : 0;
  }
  return Finish(std::move(out), n);
}

AttachmentListPtr AttachmentList::UnionAll(std::span<const AttachmentListPtr> lists) {
  struct Cursor {
    const AttachmentList* list;
    size_t i;
    ann::AnnotationId id() const { return list->id(i); }
  };
  std::vector<Cursor> heap;
  const AttachmentListPtr* first = nullptr;
  bool distinct = false;
  size_t total = 0;
  size_t words = 0;
  for (const AttachmentListPtr& list : lists) {
    if (list == nullptr) continue;
    if (first == nullptr) first = &list;
    distinct = distinct || list != *first;
    heap.push_back(Cursor{list.get(), 0});
    total += list->size_;
    words = std::max(words, list->words_);
  }
  if (first == nullptr) return nullptr;
  if (!distinct) return *first;  // One list, however often it came in.

  // A min-heap of the lists by their next id.
  auto later = [](const Cursor& a, const Cursor& b) { return a.id() > b.id(); };
  std::make_heap(heap.begin(), heap.end(), later);
  std::shared_ptr<AttachmentList> out = Allocate(total, words);
  size_t n = 0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Cursor c = heap.back();
    heap.pop_back();
    // Take entries from this list up to the next list's head in one run.
    const AttachmentList& list = *c.list;
    const bool last = heap.empty();
    const ann::AnnotationId bound = last ? 0 : heap.front().id();
    do {
      const ann::AnnotationId id = list.id(c.i);
      if (n > 0 && out->data_[n - 1] == id) {
        // An id seen before: a whole-row occurrence makes it whole-row.
        uint64_t* mask = out->mutable_mask(n - 1);
        if (!IsZero(mask, words)) {
          if (list.IsWholeRow(c.i)) {
            std::fill_n(mask, words, 0);
          } else {
            for (size_t k = 0; k < list.words_; ++k) mask[k] |= list.mask(c.i)[k];
          }
        }
      } else {
        out->data_[n] = id;
        std::copy_n(list.mask(c.i), list.words_, out->mutable_mask(n));
        ++n;
      }
      ++c.i;
    } while (c.i < list.size_ && (last || list.id(c.i) <= bound));
    if (c.i < list.size_) {
      heap.push_back(c);
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
  return Finish(std::move(out), n);
}

AttachmentListPtr AttachmentList::WholeRow(const AttachmentListPtr& list) {
  if (list == nullptr || list->words_ == 0) return list;
  std::shared_ptr<AttachmentList> out = Allocate(list->size_, 0);
  std::copy_n(list->data_.begin(), list->size_, out->data_.begin());
  return out;
}

AttachmentListPtr AttachmentList::Project(const AttachmentListPtr& list,
                                          const ColumnMap& map, bool trim,
                                          std::vector<ann::AnnotationId>* trimmed) {
  // Whole-row entries survive every projection unchanged.
  if (list == nullptr || list->words_ == 0) return list;
  // Ids trimmed by an earlier projection already left the list, so the
  // ones appended here are disjoint from them; both runs ascend.
  const size_t pending = trimmed->size();
  std::shared_ptr<AttachmentList> out = Allocate(list->size_, map.out_words);
  const size_t words = std::min(list->words_, map.kept.size());
  size_t n = 0;
  for (size_t i = 0; i < list->size_; ++i) {
    const uint64_t* in = list->mask(i);
    uint64_t* mask = out->mutable_mask(n);
    if (!list->IsWholeRow(i)) {
      for (size_t k = 0; k < words; ++k) {
        for (uint64_t bits = in[k] & map.kept[k]; bits != 0; bits &= bits - 1) {
          const size_t column = k * 64 + static_cast<size_t>(std::countr_zero(bits));
          const uint64_t* positions = map.positions.data() + column * map.out_words;
          for (size_t w = 0; w < map.out_words; ++w) mask[w] |= positions[w];
        }
      }
      // Every covered column was dropped. A plumbing projection keeps the
      // annotation, degraded to whole-row coverage.
      if (trim && IsZero(mask, map.out_words)) {
        trimmed->push_back(list->id(i));
        continue;
      }
    }
    out->data_[n++] = list->id(i);
  }
  if (pending > 0 && trimmed->size() > pending) {
    std::inplace_merge(trimmed->begin(), trimmed->begin() + static_cast<std::ptrdiff_t>(pending),
                       trimmed->end());
  }
  return Finish(std::move(out), n);
}

std::shared_ptr<const TrimMemo::Entry> TrimMemo::Find(const ColumnMap& map) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& entry : entries_) {
    if (entry != nullptr && entry->key->map == map) return entry;
  }
  return nullptr;
}

size_t TrimMemo::SlotFor(size_t dropped) const {
  size_t slot = kEntries;
  for (size_t i = 0; i < kEntries; ++i) {
    if (entries_[i] == nullptr) return i;
    if (dropped > entries_[i]->dropped &&
        (slot == kEntries || entries_[i]->dropped < entries_[slot]->dropped)) {
      slot = i;
    }
  }
  return slot;
}

bool TrimMemo::Admits(size_t dropped) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return SlotFor(dropped) < kEntries;
}

void TrimMemo::Publish(std::shared_ptr<const TrimKey> key, size_t dropped,
                       AttachmentListPtr attachments, const SummaryList& summaries) {
  if (!Admits(dropped)) return;
  const TrimKey& published = *key;
  auto entry = std::make_shared<Entry>(
      Entry{std::move(key), dropped, std::move(attachments), summaries});
  std::shared_ptr<const Entry> replaced = std::move(entry);  // Freed after the unlock.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& e : entries_) {
      if (e != nullptr && e->key->map == published.map) return;
    }
    const size_t slot = SlotFor(dropped);
    if (slot == kEntries) return;
    entries_[slot].swap(replaced);
  }
  published.fills.fetch_add(1, std::memory_order_relaxed);
}

size_t TrimMemo::ApproxBytes(const SummaryList& row) const {
  std::array<std::shared_ptr<const Entry>, kEntries> entries;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    entries = entries_;
  }
  size_t bytes = 0;
  for (const auto& entry : entries) {
    if (entry == nullptr) continue;
    bytes += sizeof(Entry);
    if (entry->attachments != nullptr) bytes += entry->attachments->ApproxBytes();
    for (const auto& s : entry->summaries) {
      if (std::find(row.begin(), row.end(), s) == row.end()) bytes += s->PayloadBytes();
    }
  }
  return bytes;
}

AnnotatedTuple AnnotatedTuple::Clone() const {
  AnnotatedTuple copy(tuple);
  copy.summaries = summaries;
  copy.attachments = attachments;
  copy.trimmed = trimmed;
  return copy;
}

Status AnnotatedTuple::Settle() {
  memo = nullptr;
  if (trimmed.empty()) return Status::OK();
  for (auto& s : summaries) INSIGHTNOTES_RETURN_IF_ERROR(Restrict(&s, trimmed));
  if (fill != nullptr) {
    fill->memo->Publish(std::move(fill->key), trimmed.size(), std::move(fill->attachments),
                        summaries);
    fill.reset();
  }
  trimmed.clear();
  return Status::OK();
}

Result<const SummaryObject*> AnnotatedTuple::SettleSummary(std::string_view name) {
  auto object = FindIn(summaries, name);
  if (object == summaries.end()) return nullptr;
  if (!trimmed.empty()) INSIGHTNOTES_RETURN_IF_ERROR(Restrict(&*object, trimmed));
  return object->get();
}

Status CheckSettled(const AnnotatedTuple& tuple) {
  if (tuple.trimmed.empty()) return Status::OK();
  return Status::Internal("merge read a tuple with " +
                          std::to_string(tuple.trimmed.size()) +
                          " unsettled trimmed annotation(s)");
}

const SummaryObject* AnnotatedTuple::FindSummary(std::string_view name) const {
  auto object = FindIn(summaries, name);
  return object == summaries.end() ? nullptr : object->get();
}

Status MergeAnnotatedTuples(AnnotatedTuple* left, const AnnotatedTuple& right) {
  INSIGHTNOTES_RETURN_IF_ERROR(CheckSettled(right));
  INSIGHTNOTES_RETURN_IF_ERROR(left->Settle());
  size_t left_width = left->tuple.NumValues();
  left->tuple = rel::Tuple::Concat(left->tuple, right.tuple);
  for (const auto& summary : right.summaries) {
    auto counterpart = FindIn(left->summaries, summary->instance_name());
    if (counterpart == left->summaries.end()) {
      left->summaries.push_back(summary);  // Unchanged (ClassBird1 in Figure 2).
      continue;
    }
    // Counterpart objects combine (ClassBird2 / SimCluster in Figure 2).
    std::unique_ptr<SummaryObject> merged = (*counterpart)->Clone();
    INSIGHTNOTES_RETURN_IF_ERROR(merged->MergeWith(*summary));
    *counterpart = std::move(merged);
  }
  left->attachments = AttachmentList::Union(left->attachments, right.attachments, left_width);
  return Status::OK();
}

namespace {
// Flat per-summary-object figure: a SummaryObject carries an instance
// name, aggregate state and (for cluster summaries) representative text.
constexpr size_t kSummaryObjectApproxBytes = 192;
}  // namespace

size_t ApproxBytes(const rel::Tuple& tuple) {
  size_t bytes = sizeof(rel::Tuple) + tuple.NumValues() * sizeof(rel::Value);
  for (size_t i = 0; i < tuple.NumValues(); ++i) {
    const rel::Value& v = tuple.ValueAt(i);
    if (v.type() == rel::ValueType::kString) bytes += v.AsString().capacity();
  }
  return bytes;
}

size_t ApproxBytes(const AnnotatedTuple& tuple) {
  size_t bytes = ApproxBytes(tuple.tuple) +
                 tuple.summaries.size() * kSummaryObjectApproxBytes;
  if (tuple.attachments != nullptr) bytes += tuple.attachments->ApproxBytes();
  bytes += tuple.trimmed.capacity() * sizeof(ann::AnnotationId);
  return bytes;
}

size_t ApproxBytes(const AnnotatedBatch& batch) {
  size_t bytes = sizeof(AnnotatedBatch);
  for (const AnnotatedTuple& tuple : batch.tuples) bytes += ApproxBytes(tuple);
  return bytes;
}

}  // namespace insightnotes::core
