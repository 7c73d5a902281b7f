#include "core/summary_object.h"

#include <algorithm>
#include <iterator>

#include "common/sorted_ids.h"

namespace insightnotes::core {

namespace {

/// Inserts `id` into sorted `ids` if absent; returns false if present.
bool InsertSorted(std::vector<ann::AnnotationId>* ids, ann::AnnotationId id) {
  auto it = std::lower_bound(ids->begin(), ids->end(), id);
  if (it != ids->end() && *it == id) return false;
  ids->insert(it, id);
  return true;
}

Status CheckSameInstance(const SummaryObject& a, const SummaryObject& b) {
  if (a.instance() != b.instance()) {
    return Status::InvalidArgument("cannot merge summary objects of instances '" +
                                   a.instance_name() + "' and '" +
                                   b.instance_name() + "'");
  }
  return Status::OK();
}

/// Copy-on-write: makes `*state` its object's alone before a write. The
/// sharing test copies the pointer rather than reading use_count() alone:
/// the copy's count increment is an acquire read-modify-write (libstdc++),
/// so it synchronizes with the release decrement by which another owner,
/// perhaps a pool thread finishing another group, dropped the state after
/// copying it. use_count() by itself is a relaxed load, and writing in
/// place after it races that owner's reads.
template <typename T>
T& OwnState(std::shared_ptr<T>* state) {
  const std::shared_ptr<T> probe = *state;
  if (probe.use_count() > 2) *state = std::make_shared<T>(*probe);
  return **state;
}

}  // namespace

// --- SummaryObject ----------------------------------------------------------

Status SummaryObject::CheckComponent(size_t index) const {
  if (index < NumComponents()) return Status::OK();
  return Status::OutOfRange("summary object '" + instance_name() +
                            "' has no component " + std::to_string(index));
}

Result<std::vector<ann::AnnotationId>> SummaryObject::ZoomIn(size_t index) const {
  INSIGHTNOTES_RETURN_IF_ERROR(CheckComponent(index));
  std::string label;
  std::span<const ann::AnnotationId> ids = AppendComponent(index, &label);
  return std::vector<ann::AnnotationId>(ids.begin(), ids.end());
}

std::string SummaryObject::Render() const {
  std::string out;
  AppendRender(&out);
  return out;
}

// --- ClassifierObject -------------------------------------------------------

ClassifierObject::ClassifierObject(SummaryInstance* instance)
    : SummaryObject(instance),
      ids_per_label_(std::make_shared<LabelIds>(instance->classifier()->num_labels())) {}

ClassifierObject::LabelIds& ClassifierObject::Own() { return OwnState(&ids_per_label_); }

Status ClassifierObject::AddAnnotation(const ann::Annotation& note,
                                       const txt::Analysis* body) {
  if (body != nullptr && !instance_->classifier()->compiled()) {
    return Status::Internal("classifier '" + instance_name() +
                            "' was trained after its last Compile");
  }
  size_t label = instance_->ClassifyAnnotation(note, body);
  if (label >= ids_per_label_->size()) {
    return Status::Internal("classifier produced out-of-range label");
  }
  if (!InsertSorted(&Own()[label], note.id)) {
    return Status::AlreadyExists("annotation " + std::to_string(note.id) +
                                 " already summarized");
  }
  return Status::OK();
}

Status ClassifierObject::Restrict(std::span<const ann::AnnotationId> dropped) {
  bool hit = std::any_of(ids_per_label_->begin(), ids_per_label_->end(),
                         [&](const auto& ids) { return IntersectsSorted(ids, dropped); });
  if (!hit) return Status::OK();
  // Builds the restricted copy directly: a shared state is never copied
  // whole first.
  // Survivors go through a scratch run first, so each kept list is
  // allocated at its size: a restricted copy may be kept long after (a
  // trim memo holds it).
  thread_local std::vector<ann::AnnotationId> scratch;
  auto restricted = std::make_shared<LabelIds>(ids_per_label_->size());
  for (size_t label = 0; label < restricted->size(); ++label) {
    const auto& ids = (*ids_per_label_)[label];
    scratch.clear();
    std::set_difference(ids.begin(), ids.end(), dropped.begin(), dropped.end(),
                        std::back_inserter(scratch));
    (*restricted)[label].assign(scratch.begin(), scratch.end());
  }
  ids_per_label_ = std::move(restricted);
  return Status::OK();
}

bool ClassifierObject::Contains(ann::AnnotationId id) const {
  for (const auto& ids : *ids_per_label_) {
    if (std::binary_search(ids.begin(), ids.end(), id)) return true;
  }
  return false;
}

Status ClassifierObject::MergeWith(const SummaryObject& other) {
  INSIGHTNOTES_RETURN_IF_ERROR(CheckSameInstance(*this, other));
  const auto& rhs = static_cast<const ClassifierObject&>(other);
  if (rhs.ids_per_label_ == ids_per_label_) return Status::OK();  // Same state.
  LabelIds& mine = Own();
  for (size_t label = 0; label < mine.size(); ++label) {
    // Shared annotations (present on both sides) are counted once.
    UnionSorted(&mine[label], (*rhs.ids_per_label_)[label]);
  }
  return Status::OK();
}

std::unique_ptr<SummaryObject> ClassifierObject::Clone() const {
  return std::make_unique<ClassifierObject>(*this);
}

size_t ClassifierObject::PayloadBytes() const {
  size_t bytes = sizeof(LabelIds) + ids_per_label_->capacity() * sizeof(LabelIds::value_type);
  for (const auto& ids : *ids_per_label_) bytes += ids.capacity() * sizeof(ann::AnnotationId);
  return bytes;
}

size_t ClassifierObject::NumAnnotations() const {
  size_t n = 0;
  for (const auto& ids : *ids_per_label_) n += ids.size();
  return n;
}

size_t ClassifierObject::NumComponents() const { return ids_per_label_->size(); }

std::span<const ann::AnnotationId> ClassifierObject::AppendComponent(
    size_t index, std::string* label) const {
  label->append(instance_->classifier()->labels()[index]);
  return (*ids_per_label_)[index];
}

void ClassifierObject::AppendRender(std::string* out) const {
  out->push_back('[');
  for (size_t i = 0; i < ids_per_label_->size(); ++i) {
    if (i > 0) out->append(", ");
    out->push_back('(');
    size_t count = AppendComponent(i, out).size();
    out->append(", ").append(std::to_string(count)).push_back(')');
  }
  out->push_back(']');
}

size_t ClassifierObject::LabelCount(size_t index) const {
  return index < ids_per_label_->size() ? (*ids_per_label_)[index].size() : 0;
}

// --- ClusterObject ----------------------------------------------------------

ClusterObject::ClusterObject(SummaryInstance* instance)
    : SummaryObject(instance),
      clusters_(std::make_shared<mining::ClusterSet>(instance->vector_store(),
                                                     instance->cluster_threshold())) {}

mining::ClusterSet& ClusterObject::Own() { return OwnState(&clusters_); }

Status ClusterObject::AddAnnotation(const ann::Annotation& note,
                                    const txt::Analysis* body) {
  instance_->VectorizeAnnotation(note, body);
  return Own().Add(note.id).status();
}

Status ClusterObject::Restrict(std::span<const ann::AnnotationId> dropped) {
  // Builds the restricted copy directly: a shared set is never copied
  // whole first.
  if (!clusters_->ContainsAny(dropped)) return Status::OK();
  Result<mining::ClusterSet> restricted = clusters_->Restricted(dropped);
  if (!restricted.ok()) return restricted.status();
  clusters_ = std::make_shared<mining::ClusterSet>(std::move(restricted).value());
  return Status::OK();
}

bool ClusterObject::Contains(ann::AnnotationId id) const {
  return clusters_->Contains(id);
}

Status ClusterObject::MergeWith(const SummaryObject& other) {
  INSIGHTNOTES_RETURN_IF_ERROR(CheckSameInstance(*this, other));
  const auto& rhs = static_cast<const ClusterObject&>(other);
  if (rhs.clusters_ == clusters_) return Status::OK();  // Same state.
  return Own().Merge(*rhs.clusters_);
}

std::unique_ptr<SummaryObject> ClusterObject::Clone() const {
  return std::make_unique<ClusterObject>(*this);
}

size_t ClusterObject::PayloadBytes() const {
  return clusters_->ApproxBytes();
}

size_t ClusterObject::NumAnnotations() const { return clusters_->NumDocuments(); }

size_t ClusterObject::NumComponents() const { return clusters_->NumGroups(); }

std::span<const ann::AnnotationId> ClusterObject::AppendComponent(
    size_t index, std::string* label) const {
  const mining::ClusterGroup g = clusters_->group(index);
  label->append("A").append(std::to_string(g.representative));
  label->append(" x").append(std::to_string(g.size()));
  return g.members;
}

void ClusterObject::AppendRender(std::string* out) const {
  out->push_back('{');
  for (size_t i = 0; i < clusters_->NumGroups(); ++i) {
    if (i > 0) out->append(", ");
    AppendComponent(i, out);
  }
  out->push_back('}');
}

// --- SnippetObject ----------------------------------------------------------

SnippetObject::SnippetObject(SummaryInstance* instance)
    : SummaryObject(instance), entries_(std::make_shared<std::vector<Entry>>()) {}

std::vector<SnippetObject::Entry>& SnippetObject::Own() { return OwnState(&entries_); }

Status SnippetObject::AddAnnotation(const ann::Annotation& note,
                                    const txt::Analysis* body) {
  if (note.kind != ann::AnnotationKind::kDocument) {
    return Status::OK();  // Snippet instances only summarize documents.
  }
  if (Contains(note.id)) {
    return Status::AlreadyExists("document " + std::to_string(note.id) +
                                 " already summarized");
  }
  Entry entry;
  entry.id = note.id;
  entry.title = note.title;
  entry.snippet = instance_->SummarizeDocument(note, body);
  auto& entries = Own();
  auto it = std::lower_bound(entries.begin(), entries.end(), note.id,
                             [](const Entry& e, ann::AnnotationId id) { return e.id < id; });
  entries.insert(it, std::move(entry));
  return Status::OK();
}

Status SnippetObject::Restrict(std::span<const ann::AnnotationId> dropped) {
  // Only documents contribute; other ids, like any absent id, are ignored.
  if (!IntersectsSorted(*entries_, dropped, EntryId{})) return Status::OK();
  // Builds the restricted copy directly from the survivors: a shared list
  // is never copied whole first.
  auto kept = std::make_shared<std::vector<Entry>>();
  kept->reserve(entries_->size());
  size_t j = 0;
  for (const Entry& entry : *entries_) {
    while (j < dropped.size() && dropped[j] < entry.id) ++j;
    if (j < dropped.size() && dropped[j] == entry.id) continue;
    kept->push_back(entry);
  }
  entries_ = std::move(kept);
  return Status::OK();
}

bool SnippetObject::Contains(ann::AnnotationId id) const {
  auto it = std::lower_bound(entries_->begin(), entries_->end(), id,
                             [](const Entry& e, ann::AnnotationId i) { return e.id < i; });
  return it != entries_->end() && it->id == id;
}

Status SnippetObject::MergeWith(const SummaryObject& other) {
  INSIGHTNOTES_RETURN_IF_ERROR(CheckSameInstance(*this, other));
  const auto& rhs = static_cast<const SnippetObject&>(other);
  if (rhs.entries_->empty() || rhs.entries_ == entries_) return Status::OK();
  UnionSorted(&Own(), *rhs.entries_, EntryId{});  // Shared documents once.
  return Status::OK();
}

std::unique_ptr<SummaryObject> SnippetObject::Clone() const {
  return std::make_unique<SnippetObject>(*this);
}

size_t SnippetObject::PayloadBytes() const {
  size_t bytes = sizeof(std::vector<Entry>) + entries_->capacity() * sizeof(Entry);
  for (const Entry& entry : *entries_) bytes += entry.title.capacity() + entry.snippet.capacity();
  return bytes;
}

size_t SnippetObject::NumAnnotations() const { return entries_->size(); }

size_t SnippetObject::NumComponents() const { return entries_->size(); }

std::span<const ann::AnnotationId> SnippetObject::AppendComponent(
    size_t index, std::string* label) const {
  const Entry& e = (*entries_)[index];
  if (e.title.empty()) {
    label->append("doc ").append(std::to_string(e.id));
  } else {
    label->append(e.title);
  }
  return {&e.id, 1};
}

void SnippetObject::AppendRender(std::string* out) const {
  out->push_back('[');
  for (size_t i = 0; i < entries_->size(); ++i) {
    if (i > 0) out->append(", ");
    out->append("\"").append((*entries_)[i].snippet).push_back('"');
  }
  out->push_back(']');
}

}  // namespace insightnotes::core
