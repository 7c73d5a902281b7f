// Level 3 of the summarization hierarchy: per-tuple summary objects and
// their query-time algebra. Every object supports the closed operation set
// the extended operators need (Section 2.1):
//
//   AddAnnotation — incremental maintenance on annotation insert;
//   Restrict      — projection trim: eliminate the effect of a sorted set
//                   of annotation ids in one pass per label, group or
//                   snippet list, re-electing each cluster group that lost
//                   a member once (Figure 2 step 1); the only removal path.
//                   A projection defers it: the tuple records the ids and
//                   AnnotatedTuple::Settle() restricts before the first
//                   merge or read (Theorem 1), so absent ids must be, and
//                   are, a no-op;
//   MergeWith     — join/grouping/duplicate-elimination merge in one pass
//                   that never double-counts an annotation attached to both
//                   inputs (Figure 2's "22 instead of 27" case);
//   ZoomIn        — map a summary component back to the exact raw
//                   annotation ids behind it (Section 2.2).
//
// Because the algebra is closed, summary processing can be plugged in at
// any stage of a query plan — the paper's pipelining contribution.

#ifndef INSIGHTNOTES_CORE_SUMMARY_OBJECT_H_
#define INSIGHTNOTES_CORE_SUMMARY_OBJECT_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "annotation/annotation.h"
#include "common/result.h"
#include "core/summary_instance.h"
#include "core/summary_type.h"
#include "mining/clustering.h"

namespace insightnotes::core {

class SummaryObject {
 public:
  virtual ~SummaryObject() = default;

  /// The instance (level 2) this object was produced by. Counterpart
  /// matching during merges is by instance name.
  SummaryInstance* instance() const { return instance_; }
  const std::string& instance_name() const { return instance_->name(); }
  SummaryTypeKind type() const { return instance_->type(); }

  /// Folds a new annotation into the summary. `body` is the analysis of
  /// note.body by the instance's analyzer; with nullptr the instance
  /// analyses it if it needs to (see SummaryInstance).
  virtual Status AddAnnotation(const ann::Annotation& note, const txt::Analysis* body) = 0;
  Status AddAnnotation(const ann::Annotation& note) { return AddAnnotation(note, nullptr); }

  /// Eliminates the effect of every annotation in `dropped` (ascending,
  /// no duplicates); ids that never contributed are ignored. With none
  /// contributing, shared copy-on-write state is left shared.
  virtual Status Restrict(std::span<const ann::AnnotationId> dropped) = 0;

  /// True if `id` currently contributes to this summary.
  virtual bool Contains(ann::AnnotationId id) const = 0;

  /// Merges `other` (same instance) into this object without double
  /// counting shared annotation ids.
  virtual Status MergeWith(const SummaryObject& other) = 0;

  virtual std::unique_ptr<SummaryObject> Clone() const = 0;

  /// Number of distinct annotations contributing.
  virtual size_t NumAnnotations() const = 0;

  /// Approximate bytes of the copy-on-write payload, shared or not.
  virtual size_t PayloadBytes() const = 0;

  // --- Zoom-in surface ----------------------------------------------------
  /// Components are the user-visible parts of a summary: class labels for
  /// classifiers, groups for clusters, snippets for snippet objects.
  virtual size_t NumComponents() const = 0;
  /// Component `index` (< NumComponents()): appends its label to `label`
  /// and returns the raw annotation ids behind it, ascending, as a view
  /// valid until this object changes. The one formatter of components:
  /// ZoomIn, Render, SUMMARY_COUNT and the zoom-in record encoder
  /// (zoom_in.h) all read them through it.
  virtual std::span<const ann::AnnotationId> AppendComponent(size_t index,
                                                             std::string* label) const = 0;
  /// Raw annotation ids behind component `index`; OutOfRange past
  /// NumComponents().
  Result<std::vector<ann::AnnotationId>> ZoomIn(size_t index) const;

  /// Display form, e.g. "[(Behavior, 33), (Disease, 8), ...]".
  std::string Render() const;
  /// Appends the display form to `out`.
  virtual void AppendRender(std::string* out) const = 0;

 protected:
  explicit SummaryObject(SummaryInstance* instance) : instance_(instance) {}
  SummaryObject(const SummaryObject&) = default;

  /// OutOfRange unless `index` < NumComponents().
  Status CheckComponent(size_t index) const;

  SummaryInstance* instance_;  // Not owned; outlives the object.
};

/// A tuple's summary objects, immutable and shared by pointer from the
/// epoch's row state to the result; an operator that changes one (a trim,
/// a merge) puts its own copy in its place. This is what keeps summary
/// propagation cheap next to raw-annotation propagation at any volume.
using SummaryList = std::vector<std::shared_ptr<const SummaryObject>>;

// The concrete objects below use copy-on-write state: Clone() is O(1), and
// a clone copies the payload only to change it (Restrict from survivors).

/// Classifier-type object: per-label annotation counts + id lists.
class ClassifierObject final : public SummaryObject {
 public:
  explicit ClassifierObject(SummaryInstance* instance);

  using SummaryObject::AddAnnotation;
  Status AddAnnotation(const ann::Annotation& note, const txt::Analysis* body) override;
  Status Restrict(std::span<const ann::AnnotationId> dropped) override;
  bool Contains(ann::AnnotationId id) const override;
  Status MergeWith(const SummaryObject& other) override;
  std::unique_ptr<SummaryObject> Clone() const override;
  size_t NumAnnotations() const override;
  size_t PayloadBytes() const override;
  size_t NumComponents() const override;
  std::span<const ann::AnnotationId> AppendComponent(size_t index,
                                                     std::string* label) const override;
  void AppendRender(std::string* out) const override;

  /// Count for label `index` (0 for out-of-range).
  size_t LabelCount(size_t index) const;

 private:
  using LabelIds = std::vector<std::vector<ann::AnnotationId>>;
  /// Takes a private copy of the shared state before mutation.
  LabelIds& Own();

  // ids_per_label_[label] is sorted ascending. Shared between clones until
  // one of them mutates.
  std::shared_ptr<LabelIds> ids_per_label_;
};

/// Cluster-type object: groups of similar annotations with an elected
/// representative per group (rendered as "{A<rep> x<size>}").
class ClusterObject final : public SummaryObject {
 public:
  explicit ClusterObject(SummaryInstance* instance);

  using SummaryObject::AddAnnotation;
  Status AddAnnotation(const ann::Annotation& note, const txt::Analysis* body) override;
  Status Restrict(std::span<const ann::AnnotationId> dropped) override;
  bool Contains(ann::AnnotationId id) const override;
  Status MergeWith(const SummaryObject& other) override;
  std::unique_ptr<SummaryObject> Clone() const override;
  size_t NumAnnotations() const override;
  size_t PayloadBytes() const override;
  size_t NumComponents() const override;
  std::span<const ann::AnnotationId> AppendComponent(size_t index,
                                                     std::string* label) const override;
  void AppendRender(std::string* out) const override;

  const mining::ClusterSet& clusters() const { return *clusters_; }

 private:
  mining::ClusterSet& Own();

  std::shared_ptr<mining::ClusterSet> clusters_;  // COW.
};

/// Snippet-type object: one extractive snippet per document annotation.
/// Comment-kind annotations do not contribute.
class SnippetObject final : public SummaryObject {
 public:
  explicit SnippetObject(SummaryInstance* instance);

  using SummaryObject::AddAnnotation;
  Status AddAnnotation(const ann::Annotation& note, const txt::Analysis* body) override;
  Status Restrict(std::span<const ann::AnnotationId> dropped) override;
  bool Contains(ann::AnnotationId id) const override;
  Status MergeWith(const SummaryObject& other) override;
  std::unique_ptr<SummaryObject> Clone() const override;
  size_t NumAnnotations() const override;
  size_t PayloadBytes() const override;
  size_t NumComponents() const override;
  std::span<const ann::AnnotationId> AppendComponent(size_t index,
                                                     std::string* label) const override;
  void AppendRender(std::string* out) const override;

 private:
  struct Entry {
    ann::AnnotationId id;
    std::string title;
    std::string snippet;
  };
  struct EntryId {
    ann::AnnotationId operator()(const Entry& e) const { return e.id; }
  };
  std::vector<Entry>& Own();

  // Sorted by id (deterministic rendering). Shared between clones (COW).
  std::shared_ptr<std::vector<Entry>> entries_;
};

}  // namespace insightnotes::core

#endif  // INSIGHTNOTES_CORE_SUMMARY_OBJECT_H_
