// Level 2 of the summarization hierarchy: summary instances. An instance
// fixes the algorithm, its configuration (class labels, cluster threshold,
// snippet limits), training state, and the optimization properties. It owns
// the shared mining kernels its per-tuple summary objects use, plus the
// summarize-once caches exploited when the invariant properties hold.

#ifndef INSIGHTNOTES_CORE_SUMMARY_INSTANCE_H_
#define INSIGHTNOTES_CORE_SUMMARY_INSTANCE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "annotation/annotation.h"
#include "common/result.h"
#include "core/summary_type.h"
#include "mining/clustering.h"
#include "mining/naive_bayes.h"
#include "mining/snippets.h"
#include "txt/analyzer.h"
#include "txt/tfidf.h"

namespace insightnotes::core {

class SummaryObject;

/// A cluster instance owns the DocVectorStore of its cluster objects:
/// document vectors are computed once and held here (the vectorize-once
/// optimization), so per-tuple cluster objects carry only ids + centroids
/// and stay cheap to clone through the query pipeline.
class SummaryInstance {
 public:
  /// Classifier instance: labels define the output classes; train via
  /// `classifier()` before (or while) annotations arrive.
  static std::unique_ptr<SummaryInstance> MakeClassifier(
      std::string name, std::vector<std::string> labels,
      SummaryProperties properties = {});

  /// Cluster instance: `threshold` is the cosine similarity at or above
  /// which an annotation joins an existing group. Clustering depends on the
  /// tuple's current groups, so annotation_invariant is forced to false
  /// (only vectorization is cacheable).
  static std::unique_ptr<SummaryInstance> MakeCluster(
      std::string name, double threshold = 0.35, SummaryProperties properties = {});

  /// Snippet instance: summarizes document-kind annotations only.
  static std::unique_ptr<SummaryInstance> MakeSnippet(
      std::string name, mining::SnippetOptions options = {},
      SummaryProperties properties = {});

  SummaryInstance(const SummaryInstance&) = delete;
  SummaryInstance& operator=(const SummaryInstance&) = delete;

  const std::string& name() const { return name_; }
  SummaryTypeKind type() const { return type_; }
  const SummaryProperties& properties() const { return properties_; }

  /// Creates an empty summary object bound to this instance. The object
  /// holds a non-owning pointer back; the instance must outlive it.
  std::unique_ptr<SummaryObject> NewObject();

  /// Kernels (null unless the type matches).
  mining::NaiveBayesClassifier* classifier() { return classifier_.get(); }
  const mining::NaiveBayesClassifier* classifier() const { return classifier_.get(); }
  mining::SnippetExtractor* extractor() { return extractor_.get(); }
  double cluster_threshold() const { return cluster_threshold_; }

  // --- Text analysis --------------------------------------------------------
  // Every summarizer reads a body as the term ids of one txt::Analyzer. A
  // standalone instance owns one; registration binds the instance to its
  // manager's shared analyzer, so a body is analysed once per ingest
  // whatever the number of instances.

  txt::Analyzer* analyzer() const { return analyzer_.get(); }

  /// Moves this instance onto `analyzer`: a trained classifier's terms are
  /// interned there. InvalidArgument for a cluster instance that already
  /// holds document vectors (their ids belong to the old analyzer).
  Status BindAnalyzer(std::shared_ptr<txt::Analyzer> analyzer);

  /// The analysis of `note`'s body by analyzer(). Grows the analyzer, so
  /// only one thread at a time may call it (the engine's writer).
  txt::Analysis TokenizeBody(const ann::Annotation& note);

  /// Brings derived kernel state up to date with training: compiles the
  /// classifier's tables if Train ran since. Ingest calls it in its serial
  /// phase, before shards classify pre-analysed bodies.
  void Compile();

  // --- Summarize-once interface used by summary objects -------------------
  // Each returns the per-annotation summarization result, consulting the
  // instance-level cache when the properties make the result invariant.
  // `body` is the analysis of note.body by analyzer(). Without one the
  // instance analyses the body itself (compiling the classifier first),
  // which grows the analyzer: a standalone or serial caller only.
  //
  // Thread-safety: with a `body`, these three methods, GetVectors and the
  // cache counters are safe to call from concurrent ingest shards once
  // Compile() ran: the kernels only read the compiled tables and the ids.

  /// Class label index for `note` (Classifier instances).
  size_t ClassifyAnnotation(const ann::Annotation& note,
                            const txt::Analysis* body = nullptr);

  /// Commits the term vector of `note` to the vector store (Cluster
  /// instances).
  void VectorizeAnnotation(const ann::Annotation& note,
                           const txt::Analysis* body = nullptr);

  /// Extractive snippet for `note` (Snippet instances).
  std::string SummarizeDocument(const ann::Annotation& note,
                                const txt::Analysis* body = nullptr);

  /// Commits the vector of annotation `id`, whose body analysis is `body`,
  /// unless one is stored (shared annotations commit once). Ingest calls it
  /// in its serial phase so the vectorize-once store is warm before the
  /// fold. Cluster instances only.
  void CommitVector(ann::AnnotationId id, const txt::Analysis& body);

  /// Cache-efficiency counters (experiment E5).
  uint64_t cache_hits() const { return cache_hits_.load(std::memory_order_relaxed); }
  uint64_t cache_misses() const { return cache_misses_.load(std::memory_order_relaxed); }
  void ResetCacheCounters() {
    cache_hits_.store(0, std::memory_order_relaxed);
    cache_misses_.store(0, std::memory_order_relaxed);
  }

  /// Drops all summarize-once cache entries (used by ablation benches on
  /// classifier/snippet instances; do NOT clear a cluster instance's caches
  /// while cluster objects for it are alive — they resolve member vectors
  /// through this store).
  void ClearCaches();

  /// Vectors of annotations previously passed to VectorizeAnnotation or
  /// CommitVector, as committed (out[i] is nullptr for an unknown id).
  /// Cluster objects read vector_store() directly, norms included.
  void GetVectors(std::span<const mining::DocId> docs,
                  std::vector<const txt::SparseVector*>* out) const;

  /// The vector store of this instance's cluster objects.
  const mining::DocVectorStore* vector_store() const { return &vectors_; }

 private:
  SummaryInstance(std::string name, SummaryTypeKind type, SummaryProperties properties)
      : name_(std::move(name)),
        type_(type),
        properties_(properties),
        analyzer_(std::make_shared<txt::Analyzer>()) {}

  /// `compute()` for annotation `id`, served from and stored in `cache`
  /// when the instance is summarize-once eligible; the cache lock is taken
  /// only then.
  template <typename T, typename Compute>
  T Memoized(std::unordered_map<ann::AnnotationId, T>* cache, ann::AnnotationId id,
             const Compute& compute);

  std::string name_;
  SummaryTypeKind type_;
  SummaryProperties properties_;

  std::shared_ptr<txt::Analyzer> analyzer_;
  std::unique_ptr<mining::NaiveBayesClassifier> classifier_;
  std::unique_ptr<mining::SnippetExtractor> extractor_;
  double cluster_threshold_ = 0.35;

  // Summarize-once caches, keyed by annotation id. Guarded by cache_mutex_
  // (concurrent ingest shards hit them for shared annotations).
  mutable std::mutex cache_mutex_;
  std::unordered_map<ann::AnnotationId, size_t> label_cache_;
  std::unordered_map<ann::AnnotationId, std::string> snippet_cache_;
  // Vectorize-once store of cluster instances; locks itself.
  mining::DocVectorStore vectors_;
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
};

}  // namespace insightnotes::core

#endif  // INSIGHTNOTES_CORE_SUMMARY_INSTANCE_H_
