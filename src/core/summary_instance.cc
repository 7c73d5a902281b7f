#include "core/summary_instance.h"

#include "core/summary_object.h"

namespace insightnotes::core {

std::unique_ptr<SummaryInstance> SummaryInstance::MakeClassifier(
    std::string name, std::vector<std::string> labels, SummaryProperties properties) {
  auto instance = std::unique_ptr<SummaryInstance>(new SummaryInstance(
      std::move(name), SummaryTypeKind::kClassifier, properties));
  instance->classifier_ = std::make_unique<mining::NaiveBayesClassifier>(
      std::move(labels), instance->analyzer_);
  return instance;
}

std::unique_ptr<SummaryInstance> SummaryInstance::MakeCluster(
    std::string name, double threshold, SummaryProperties properties) {
  // Cluster assignment inspects the tuple's existing groups, so the result
  // of summarizing an annotation is not annotation-invariant by definition.
  properties.annotation_invariant = false;
  auto instance = std::unique_ptr<SummaryInstance>(
      new SummaryInstance(std::move(name), SummaryTypeKind::kCluster, properties));
  instance->cluster_threshold_ = threshold;
  return instance;
}

std::unique_ptr<SummaryInstance> SummaryInstance::MakeSnippet(
    std::string name, mining::SnippetOptions options, SummaryProperties properties) {
  auto instance = std::unique_ptr<SummaryInstance>(
      new SummaryInstance(std::move(name), SummaryTypeKind::kSnippet, properties));
  instance->extractor_ = std::make_unique<mining::SnippetExtractor>(options);
  return instance;
}

std::unique_ptr<SummaryObject> SummaryInstance::NewObject() {
  switch (type_) {
    case SummaryTypeKind::kClassifier:
      return std::make_unique<ClassifierObject>(this);
    case SummaryTypeKind::kCluster:
      return std::make_unique<ClusterObject>(this);
    case SummaryTypeKind::kSnippet:
      return std::make_unique<SnippetObject>(this);
  }
  return nullptr;
}

Status SummaryInstance::BindAnalyzer(std::shared_ptr<txt::Analyzer> analyzer) {
  if (analyzer == analyzer_) return Status::OK();
  if (!vectors_.empty()) {
    return Status::InvalidArgument("summary instance '" + name_ +
                                   "' holds document vectors over another analyzer");
  }
  if (classifier_ != nullptr) classifier_->Rebind(analyzer);
  analyzer_ = std::move(analyzer);
  return Status::OK();
}

txt::Analysis SummaryInstance::TokenizeBody(const ann::Annotation& note) {
  return analyzer_->Analyze(note.body);
}

void SummaryInstance::Compile() {
  if (classifier_ != nullptr) classifier_->Compile();
}

template <typename T, typename Compute>
T SummaryInstance::Memoized(std::unordered_map<ann::AnnotationId, T>* cache,
                            ann::AnnotationId id, const Compute& compute) {
  const bool once = properties_.SummarizeOnceEligible();
  if (once) {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    auto it = cache->find(id);
    if (it != cache->end()) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  T value = compute();
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  if (once) {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    cache->emplace(id, value);
  }
  return value;
}

size_t SummaryInstance::ClassifyAnnotation(const ann::Annotation& note,
                                           const txt::Analysis* body) {
  // With a body the classifier only reads its compiled tables, so
  // concurrent shards classify unlocked.
  return Memoized(&label_cache_, note.id, [&] {
    return body != nullptr ? classifier_->Classify(body->terms)
                           : classifier_->Classify(note.body);
  });
}

void SummaryInstance::VectorizeAnnotation(const ann::Annotation& note,
                                          const txt::Analysis* body) {
  // Vectorization is invariant even when cluster assignment is not. The
  // vector is ALWAYS retained here — cluster objects resolve member vectors
  // through this store so they stay lightweight. The invariant property
  // only controls whether a stored vector is *reused* (the summarize-once
  // optimization) or recomputed for accounting purposes.
  if (properties_.data_invariant && vectors_.Contains(note.id)) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  txt::Analysis own;
  if (body == nullptr) {
    own = TokenizeBody(note);
    body = &own;
  }
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  // A vector already stored for this id is identical and stays.
  vectors_.Commit(note.id, txt::SparseVector::FromTermIds(body->terms));
}

std::string SummaryInstance::SummarizeDocument(const ann::Annotation& note,
                                               const txt::Analysis* body) {
  // The extractor is stateless: concurrent shards summarize unlocked.
  return Memoized(&snippet_cache_, note.id, [&] {
    if (body != nullptr) return extractor_->Summarize(note.body, *body);
    return extractor_->Summarize(note.body, TokenizeBody(note));
  });
}

void SummaryInstance::CommitVector(ann::AnnotationId id, const txt::Analysis& body) {
  if (vectors_.Contains(id)) return;  // Shared annotation: commit once.
  vectors_.Commit(id, txt::SparseVector::FromTermIds(body.terms));
}

void SummaryInstance::GetVectors(std::span<const mining::DocId> docs,
                                 std::vector<const txt::SparseVector*>* out) const {
  std::vector<const mining::DocVector*> stored;
  vectors_.GetVectors(docs, &stored);
  out->resize(docs.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    (*out)[i] = stored[i] == nullptr ? nullptr : &stored[i]->vector;
  }
}

void SummaryInstance::ClearCaches() {
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    label_cache_.clear();
    snippet_cache_.clear();
  }
  vectors_.Clear();
}

}  // namespace insightnotes::core
