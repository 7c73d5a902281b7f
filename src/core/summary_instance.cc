#include "core/summary_instance.h"

#include "core/summary_object.h"

namespace insightnotes::core {

std::unique_ptr<SummaryInstance> SummaryInstance::MakeClassifier(
    std::string name, std::vector<std::string> labels, SummaryProperties properties) {
  auto instance = std::unique_ptr<SummaryInstance>(new SummaryInstance(
      std::move(name), SummaryTypeKind::kClassifier, properties));
  instance->classifier_ =
      std::make_unique<mining::NaiveBayesClassifier>(std::move(labels));
  return instance;
}

std::unique_ptr<SummaryInstance> SummaryInstance::MakeCluster(
    std::string name, double threshold, SummaryProperties properties) {
  // Cluster assignment inspects the tuple's existing groups, so the result
  // of summarizing an annotation is not annotation-invariant by definition.
  properties.annotation_invariant = false;
  auto instance = std::unique_ptr<SummaryInstance>(
      new SummaryInstance(std::move(name), SummaryTypeKind::kCluster, properties));
  instance->vectorizer_ = std::make_unique<mining::TextVectorizer>();
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

size_t SummaryInstance::ClassifyAnnotation(const ann::Annotation& note) {
  if (properties_.SummarizeOnceEligible()) {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    auto it = label_cache_.find(note.id);
    if (it != label_cache_.end()) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // The classifier is const/stateless: concurrent shards classify unlocked.
  size_t label = classifier_->Classify(note.body);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  if (properties_.SummarizeOnceEligible()) label_cache_.emplace(note.id, label);
  return label;
}

void SummaryInstance::VectorizeAnnotation(const ann::Annotation& note) {
  // Vectorization is invariant even when cluster assignment is not. The
  // vector is ALWAYS retained here — cluster objects resolve member vectors
  // through this store so they stay lightweight. The invariant property
  // only controls whether a stored vector is *reused* (the summarize-once
  // optimization) or recomputed for accounting purposes.
  if (properties_.data_invariant && vectors_.Contains(note.id)) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  txt::SparseVector vec;
  {
    // The vectorizer grows the shared vocabulary: serialize it. Parallel
    // ingest avoids this path by committing tokens up front (CommitTokens),
    // so only non-data-invariant recomputation contends here.
    std::lock_guard<std::mutex> lock(kernel_mutex_);
    vec = vectorizer_->Vectorize(note.body);
  }
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  // A vector already stored for this id is identical and stays.
  vectors_.Commit(note.id, std::move(vec));
}

std::string SummaryInstance::SummarizeDocument(const ann::Annotation& note) {
  if (properties_.SummarizeOnceEligible()) {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    auto it = snippet_cache_.find(note.id);
    if (it != snippet_cache_.end()) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // The extractor is const/stateless: concurrent shards summarize unlocked.
  std::string snippet = extractor_->Summarize(note.body);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  if (properties_.SummarizeOnceEligible()) snippet_cache_.emplace(note.id, snippet);
  return snippet;
}

std::vector<std::string> SummaryInstance::TokenizeBody(const ann::Annotation& note) const {
  if (vectorizer_ == nullptr) return {};
  return vectorizer_->tokenizer().Tokenize(note.body);
}

void SummaryInstance::CommitTokens(ann::AnnotationId id,
                                   const std::vector<std::string>& tokens) {
  if (vectorizer_ == nullptr) return;
  if (vectors_.Contains(id)) return;  // Shared annotation: commit once.
  txt::SparseVector vec;
  {
    std::lock_guard<std::mutex> lock(kernel_mutex_);
    vec = vectorizer_->VectorizeTokens(tokens);
  }
  vectors_.Commit(id, std::move(vec));
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
