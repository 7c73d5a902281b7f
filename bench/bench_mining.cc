// Experiment E7 — mining-kernel microbenchmarks: the per-annotation cost of
// each summarization technique in isolation (Naive Bayes classification,
// online clustering insert, extractive snippet generation, tokenization and
// sparse-vector ops). These are the unit costs the maintenance experiments
// (E1) compose.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "mining/clustering.h"
#include "mining/naive_bayes.h"
#include "mining/snippets.h"
#include "txt/analyzer.h"
#include "txt/tokenizer.h"
#include "workload/annotation_gen.h"

namespace insightnotes::bench {
namespace {

std::vector<std::string> SampleComments(size_t n, uint64_t seed) {
  workload::AnnotationGenerator gen(seed);
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(
        gen.GenerateComment(workload::CuratedSpecies()[i % 20]).annotation.body);
  }
  return out;
}

void BM_Tokenize(benchmark::State& state) {
  txt::Tokenizer tokenizer;
  auto comments = SampleComments(256, 3);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenizer.Tokenize(comments[i++ % comments.size()]));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_Tokenize);

/// The ingest path's one analysis of a body: term ids through the shared
/// analyzer, whose surface-form memo is warm after the first pass over the
/// sample (as it is after a few hundred annotations of ingest).
void BM_AnalyzeAnnotation(benchmark::State& state) {
  txt::Analyzer analyzer;
  auto comments = SampleComments(256, 3);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.Analyze(comments[i++ % comments.size()]));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_AnalyzeAnnotation);

void BM_NaiveBayesTrain(benchmark::State& state) {
  auto comments = SampleComments(256, 5);
  mining::NaiveBayesClassifier nb({"a", "b", "c", "d"});
  size_t i = 0;
  for (auto _ : state) {
    Check(nb.Train(i % 4, comments[i % comments.size()]), "train");
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_NaiveBayesTrain);

void BM_NaiveBayesClassify(benchmark::State& state) {
  mining::NaiveBayesClassifier nb({"Behavior", "Disease", "Anatomy", "Other"});
  for (const auto& [label, text] : workload::AnnotationGenerator::ClassBird1Training()) {
    Check(nb.Train(label, text), "train");
  }
  // Ingest classifies bodies the analyzer already turned into term ids,
  // over the compiled tables.
  nb.Compile();
  std::vector<std::vector<txt::TermId>> bodies;
  for (const std::string& comment : SampleComments(256, 7)) {
    bodies.push_back(nb.analyzer()->Analyze(comment).terms);
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nb.Classify(bodies[i++ % bodies.size()]));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_NaiveBayesClassify);

void BM_ClusterInsert(benchmark::State& state) {
  size_t preexisting = static_cast<size_t>(state.range(0));
  txt::Analyzer analyzer;
  mining::DocVectorStore store;
  mining::ClusterSet clusters(&store, 0.35);
  auto comments = SampleComments(preexisting + 4096, 9);
  // Analyses, commits (a restarted pool keeps its first vectors) and
  // clusters one comment.
  auto add = [&](mining::DocId doc) {
    store.Commit(doc, txt::SparseVector::FromTermIds(analyzer.Analyze(comments[doc]).terms));
    Check(clusters.Add(doc).status(), "add");
  };
  mining::DocId next = 0;
  for (size_t i = 0; i < preexisting; ++i) add(next++);
  for (auto _ : state) {
    if (next >= comments.size()) {
      // Pool exhausted: restart from the preloaded baseline.
      state.PauseTiming();
      clusters = mining::ClusterSet(&store, 0.35);
      next = 0;
      while (next < preexisting) add(next++);
      state.ResumeTiming();
    }
    add(next++);
  }
  state.SetLabel("preexisting=" + std::to_string(preexisting));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ClusterInsert)->Arg(0)->Arg(100)->Arg(1000);

void BM_SnippetExtraction(benchmark::State& state) {
  size_t sentences = static_cast<size_t>(state.range(0));
  workload::AnnotationGenerator gen(11);
  auto doc = gen.GenerateDocument(workload::CuratedSpecies()[0], sentences);
  mining::SnippetExtractor extractor;
  txt::Analyzer analyzer;
  for (auto _ : state) {
    const std::string& body = doc.annotation.body;
    benchmark::DoNotOptimize(extractor.Summarize(body, analyzer.Analyze(body)));
  }
  state.SetLabel("sentences=" + std::to_string(sentences));
}
BENCHMARK(BM_SnippetExtraction)->Arg(5)->Arg(20)->Arg(100)->Unit(benchmark::kMicrosecond);

void BM_SparseCosine(benchmark::State& state) {
  txt::Analyzer analyzer;
  auto comments = SampleComments(64, 13);
  std::vector<txt::SparseVector> vectors;
  for (const auto& c : comments) {
    vectors.push_back(txt::SparseVector::FromTermIds(analyzer.Analyze(c).terms));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        vectors[i % vectors.size()].Cosine(vectors[(i + 1) % vectors.size()]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SparseCosine);

/// Clone cost of a populated summary object — the unit cost of carrying a
/// summary through one pipeline stage (COW: should be ~O(1)).
void BM_SummaryObjectClone(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto instance = core::SummaryInstance::MakeCluster("c", 0.35);
  auto object = instance->NewObject();
  workload::AnnotationGenerator gen(15);
  for (size_t i = 0; i < n; ++i) {
    auto g = gen.GenerateComment(workload::CuratedSpecies()[i % 20]);
    g.annotation.id = i;
    Check(object->AddAnnotation(g.annotation), "add");
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(object->Clone());
  }
  state.SetLabel("annotations=" + std::to_string(n));
}
BENCHMARK(BM_SummaryObjectClone)->Arg(10)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace insightnotes::bench

BENCHMARK_MAIN();
