#include "mining/naive_bayes.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
#include <unordered_map>

#include "core/engine.h"
#include "core/summary_object.h"
#include "txt/tokenizer.h"
#include "txt/vocabulary.h"
#include "workload/annotation_gen.h"
#include "workload/workload.h"

namespace insightnotes::mining {
namespace {

/// The string-keyed scorer the compiled tables replaced, kept verbatim as
/// the oracle: its own tokenizer and vocabulary, a hash-map probe and a
/// logarithm per (label, token).
class ReferenceNaiveBayes {
 public:
  explicit ReferenceNaiveBayes(size_t labels)
      : term_counts_(labels), total_terms_(labels, 0), doc_counts_(labels, 0) {}

  void Train(size_t label, std::string_view text) {
    for (const std::string& token : tokenizer_.Tokenize(text)) {
      ++term_counts_[label][vocab_.GetOrAdd(token)];
      ++total_terms_[label];
    }
    ++doc_counts_[label];
    ++num_docs_;
  }

  std::vector<double> Scores(std::string_view text) const {
    std::vector<std::string> tokens = tokenizer_.Tokenize(text);
    size_t l = term_counts_.size();
    std::vector<double> scores(l, 0.0);
    double vocab_size = static_cast<double>(vocab_.size());
    for (size_t c = 0; c < l; ++c) {
      scores[c] = std::log((static_cast<double>(doc_counts_[c]) + 1.0) /
                           (static_cast<double>(num_docs_) + static_cast<double>(l)));
      double denom = static_cast<double>(total_terms_[c]) + vocab_size + 1.0;
      for (const std::string& token : tokens) {
        txt::TermId id = vocab_.Lookup(token);
        if (id == txt::kInvalidTermId) continue;
        double count = 0.0;
        auto it = term_counts_[c].find(id);
        if (it != term_counts_[c].end()) count = it->second;
        scores[c] += std::log((count + 1.0) / denom);
      }
    }
    return scores;
  }

  size_t Classify(std::string_view text) const {
    std::vector<double> scores = Scores(text);
    size_t best = 0;
    for (size_t c = 1; c < scores.size(); ++c) {
      if (scores[c] > scores[best]) best = c;
    }
    return best;
  }

 private:
  txt::Tokenizer tokenizer_;
  txt::Vocabulary vocab_;
  std::vector<std::unordered_map<txt::TermId, uint32_t>> term_counts_;
  std::vector<uint64_t> total_terms_;
  std::vector<uint64_t> doc_counts_;
  uint64_t num_docs_ = 0;
};

/// The bit patterns of `scores`: equal only if every double is bitwise
/// equal.
std::vector<uint64_t> Bits(const std::vector<double>& scores) {
  std::vector<uint64_t> bits;
  for (double s : scores) bits.push_back(std::bit_cast<uint64_t>(s));
  return bits;
}

/// Generated comments of every class and documents.
std::vector<std::string> Corpus(uint64_t seed, size_t n) {
  workload::AnnotationGenerator gen(seed);
  const auto& species = workload::CuratedSpecies();
  std::vector<std::string> texts;
  for (size_t i = 0; i < n; ++i) {
    const auto& sp = species[i % species.size()];
    texts.push_back(i % 25 == 0 ? gen.GenerateDocument(sp, 5).annotation.body
                                : gen.GenerateComment(sp).annotation.body);
  }
  return texts;
}

// The ornithological labels from the paper's ClassBird1 instance.
NaiveBayesClassifier BirdClassifier() {
  NaiveBayesClassifier nb({"Behavior", "Disease", "Anatomy", "Other"});
  // Behavior.
  EXPECT_TRUE(nb.Train(0, "found eating stonewort near the shore").ok());
  EXPECT_TRUE(nb.Train(0, "observed flying south in large flocks migrating").ok());
  EXPECT_TRUE(nb.Train(0, "aggressive behavior during nesting season").ok());
  EXPECT_TRUE(nb.Train(0, "foraging and eating aquatic plants at dusk").ok());
  // Disease.
  EXPECT_TRUE(nb.Train(1, "signs of avian influenza infection detected").ok());
  EXPECT_TRUE(nb.Train(1, "sick individual with parasite infestation").ok());
  EXPECT_TRUE(nb.Train(1, "lesions suggest fungal disease on the beak").ok());
  // Anatomy.
  EXPECT_TRUE(nb.Train(2, "large one having size around 3 kilograms").ok());
  EXPECT_TRUE(nb.Train(2, "long neck and orange beak with white feathers").ok());
  EXPECT_TRUE(nb.Train(2, "wingspan measured at 160 centimeters body weight high").ok());
  // Other.
  EXPECT_TRUE(nb.Train(3, "see related wikipedia article for details").ok());
  EXPECT_TRUE(nb.Train(3, "photo attached from the trip last weekend").ok());
  return nb;
}

TEST(NaiveBayesTest, ClassifiesDomainExamples) {
  auto nb = BirdClassifier();
  EXPECT_EQ(nb.Classify("the goose was eating stonewort"), 0u);       // Behavior.
  EXPECT_EQ(nb.Classify("infected with avian influenza parasite"), 1u);  // Disease.
  EXPECT_EQ(nb.Classify("body size and wingspan measured"), 2u);      // Anatomy.
}

TEST(NaiveBayesTest, PriorsBreakTiesForUnknownText) {
  NaiveBayesClassifier nb({"a", "b"});
  ASSERT_TRUE(nb.Train(0, "alpha words here").ok());
  ASSERT_TRUE(nb.Train(0, "more alpha content").ok());
  ASSERT_TRUE(nb.Train(1, "beta text").ok());
  // Tokens unknown to the model: decided by the prior (label 0 trained more).
  EXPECT_EQ(nb.Classify("zzz qqq"), 0u);
}

TEST(NaiveBayesTest, UntrainedModelDefaultsToFirstLabel) {
  NaiveBayesClassifier nb({"x", "y", "z"});
  EXPECT_EQ(nb.Classify("anything at all"), 0u);
  EXPECT_EQ(nb.num_training_docs(), 0u);
}

TEST(NaiveBayesTest, TrainValidatesLabel) {
  NaiveBayesClassifier nb({"only"});
  EXPECT_TRUE(nb.Train(1, "oops").IsInvalidArgument());
  EXPECT_TRUE(nb.Train(0, "fine").ok());
}

TEST(NaiveBayesTest, ScoresAreFiniteAndOrdered) {
  auto nb = BirdClassifier();
  auto scores = nb.Scores("eating and foraging behavior");
  ASSERT_EQ(scores.size(), 4u);
  for (double s : scores) {
    EXPECT_TRUE(std::isfinite(s));
    EXPECT_LT(s, 0.0);  // Log probabilities.
  }
  EXPECT_GT(scores[0], scores[1]);
  EXPECT_GT(scores[0], scores[3]);
}

TEST(NaiveBayesTest, IncrementalTrainingShiftsDecision) {
  NaiveBayesClassifier nb({"refute", "approve"});
  ASSERT_TRUE(nb.Train(0, "value is wrong incorrect mistaken").ok());
  ASSERT_TRUE(nb.Train(1, "confirmed correct verified").ok());
  EXPECT_EQ(nb.Classify("this is wrong"), 0u);
  // Teach it that "suspicious" means refute.
  EXPECT_EQ(nb.Classify("suspicious suspicious suspicious"), 0u);  // Prior tie -> 0 anyway.
  ASSERT_TRUE(nb.Train(1, "suspicious but confirmed correct").ok());
  ASSERT_TRUE(nb.Train(1, "suspicious reading verified fine").ok());
  EXPECT_EQ(nb.Classify("suspicious"), 1u);
}

TEST(NaiveBayesTest, StemmingUnifiesInflections) {
  NaiveBayesClassifier nb({"feeding", "nesting"});
  ASSERT_TRUE(nb.Train(0, "eating eats feeding fed").ok());
  ASSERT_TRUE(nb.Train(1, "nest nests nesting").ok());
  EXPECT_EQ(nb.Classify("it was eating"), 0u);
  EXPECT_EQ(nb.Classify("building a nest"), 1u);
}

TEST(NaiveBayesTest, VocabularyGrowsWithTraining) {
  NaiveBayesClassifier nb({"a"});
  size_t before = nb.vocabulary_size();
  ASSERT_TRUE(nb.Train(0, "completely novel terminology stonewort").ok());
  EXPECT_GT(nb.vocabulary_size(), before);
}

TEST(NaiveBayesTest, CompiledScoresAreBitwiseEqualToTheStringScorer) {
  const std::vector<std::string> labels1 = {"Behavior", "Disease", "Anatomy", "Other"};
  const std::vector<std::string> labels2 = {"Provenance", "Comment", "Question"};
  for (const auto& [labels, training] :
       {std::pair{labels1, workload::AnnotationGenerator::ClassBird1Training()},
        std::pair{labels2, workload::AnnotationGenerator::ClassBird2Training()}}) {
    NaiveBayesClassifier nb(labels);
    ReferenceNaiveBayes reference(labels.size());
    for (const auto& [label, text] : training) {
      ASSERT_TRUE(nb.Train(label, text).ok());
      reference.Train(label, text);
    }
    const std::vector<std::string> corpus = Corpus(3, 1500);
    std::vector<size_t> per_label(labels.size(), 0);
    for (const std::string& text : corpus) {
      EXPECT_EQ(Bits(nb.Scores(text)), Bits(reference.Scores(text))) << text;
      const size_t label = nb.Classify(text);
      EXPECT_EQ(label, reference.Classify(text)) << text;
      ++per_label[label];
    }
    // The corpus exercises every label, not one default.
    for (size_t count : per_label) EXPECT_GT(count, 0u);
  }
}

TEST(NaiveBayesTest, EqualScoresGoToTheLowerLabel) {
  NaiveBayesClassifier nb({"heron", "goose1", "goose2"});
  ASSERT_TRUE(nb.Train(0, "heron wading").ok());
  ASSERT_TRUE(nb.Train(1, "goose honking").ok());
  ASSERT_TRUE(nb.Train(2, "goose honking").ok());
  const std::vector<double> scores = nb.Scores("goose goose honking");
  EXPECT_EQ(std::bit_cast<uint64_t>(scores[1]), std::bit_cast<uint64_t>(scores[2]));
  EXPECT_GT(scores[1], scores[0]);
  EXPECT_EQ(nb.Classify("goose goose honking"), 1u);

  // Identically trained labels tie on every text.
  NaiveBayesClassifier twins({"a", "b", "c"});
  for (size_t label : {2, 1, 0}) {
    ASSERT_TRUE(twins.Train(label, "goose eating stonewort near the shore").ok());
  }
  for (const char* text : {"goose", "stonewort shore heron", "", "unseen words"}) {
    const std::vector<double> tied = twins.Scores(text);
    EXPECT_EQ(Bits({tied[0], tied[0], tied[0]}), Bits(tied)) << text;
    EXPECT_EQ(twins.Classify(text), 0u) << text;
  }
}

TEST(NaiveBayesTest, OutOfVocabularyTextScoresThePriorOnly) {
  auto nb = BirdClassifier();  // Docs per label: 4, 3, 3, 2 of 12.
  const double docs[] = {4.0, 3.0, 3.0, 2.0};
  const size_t vocabulary = nb.vocabulary_size();
  // The first pass interns these words into the analyzer; they stay out of
  // the model's vocabulary, so the second pass scores the prior alone too.
  for (int pass = 0; pass < 2; ++pass) {
    for (const char* text : {"zebra xylophone quokka", "", "the and of it"}) {
      const std::vector<double> scores = nb.Scores(text);
      ASSERT_EQ(scores.size(), 4u);
      for (size_t c = 0; c < 4; ++c) {
        EXPECT_EQ(std::bit_cast<uint64_t>(scores[c]),
                  std::bit_cast<uint64_t>(std::log((docs[c] + 1.0) / (12.0 + 4.0))))
            << text << " label " << c;
      }
      EXPECT_EQ(nb.Classify(text), 0u);
    }
  }
  EXPECT_EQ(nb.vocabulary_size(), vocabulary);
}

TEST(NaiveBayesTest, TrainAfterClassifyRecompiles) {
  const auto training = workload::AnnotationGenerator::ClassBird1Training();
  NaiveBayesClassifier nb({"Behavior", "Disease", "Anatomy", "Other"});
  ReferenceNaiveBayes reference(4);
  const std::vector<std::string> corpus = Corpus(5, 300);
  for (size_t i = 0; i < training.size(); ++i) {
    ASSERT_TRUE(nb.Train(training[i].first, training[i].second).ok());
    reference.Train(training[i].first, training[i].second);
    EXPECT_FALSE(nb.compiled());
    // Classify between every training step: each recompiles first.
    const std::string& text = corpus[i % corpus.size()];
    EXPECT_EQ(Bits(nb.Scores(text)), Bits(reference.Scores(text))) << i;
    EXPECT_TRUE(nb.compiled());
  }
  for (const std::string& text : corpus) {
    EXPECT_EQ(Bits(nb.Scores(text)), Bits(reference.Scores(text)));
  }
}

/// label of every annotation in `instance`'s objects on the birds table.
std::map<ann::AnnotationId, size_t> LabelsOf(core::Engine* engine, const std::string& instance) {
  std::map<ann::AnnotationId, size_t> labels;
  auto scan = engine->MakeScan("birds");
  EXPECT_TRUE(scan.ok());
  auto result = engine->Execute(std::move(*scan));
  EXPECT_TRUE(result.ok());
  for (const auto& row : result->rows) {
    for (const auto& object : row.summaries) {
      if (object->instance_name() != instance) continue;
      for (size_t c = 0; c < object->NumComponents(); ++c) {
        const auto ids = object->ZoomIn(c);
        EXPECT_TRUE(ids.ok());
        for (ann::AnnotationId id : *ids) labels[id] = c;
      }
    }
  }
  return labels;
}

TEST(NaiveBayesTest, RegistrationBindsTrainedAndUntrainedInstances) {
  core::Engine engine;
  ASSERT_TRUE(engine.Init().ok());
  workload::WorkloadConfig config;
  config.num_species = 12;
  config.annotations_per_tuple = 0;
  config.with_classifier1 = config.with_classifier2 = false;
  config.with_cluster = config.with_snippet = false;
  ASSERT_TRUE(workload::WorkloadBuilder(config).BuildBase(&engine).ok());
  const std::vector<std::string> labels = {"Behavior", "Disease", "Anatomy", "Other"};
  const auto training = workload::AnnotationGenerator::ClassBird1Training();
  ReferenceNaiveBayes reference(labels.size());
  for (const auto& [label, text] : training) reference.Train(label, text);

  // Trained standalone, on its own analyzer, then registered: the model
  // moves onto the engine's analyzer unchanged.
  auto before = core::SummaryInstance::MakeClassifier("Before", labels);
  for (const auto& [label, text] : training) {
    ASSERT_TRUE(before->classifier()->Train(label, text).ok());
  }
  const std::vector<double> standalone = before->classifier()->Scores("eating wingspan flu");
  const size_t vocabulary = before->classifier()->vocabulary_size();
  core::SummaryInstance* trained_first = before.get();
  ASSERT_TRUE(engine.RegisterInstance(std::move(before)).ok());
  EXPECT_EQ(trained_first->analyzer(), engine.summaries()->analyzer());
  EXPECT_EQ(trained_first->classifier()->analyzer(), engine.summaries()->analyzer());
  EXPECT_EQ(trained_first->classifier()->vocabulary_size(), vocabulary);
  EXPECT_EQ(Bits(trained_first->classifier()->Scores("eating wingspan flu")), Bits(standalone));
  ASSERT_TRUE(engine.LinkInstance("Before", "birds").ok());

  // Registered and linked untrained, trained afterwards.
  ASSERT_TRUE(engine.RegisterInstance(core::SummaryInstance::MakeClassifier("After", labels)).ok());
  ASSERT_TRUE(engine.LinkInstance("After", "birds").ok());
  auto after = engine.summaries()->GetInstance("After");
  ASSERT_TRUE(after.ok());
  for (const auto& [label, text] : training) {
    ASSERT_TRUE((*after)->classifier()->Train(label, text).ok());
  }

  const std::vector<std::string> corpus = Corpus(11, 240);
  std::vector<core::AnnotateSpec> specs;
  for (size_t i = 0; i < corpus.size(); ++i) {
    core::AnnotateSpec spec;
    spec.table = "birds";
    spec.row = i % config.num_species;
    spec.body = corpus[i];
    specs.push_back(std::move(spec));
  }
  ASSERT_TRUE(engine.AnnotateBatch({specs.data(), 120}, {.num_threads = 4}).ok());
  for (size_t i = 120; i < specs.size(); ++i) ASSERT_TRUE(engine.Annotate(specs[i]).ok());

  for (const char* name : {"Before", "After"}) {
    const std::map<ann::AnnotationId, size_t> labeled = LabelsOf(&engine, name);
    ASSERT_EQ(labeled.size(), corpus.size()) << name;
    for (const auto& [id, label] : labeled) {
      EXPECT_EQ(label, reference.Classify(corpus[id])) << name << " annotation " << id;
    }
  }
}

}  // namespace
}  // namespace insightnotes::mining
