// Parallel annotation-ingestion determinism: AnnotateBatch with N threads
// must leave the engine in a state byte-identical (serialized summary
// snapshots) to serial ingest of the same specs — the guarantee of
// DESIGN.md's concurrency model. Per-tuple summary state is partitioned by
// row across shards; cluster vocabulary growth is committed in a serial,
// batch-order pre-pass.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "core/zoom_in.h"
#include "testutil.h"
#include "workload/annotation_gen.h"
#include "workload/workload.h"

namespace insightnotes::core {
namespace {

constexpr size_t kRows = 24;

workload::WorkloadConfig BaseConfig() {
  workload::WorkloadConfig config;
  config.num_species = kRows;
  config.annotations_per_tuple = 0;  // Annotations come from the batch.
  return config;
}

std::unique_ptr<Engine> FreshEngine() {
  auto engine = std::make_unique<Engine>();
  EXPECT_TRUE(engine->Init().ok());
  workload::WorkloadBuilder builder(BaseConfig());
  EXPECT_TRUE(builder.BuildBase(engine.get()).ok());
  return engine;
}

/// A mixed batch across all rows: comments and documents, whole-row and
/// per-cell targets, deterministic under `seed`.
std::vector<AnnotateSpec> MakeBatch(size_t count, uint64_t seed) {
  workload::AnnotationGenerator gen(seed);
  const auto& species = workload::CuratedSpecies();
  std::vector<AnnotateSpec> specs;
  specs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const auto& sp = species[i % species.size()];
    bool document = i % 7 == 0;
    auto g = document ? gen.GenerateDocument(sp, 6) : gen.GenerateComment(sp);
    AnnotateSpec spec;
    spec.table = "birds";
    spec.row = static_cast<rel::RowId>((i * 13) % kRows);
    spec.body = g.annotation.body;
    spec.author = g.annotation.author;
    spec.kind = g.annotation.kind;
    spec.title = g.annotation.title;
    spec.timestamp = static_cast<int64_t>(i);
    if (i % 3 == 0) spec.columns = {i % 5};
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Serialized snapshot of every row's summary objects — the byte-identity
/// fingerprint of the maintained summarization state.
std::string SummaryFingerprint(Engine* engine) {
  auto scan = engine->MakeScan("birds");
  EXPECT_TRUE(scan.ok());
  rel::Schema schema = (*scan)->OutputSchema();
  std::vector<AnnotatedTuple> rows = testutil::DrainRows(scan->get());
  auto snapshot = ResultSnapshot::Capture(schema, rows);
  EXPECT_TRUE(snapshot.ok());
  std::string bytes;
  snapshot->Serialize(&bytes);
  return bytes;
}

TEST(ParallelIngestTest, BatchSerialMatchesPerSpecAnnotate) {
  auto specs = MakeBatch(200, 17);

  auto loop_engine = FreshEngine();
  for (const AnnotateSpec& spec : specs) {
    ASSERT_TRUE(loop_engine->Annotate(spec).ok());
  }

  auto batch_engine = FreshEngine();
  auto ids = batch_engine->AnnotateBatch(specs, {.num_threads = 1});
  ASSERT_TRUE(ids.ok());
  ASSERT_EQ(ids->size(), specs.size());

  EXPECT_EQ(SummaryFingerprint(loop_engine.get()),
            SummaryFingerprint(batch_engine.get()));
}

TEST(ParallelIngestTest, ParallelIngestIsByteIdenticalToSerial) {
  auto specs = MakeBatch(400, 23);

  auto serial = FreshEngine();
  ASSERT_TRUE(serial->AnnotateBatch(specs, {.num_threads = 1}).ok());
  std::string serial_bytes = SummaryFingerprint(serial.get());
  ASSERT_FALSE(serial_bytes.empty());

  for (size_t threads : {2, 4, 8}) {
    auto parallel = FreshEngine();
    auto ids = parallel->AnnotateBatch(specs, {.num_threads = threads});
    ASSERT_TRUE(ids.ok()) << "threads=" << threads;
    EXPECT_EQ(serial_bytes, SummaryFingerprint(parallel.get()))
        << "threads=" << threads;
  }
}

TEST(ParallelIngestTest, RepeatedParallelRunsAreStable) {
  // Rerunning the same parallel ingest must reproduce the same bytes —
  // thread scheduling may not leak into summary state.
  auto specs = MakeBatch(150, 31);
  std::string first;
  for (int run = 0; run < 3; ++run) {
    auto engine = FreshEngine();
    ASSERT_TRUE(engine->AnnotateBatch(specs, {.num_threads = 4}).ok());
    std::string bytes = SummaryFingerprint(engine.get());
    if (run == 0) {
      first = bytes;
    } else {
      EXPECT_EQ(first, bytes) << "run=" << run;
    }
  }
}

TEST(ParallelIngestTest, IdsAssignedInSpecOrder) {
  auto engine = FreshEngine();
  auto specs = MakeBatch(50, 5);
  auto ids = engine->AnnotateBatch(specs, {.num_threads = 4});
  ASSERT_TRUE(ids.ok());
  ASSERT_EQ(ids->size(), 50u);
  for (size_t i = 0; i < ids->size(); ++i) {
    EXPECT_EQ((*ids)[i], static_cast<ann::AnnotationId>(i));
  }
  EXPECT_EQ(engine->annotations()->NumAnnotations(), 50u);
}

TEST(ParallelIngestTest, BatchValidatesUpFront) {
  auto engine = FreshEngine();
  auto specs = MakeBatch(10, 3);
  specs[7].row = 9999;  // Invalid: must fail the whole batch before ingest.
  auto ids = engine->AnnotateBatch(specs, {.num_threads = 4});
  EXPECT_TRUE(ids.status().IsNotFound());
  EXPECT_EQ(engine->annotations()->NumAnnotations(), 0u);
  EXPECT_EQ(engine->summaries()->NumMaintainedRows(), 0u);
}

TEST(ParallelIngestTest, ZoomInSeesParallelIngestedAnnotations) {
  auto engine = FreshEngine();
  auto specs = MakeBatch(120, 11);
  ASSERT_TRUE(engine->AnnotateBatch(specs, {.num_threads = 4}).ok());

  auto scan = engine->MakeScan("birds");
  ASSERT_TRUE(scan.ok());
  auto result = engine->Execute(std::move(*scan));
  ASSERT_TRUE(result.ok());

  ZoomInRequest request;
  request.qid = result->qid;
  request.instance_name = "ClassBird1";
  request.component_index = 0;
  auto zoom = engine->ZoomIn(request);
  ASSERT_TRUE(zoom.ok());
  // Every annotation id surfaced by zoom-in must resolve in the store.
  size_t resolved = 0;
  for (const auto& row : zoom->rows) {
    for (const auto& note : row.annotations) {
      EXPECT_FALSE(note.body.empty());
      ++resolved;
    }
  }
  EXPECT_GT(resolved, 0u);
}

}  // namespace
}  // namespace insightnotes::core
