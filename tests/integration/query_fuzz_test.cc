// Differential query fuzzer: a seeded generator emits ~200 random SELECTs
// — filter/projection/join/cross-product/aggregate/DISTINCT/ORDER BY/LIMIT
// mixes, with and without summary predicates — over a seeded annotated
// dataset, and every query must produce BYTE-IDENTICAL results (tuples,
// merged summary objects, attachment metadata, order) when executed with
// one worker and at parallelism 2 and 8 under two morsel sizes. This locks
// in the whole plan space at once: partial aggregation/sort/distinct, the
// top-k LIMIT pushdown and its shared-bound pruning, and the no-ORDER-BY
// row-quota path all sit under the same oracle. The scan/filter/project/
// join fragment is also checked against an independent implementation,
// core::RawPropagationEngine.
//
// A failure prints the offending SQL plus the seed; replay with
// INSIGHTNOTES_FUZZ_SEED=<seed>. The fixed default seed keeps CI runs
// (tier-1 and TSAN, see .github/workflows/ci.yml) deterministic.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/raw_baseline.h"
#include "exec/query_context.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "sql/session.h"
#include "testutil.h"

namespace insightnotes {
namespace {

using sql::AstExpr;
using testutil::EngineFixture;
using testutil::I;
using testutil::S;

constexpr uint64_t kDefaultSeed = 20260806;
constexpr int kNumQueries = 200;
constexpr int64_t kFactRows = 120;
constexpr int64_t kDimRows = 10;

uint64_t FuzzSeed() {
  const char* env = std::getenv("INSIGHTNOTES_FUZZ_SEED");
  if (env != nullptr && *env != '\0') {
    return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  return kDefaultSeed;
}

class QueryFuzzTest : public EngineFixture {
 protected:
  void SetUp() override {
    EngineFixture::SetUp();
    CreateFigure2Tables();
    CreateFigure2Instances();
    CreateDataset();
  }

  /// t(id, grp, val, txt) joins d(k, name) on grp = k. Heavy annotation
  /// coverage (including shared attachments) so summary merging is part of
  /// every oracle comparison; duplicate grp/val/txt values guarantee sort
  /// ties straddling LIMIT boundaries and non-trivial DISTINCT folds.
  void CreateDataset() {
    CreateDatasetTables();
    AnnotateDataset();
  }

  /// Tables, rows and instance links only — the configuration half, which
  /// a file-backed reopen must replay by hand (the WAL replays the
  /// annotations itself; see PersistedIndexFuzzTest).
  void CreateDatasetTables() {
    ASSERT_TRUE(engine_
                    ->CreateTable("t",
                                  rel::Schema({{"id", rel::ValueType::kInt64, "t"},
                                               {"grp", rel::ValueType::kInt64, "t"},
                                               {"val", rel::ValueType::kInt64, "t"},
                                               {"txt", rel::ValueType::kString, "t"}}))
                    .ok());
    ASSERT_TRUE(engine_
                    ->CreateTable("d",
                                  rel::Schema({{"k", rel::ValueType::kInt64, "d"},
                                               {"name", rel::ValueType::kString, "d"}}))
                    .ok());
    Random rng(11);
    for (int64_t i = 0; i < kFactRows; ++i) {
      ASSERT_TRUE(engine_
                      ->Insert("t", rel::Tuple({I(i), I(i % kDimRows),
                                                I(static_cast<int64_t>(rng.Uniform(50))),
                                                S("s" + std::to_string(i % 9))}))
                      .ok());
    }
    for (int64_t k = 0; k < kDimRows; ++k) {
      ASSERT_TRUE(
          engine_->Insert("d", rel::Tuple({I(k), S("g" + std::to_string(k))})).ok());
    }
    ASSERT_TRUE(engine_->LinkInstance("ClassBird1", "t").ok());
    ASSERT_TRUE(engine_->LinkInstance("SimCluster", "t").ok());
  }

  void AnnotateDataset() {
    Random rng(12);
    const std::vector<std::string> bodies = {
        "found eating stonewort near the shore",
        "signs of influenza infection detected",
        "wingspan and body size measured today",
        "why is this measurement so high",
        "general remark about the observation",
    };
    for (int i = 0; i < 70; ++i) {
      rel::RowId row = static_cast<rel::RowId>(rng.Uniform(kFactRows));
      std::vector<size_t> columns;
      if (rng.Bernoulli(0.5)) columns.push_back(rng.Uniform(4));
      auto id = engine_->Annotate(
          Spec("t", row, bodies[rng.Uniform(bodies.size())], columns));
      ASSERT_TRUE(id.ok());
      if (rng.Bernoulli(0.3)) {
        ASSERT_TRUE(engine_
                        ->AttachAnnotation(
                            *id, "t", static_cast<rel::RowId>(rng.Uniform(kFactRows)))
                        .ok());
      }
    }
  }

  // ---- Generator: every emitted query is valid by construction. ----

  std::string GenPredicate(Random& rng, bool with_dim) {
    switch (rng.Uniform(with_dim ? 8 : 7)) {
      case 0: return "t.val > " + std::to_string(rng.Uniform(50));
      case 1: return "t.val < " + std::to_string(rng.Uniform(50));
      case 2: return "t.grp = " + std::to_string(rng.Uniform(kDimRows));
      case 3: return "t.id >= " + std::to_string(rng.Uniform(kFactRows));
      case 4: return "t.txt = 's" + std::to_string(rng.Uniform(9)) + "'";
      case 5: return "SUMMARY_COUNT(ClassBird1) > " + std::to_string(rng.Uniform(2));
      case 6: return "SUMMARY_COUNT(SimCluster) >= " + std::to_string(rng.Uniform(2));
      default: return "d.name = 'g" + std::to_string(rng.Uniform(kDimRows)) + "'";
    }
  }

  std::string GenWhere(Random& rng, bool with_dim) {
    size_t conjuncts = rng.Uniform(3);  // 0..2
    std::string out;
    for (size_t i = 0; i < conjuncts; ++i) {
      out += (i == 0) ? " WHERE " : " AND ";
      out += GenPredicate(rng, with_dim);
    }
    return out;
  }

  std::string GenOrderKey(Random& rng, bool with_dim) {
    static const char* kKeys[] = {"t.id", "t.grp", "t.val", "t.txt"};
    std::string key;
    if (rng.Bernoulli(0.12)) {
      key = "SUMMARY_COUNT(ClassBird1)";
    } else if (with_dim && rng.Bernoulli(0.2)) {
      key = "d.name";
    } else {
      key = kKeys[rng.Uniform(4)];
    }
    if (rng.Bernoulli(0.5)) key += " DESC";
    return key;
  }

  std::string GenLimit(Random& rng) {
    static const int kLimits[] = {0, 1, 2, 5, 17, 60, 300};
    return " LIMIT " + std::to_string(kLimits[rng.Uniform(7)]);
  }

  std::string GenQuery(Random& rng) {
    bool with_dim = rng.Bernoulli(0.25);
    // A share of the two-table queries is a cross product: no equi
    // conjunct, half of them with a non-equi residual instead.
    bool cross = with_dim && rng.Bernoulli(0.3);
    bool agg = rng.Bernoulli(0.3);
    std::string from = with_dim ? " FROM t t, d d" : " FROM t t";
    std::string where = GenWhere(rng, with_dim);
    if (with_dim && (!cross || rng.Bernoulli(0.5))) {
      where += where.empty() ? " WHERE " : " AND ";
      where += cross ? "t.grp < d.k" : "t.grp = d.k";
    }
    std::string sql = "SELECT ";
    if (agg) {
      std::string group = rng.Bernoulli(0.5) ? "t.grp" : "t.txt";
      static const char* kAggs[] = {"COUNT(*)",   "SUM(t.val)", "MIN(t.val)",
                                    "MAX(t.val)", "AVG(t.val)", "MIN(t.txt)"};
      sql += group;
      size_t n = 1 + rng.Uniform(3);
      for (size_t i = 0; i < n; ++i) sql += std::string(", ") + kAggs[rng.Uniform(6)];
      sql += from + where + " GROUP BY " + group;
      if (rng.Bernoulli(0.5)) {
        sql += " ORDER BY " + group;
        if (rng.Bernoulli(0.5)) sql += " DESC";
      }
    } else {
      if (rng.Bernoulli(0.2)) sql += "DISTINCT ";
      static const char* kCols[] = {"t.id", "t.grp", "t.val", "t.txt", "d.k", "d.name"};
      std::string items;
      size_t pool = with_dim ? 6 : 4;
      for (size_t c = 0; c < pool; ++c) {
        if (!rng.Bernoulli(0.5)) continue;
        if (!items.empty()) items += ", ";
        items += kCols[c];
      }
      if (items.empty()) items = "t.id";
      sql += items + from + where;
      if (rng.Bernoulli(0.6)) {
        sql += " ORDER BY " + GenOrderKey(rng, with_dim);
        if (rng.Bernoulli(0.4)) sql += ", " + GenOrderKey(rng, with_dim);
      }
    }
    if (rng.Bernoulli(0.5)) sql += GenLimit(rng);
    return sql;
  }

  // ---- Differential execution. ----

  Result<core::QueryResult> TryExecute(const std::string& sql_text, size_t parallelism,
                                       size_t morsel_size,
                                       std::shared_ptr<exec::QueryContext> context,
                                       bool optimize = false) {
    auto statement = sql::Parse(sql_text);
    EXPECT_TRUE(statement.ok()) << statement.status().ToString();
    auto* select = std::get_if<sql::SelectStatement>(&*statement);
    EXPECT_NE(select, nullptr);
    sql::PlannerOptions options;
    options.parallelism = parallelism;
    options.morsel_size = morsel_size;
    options.optimize = optimize;
    INSIGHTNOTES_ASSIGN_OR_RETURN(auto plan,
                                  sql::PlanSelect(*select, engine_.get(), options));
    if (context != nullptr) plan->SetQueryContext(context);
    return engine_->Execute(std::move(plan));
  }

  core::QueryResult Execute(const std::string& sql_text, size_t parallelism,
                            size_t morsel_size, bool optimize = false) {
    auto result = TryExecute(sql_text, parallelism, morsel_size, nullptr, optimize);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(*result) : core::QueryResult{};
  }

  /// Full byte-for-byte rendering: data values, summaries in pipeline
  /// order (Render() covers component order and representative election),
  /// attachment metadata in order.
  static std::vector<std::string> RenderRows(const core::QueryResult& result) {
    std::vector<std::string> rows;
    for (const core::AnnotatedTuple& row : result.rows) {
      std::ostringstream os;
      os << row.tuple.ToString();
      for (const auto& summary : row.summaries) {
        os << " || " << summary->instance_name() << "=" << summary->Render();
      }
      for (const auto& attachment : row.attachments) {
        os << " [A" << attachment.id << ":";
        for (size_t c : attachment.columns) os << c << ",";
        os << "]";
      }
      rows.push_back(os.str());
    }
    return rows;
  }

  std::vector<std::string> Run(const std::string& sql_text, size_t parallelism,
                               size_t morsel_size, bool optimize = false) {
    return RenderRows(Execute(sql_text, parallelism, morsel_size, optimize));
  }

  // ---- Independent oracle: raw annotation propagation. ----

  /// One result row as the raw oracle compares it: data values plus the
  /// sorted set of attached annotation ids.
  static std::string OracleRow(const rel::Tuple& values,
                               std::vector<ann::AnnotationId> ids) {
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    std::ostringstream os;
    os << values.ToString() << " {";
    for (ann::AnnotationId id : ids) os << id << ",";
    os << "}";
    return os.str();
  }

  static std::vector<std::string> OracleRows(const core::QueryResult& result) {
    std::vector<std::string> rows;
    for (const core::AnnotatedTuple& row : result.rows) {
      std::vector<ann::AnnotationId> ids;
      for (const auto& attachment : row.attachments) ids.push_back(attachment.id);
      rows.push_back(OracleRow(row.tuple, std::move(ids)));
    }
    return rows;
  }

  static bool HasSummaryCount(const AstExpr* expr) {
    if (expr == nullptr) return false;
    return expr->kind == AstExpr::Kind::kSummaryCount ||
           HasSummaryCount(expr->left.get()) || HasSummaryCount(expr->right.get());
  }

  static void SplitConjuncts(const AstExpr* expr, std::vector<const AstExpr*>* out) {
    if (expr == nullptr) return;
    if (expr->kind == AstExpr::Kind::kLogical &&
        expr->logical_op == rel::LogicalOp::kAnd) {
      SplitConjuncts(expr->left.get(), out);
      SplitConjuncts(expr->right.get(), out);
      return;
    }
    out->push_back(expr);
  }

  /// The FROM tables (0 or 1) whose columns `expr` references.
  static std::set<size_t> Owners(const AstExpr& expr,
                                 const std::vector<rel::Schema>& schemas) {
    std::vector<std::string> names;
    expr.CollectColumns(&names);
    std::set<size_t> owners;
    for (const std::string& name : names) {
      for (size_t k = 0; k < schemas.size(); ++k) {
        if (schemas[k].Contains(name)) owners.insert(k);
      }
    }
    return owners;
  }

  /// Answers a scan/filter/project/join query with RawPropagationEngine
  /// (full raw annotations, no summaries, no planner): each table is
  /// scanned, filtered by its own conjuncts and projected to the columns
  /// the query references (Theorem 1: annotations only on other columns
  /// drop out); tables join on their first equi conjunct, or on a literal
  /// key when there is none (a cross product); the remaining conjuncts
  /// filter the joined rows. nullopt for queries outside that fragment
  /// (aggregates, DISTINCT, LIMIT, SUMMARY_COUNT).
  std::optional<std::vector<std::string>> RawOracle(const std::string& sql_text) {
    auto statement = sql::Parse(sql_text);
    EXPECT_TRUE(statement.ok()) << statement.status().ToString();
    const auto& stmt = std::get<sql::SelectStatement>(*statement);
    if (stmt.distinct || stmt.limit.has_value() || !stmt.group_by.empty() ||
        HasSummaryCount(stmt.where.get())) {
      return std::nullopt;
    }
    for (const auto& item : stmt.items) {
      if (item.expr == nullptr || item.expr->ContainsAggregate()) return std::nullopt;
    }
    for (const auto& order : stmt.order_by) {
      if (HasSummaryCount(order.expr.get())) return std::nullopt;
    }

    core::RawPropagationEngine raw(engine_->annotations());
    std::vector<rel::Schema> schemas;
    std::vector<const rel::Table*> tables;
    for (const auto& ref : stmt.from) {
      auto table = engine_->catalog()->GetTable(ref.table);
      EXPECT_TRUE(table.ok());
      tables.push_back(*table);
      schemas.push_back((*table)->schema().WithQualifier(ref.alias));
    }
    std::vector<std::string> referenced;
    for (const auto& item : stmt.items) item.expr->CollectColumns(&referenced);
    if (stmt.where != nullptr) stmt.where->CollectColumns(&referenced);
    for (const auto& order : stmt.order_by) order.expr->CollectColumns(&referenced);
    std::vector<const AstExpr*> conjuncts;
    SplitConjuncts(stmt.where.get(), &conjuncts);

    std::vector<std::vector<core::RawTuple>> inputs;
    std::vector<rel::Schema> projected(tables.size());
    for (size_t k = 0; k < tables.size(); ++k) {
      auto scanned = raw.Scan(*tables[k]);
      EXPECT_TRUE(scanned.ok());
      std::vector<core::RawTuple> rows = std::move(*scanned);
      for (const AstExpr* conjunct : conjuncts) {
        if (Owners(*conjunct, schemas) != std::set<size_t>{k}) continue;
        auto bound = sql::Bind(*conjunct, schemas[k]);
        EXPECT_TRUE(bound.ok()) << bound.status().ToString();
        auto filtered = raw.Filter(std::move(rows), **bound);
        EXPECT_TRUE(filtered.ok());
        rows = std::move(*filtered);
      }
      std::vector<size_t> kept;
      for (size_t c = 0; c < schemas[k].NumColumns(); ++c) {
        const std::string name = schemas[k].ColumnAt(c).QualifiedName();
        if (std::find(referenced.begin(), referenced.end(), name) != referenced.end()) {
          kept.push_back(c);
          projected[k].AddColumn(schemas[k].ColumnAt(c));
        }
      }
      inputs.push_back(raw.Project(rows, kept));
    }

    std::vector<core::RawTuple> joined = std::move(inputs[0]);
    rel::Schema schema = projected[0];
    std::vector<const AstExpr*> residuals;
    for (const AstExpr* conjunct : conjuncts) {
      if (Owners(*conjunct, schemas).size() > 1) residuals.push_back(conjunct);
    }
    if (tables.size() == 2) {
      rel::ExprPtr left_key = rel::MakeLiteral(I(1));
      rel::ExprPtr right_key = rel::MakeLiteral(I(1));
      for (auto it = residuals.begin(); it != residuals.end(); ++it) {
        const AstExpr* c = *it;
        if (c->kind != AstExpr::Kind::kCompare || c->compare_op != rel::CompareOp::kEq) {
          continue;
        }
        bool left_first = Owners(*c->left, schemas) == std::set<size_t>{0};
        auto l = sql::Bind(left_first ? *c->left : *c->right, projected[0]);
        auto r = sql::Bind(left_first ? *c->right : *c->left, projected[1]);
        EXPECT_TRUE(l.ok() && r.ok());
        left_key = std::move(*l);
        right_key = std::move(*r);
        residuals.erase(it);
        break;
      }
      auto result = raw.Join(joined, inputs[1], *left_key, *right_key);
      EXPECT_TRUE(result.ok());
      joined = std::move(*result);
      schema = rel::Schema::Concat(projected[0], projected[1]);
    }
    for (const AstExpr* conjunct : residuals) {
      auto bound = sql::Bind(*conjunct, schema);
      EXPECT_TRUE(bound.ok()) << bound.status().ToString();
      auto filtered = raw.Filter(std::move(joined), **bound);
      EXPECT_TRUE(filtered.ok());
      joined = std::move(*filtered);
    }

    std::vector<rel::ExprPtr> outputs;
    for (const auto& item : stmt.items) {
      auto bound = sql::Bind(*item.expr, schema);
      EXPECT_TRUE(bound.ok()) << bound.status().ToString();
      outputs.push_back(std::move(*bound));
    }
    std::vector<std::string> rows;
    for (const core::RawTuple& row : joined) {
      rel::Tuple values;
      for (const rel::ExprPtr& output : outputs) {
        auto value = output->Evaluate(row.tuple);
        EXPECT_TRUE(value.ok());
        values.Append(std::move(*value));
      }
      std::vector<ann::AnnotationId> ids;
      for (const ann::Annotation& note : row.annotations) ids.push_back(note.id);
      rows.push_back(OracleRow(values, std::move(ids)));
    }
    return rows;
  }

  /// Executes against an explicitly pinned epoch, unretained (bulk replay
  /// must not grow the zoom-in registry). Thread-safe: no shared
  /// QueryContext — Engine::Execute creates a private one per call.
  Result<core::QueryResult> TryExecutePinned(const std::string& sql_text,
                                             size_t parallelism,
                                             core::ReadSnapshot snapshot) {
    auto statement = sql::Parse(sql_text);
    if (!statement.ok()) return statement.status();
    auto* select = std::get_if<sql::SelectStatement>(&*statement);
    if (select == nullptr) return Status::Internal("not a SELECT");
    sql::PlannerOptions options;
    options.parallelism = parallelism;
    options.morsel_size = 16;
    INSIGHTNOTES_ASSIGN_OR_RETURN(auto plan,
                                  sql::PlanSelect(*select, engine_.get(), options));
    core::ExecuteOptions exec_options;
    exec_options.snapshot = std::move(snapshot);
    exec_options.retain = false;
    return engine_->Execute(std::move(plan), std::move(exec_options));
  }

  /// Concurrent-session mode: `num_sessions` reader threads replay a
  /// fuzzed corpus against one pinned epoch while a writer annotates live.
  /// Every replay must be byte-identical to the pre-ingest baseline
  /// computed against the same pin — a reader observing any concurrent
  /// mutation (torn summary fold, attachment append, archive flip) breaks
  /// the oracle.
  void RunConcurrentSessions(size_t num_sessions) {
    const uint64_t seed = FuzzSeed();
    Random rng(seed + 3);  // Distinct stream from the other fuzz sweeps.
    std::vector<std::string> corpus;
    corpus.reserve(kNumQueries);
    for (int q = 0; q < kNumQueries; ++q) corpus.push_back(GenQuery(rng));

    auto pinned = engine_->PinSnapshot();
    ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
    std::vector<std::vector<std::string>> baselines(corpus.size());
    for (size_t i = 0; i < corpus.size(); ++i) {
      auto result = TryExecutePinned(corpus[i], 1, *pinned);
      ASSERT_TRUE(result.ok()) << corpus[i] << "\n  " << result.status().ToString()
                               << "\nreplay: INSIGHTNOTES_FUZZ_SEED=" << seed;
      baselines[i] = RenderRows(*result);
    }

    // Live ingest: single writer annotating (plus periodic batches) for the
    // whole replay. Capped so a slow TSAN run cannot grow the store
    // unboundedly; the early queries still race against live publishes.
    // gtest assertions are not thread-safe off the main thread, so both the
    // writer and the readers collect failures for the post-join assert.
    std::mutex failures_mutex;
    std::vector<std::string> failures;

    std::atomic<bool> stop{false};
    std::thread writer([&] {
      Random wrng(seed + 99);
      const std::vector<std::string> bodies = {
          "fresh influenza lesion observed",
          "foraging behavior while migrating",
          "beak wingspan anatomy note",
      };
      for (int i = 0; i < 3000 && !stop.load(std::memory_order_acquire); ++i) {
        Status written;
        if (i % 8 == 7) {
          std::vector<core::AnnotateSpec> batch;
          for (int b = 0; b < 4; ++b) {
            batch.push_back(Spec("t", static_cast<rel::RowId>(wrng.Uniform(kFactRows)),
                                 bodies[wrng.Uniform(bodies.size())]));
          }
          written = engine_->AnnotateBatch(batch).status();
        } else {
          written = engine_
                        ->Annotate(Spec("t",
                                        static_cast<rel::RowId>(wrng.Uniform(kFactRows)),
                                        bodies[wrng.Uniform(bodies.size())]))
                        .status();
        }
        if (!written.ok()) {
          std::lock_guard<std::mutex> lock(failures_mutex);
          failures.push_back("ingest failed: " + written.ToString());
          return;
        }
      }
    });
    std::vector<std::thread> readers;
    readers.reserve(num_sessions);
    for (size_t t = 0; t < num_sessions; ++t) {
      readers.emplace_back([&, t] {
        for (size_t i = t; i < corpus.size(); i += num_sessions) {
          // Alternate serial and morsel-parallel plans under the pin.
          size_t parallelism = i % 2 == 0 ? 1 : 2;
          auto result = TryExecutePinned(corpus[i], parallelism, *pinned);
          if (!result.ok()) {
            std::lock_guard<std::mutex> lock(failures_mutex);
            failures.push_back(corpus[i] + "\n  " + result.status().ToString());
            continue;
          }
          if (RenderRows(*result) != baselines[i]) {
            std::lock_guard<std::mutex> lock(failures_mutex);
            failures.push_back("diverged from pinned-epoch oracle: " + corpus[i]);
          }
        }
      });
    }
    for (std::thread& reader : readers) reader.join();
    stop.store(true, std::memory_order_release);
    writer.join();

    EXPECT_TRUE(failures.empty()) << failures.size() << " replay failure(s), first:\n"
                                  << failures[0]
                                  << "\nreplay: INSIGHTNOTES_FUZZ_SEED=" << seed;
    // The pinned epoch must still be the readers' view even though the
    // writer published far past it.
    EXPECT_GT(engine_->CurrentEpoch(), (*pinned)->epoch());
  }
};

// Cancellation fuzzing: each random query runs once with a seeded
// cancellation point (the trip fires at a random cooperative interrupt
// check) and then again uncancelled. A tripped run must fail with exactly
// kCancelled; the uncancelled rerun must stay byte-identical to serial —
// cancellation mid-flight (including mid-parallel-plan) leaves no torn
// shared state behind. Replay with INSIGHTNOTES_FUZZ_SEED=<seed>.
TEST_F(QueryFuzzTest, SeededCancellationLeavesEngineConsistent) {
  const uint64_t seed = FuzzSeed();
  Random rng(seed + 1);  // Distinct stream from the byte-identity fuzz.
  auto context = std::make_shared<exec::QueryContext>();
  constexpr int kCancelQueries = 50;
  int cancelled_runs = 0;
  for (int q = 0; q < kCancelQueries; ++q) {
    const std::string sql = GenQuery(rng);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " query#" + std::to_string(q) +
                 " sql: " + sql);
    std::vector<std::string> serial = Run(sql, 1, 16);
    ASSERT_FALSE(::testing::Test::HasFailure())
        << "replay: INSIGHTNOTES_FUZZ_SEED=" << seed << "\n  " << sql;

    const size_t parallelism = rng.Bernoulli(0.5) ? 8 : 2;
    const uint64_t trip = 1 + rng.Uniform(80);
    context->CancelAtCheck(trip);
    context->BeginStatement(0, 0);
    auto tripped = TryExecute(sql, parallelism, 16, context);
    if (!tripped.ok()) {
      ++cancelled_runs;
      ASSERT_TRUE(tripped.status().IsCancelled())
          << "trip=" << trip << " parallelism=" << parallelism
          << "\nreplay: INSIGHTNOTES_FUZZ_SEED=" << seed << "\n  " << sql
          << "\n  " << tripped.status().ToString();
    }
    // Disarmed, the same query must come back byte-identical to serial.
    context->CancelAtCheck(0);
    context->BeginStatement(0, 0);
    auto clean = TryExecute(sql, parallelism, 16, context);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString()
                            << "\nreplay: INSIGHTNOTES_FUZZ_SEED=" << seed;
    std::vector<std::string> rows;
    for (const core::AnnotatedTuple& row : clean->rows) {
      std::ostringstream os;
      os << row.tuple.ToString();
      for (const auto& summary : row.summaries) {
        os << " || " << summary->instance_name() << "=" << summary->Render();
      }
      for (const auto& attachment : row.attachments) {
        os << " [A" << attachment.id << ":";
        for (size_t c : attachment.columns) os << c << ",";
        os << "]";
      }
      rows.push_back(os.str());
    }
    ASSERT_EQ(rows, serial) << "parallelism=" << parallelism << " trip=" << trip
                            << "\nreplay: INSIGHTNOTES_FUZZ_SEED=" << seed << "\n  "
                            << sql;
  }
  // The sweep must actually exercise cancellation, not just finish early.
  EXPECT_GT(cancelled_runs, kCancelQueries / 4)
      << "too few runs tripped; widen the trip range";
}

TEST_F(QueryFuzzTest, RandomQueriesMatchSerialByteForByte) {
  const uint64_t seed = FuzzSeed();
  Random rng(seed);
  for (int q = 0; q < kNumQueries; ++q) {
    const std::string sql = GenQuery(rng);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " query#" + std::to_string(q) +
                 " sql: " + sql);
    std::vector<std::string> serial = Run(sql, 1, 16);
    ASSERT_FALSE(::testing::Test::HasFailure())
        << "replay: INSIGHTNOTES_FUZZ_SEED=" << seed << "\n  " << sql;
    for (size_t parallelism : {2u, 8u}) {
      for (size_t morsel : {16u, 13u}) {
        ASSERT_EQ(serial, Run(sql, parallelism, morsel))
            << "parallelism=" << parallelism << " morsel=" << morsel
            << "\nreplay: INSIGHTNOTES_FUZZ_SEED=" << seed << "\n  " << sql;
      }
    }
  }
}

// Independent oracle: every corpus query in the scan/filter/project/join
// fragment (cross products included) must return, at one worker and at
// parallelism 8, the rows RawPropagationEngine computes from the raw
// annotations — the same values, each with the same set of attached
// annotation ids. Without ORDER BY the row order must match too (driving
// table in row order, build rows in insertion order per probe row); with
// it, ties may order differently, so rows compare as multisets.
TEST_F(QueryFuzzTest, ScanFilterProjectJoinMatchRawPropagationOracle) {
  const uint64_t seed = FuzzSeed();
  Random rng(seed + 5);  // Distinct stream from the other fuzz sweeps.
  // Twice the usual corpus: only about a fifth of it is in the fragment.
  constexpr int kOracleQueries = 2 * kNumQueries;
  int checked = 0;
  int cross_products = 0;
  for (int q = 0; q < kOracleQueries; ++q) {
    const std::string sql = GenQuery(rng);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " query#" + std::to_string(q) +
                 " sql: " + sql);
    std::optional<std::vector<std::string>> expected = RawOracle(sql);
    ASSERT_FALSE(::testing::Test::HasFailure())
        << "replay: INSIGHTNOTES_FUZZ_SEED=" << seed << "\n  " << sql;
    if (!expected.has_value()) continue;
    ++checked;
    if (sql.find(", d d") != std::string::npos &&
        sql.find("t.grp = d.k") == std::string::npos) {
      ++cross_products;
    }
    const bool ordered = sql.find("ORDER BY") == std::string::npos;
    if (!ordered) std::sort(expected->begin(), expected->end());
    for (size_t parallelism : {1u, 8u}) {
      std::vector<std::string> got = OracleRows(Execute(sql, parallelism, 16));
      if (!ordered) std::sort(got.begin(), got.end());
      ASSERT_EQ(*expected, got)
          << "parallelism=" << parallelism
          << "\nreplay: INSIGHTNOTES_FUZZ_SEED=" << seed << "\n  " << sql;
    }
  }
  // The fragment must be a real share of the corpus, cross products too.
  EXPECT_GT(checked, kOracleQueries / 10);
  EXPECT_GT(cross_products, 0);
}

// Optimizer differential: with ANALYZE statistics and secondary indexes in
// place, every fuzzed query must return byte-identical results with the
// cost-based optimizer ON (join reordering + RestoreOrder, index-backed
// access paths, parallelism choice) as with it OFF — across serial and
// parallel execution. This is the safety net behind `SET OPTIMIZER = ON`
// being the session default.
TEST_F(QueryFuzzTest, OptimizerPlansMatchRuleDrivenByteForByte) {
  ASSERT_TRUE(engine_->Analyze("t").ok());
  ASSERT_TRUE(engine_->Analyze("d").ok());
  ASSERT_TRUE(engine_->CreateIndex("t", "val").ok());
  ASSERT_TRUE(engine_->CreateIndex("t", "grp").ok());
  ASSERT_TRUE(engine_->CreateIndex("t", "txt").ok());
  ASSERT_TRUE(engine_->CreateIndex("d", "k").ok());

  const uint64_t seed = FuzzSeed();
  Random rng(seed + 2);  // Distinct stream from the other fuzz sweeps.
  for (int q = 0; q < kNumQueries; ++q) {
    const std::string sql = GenQuery(rng);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " query#" + std::to_string(q) +
                 " sql: " + sql);
    std::vector<std::string> baseline = Run(sql, 1, 16, /*optimize=*/false);
    ASSERT_FALSE(::testing::Test::HasFailure())
        << "replay: INSIGHTNOTES_FUZZ_SEED=" << seed << "\n  " << sql;
    for (size_t parallelism : {1u, 2u, 8u}) {
      ASSERT_EQ(baseline, Run(sql, parallelism, 16, /*optimize=*/true))
          << "optimizer on, parallelism=" << parallelism
          << "\nreplay: INSIGHTNOTES_FUZZ_SEED=" << seed << "\n  " << sql;
    }
  }
}

// Persisted-index differential: the same fuzzed corpus, answered by
// indexes that crossed an engine restart. A file-backed engine builds the
// four secondary indexes, records optimizer-on baselines, closes; the
// reopen must ADOPT the committed B+-trees from the index checkpoint
// (recovery().indexes_recovered — no table-scan rebuild), the replayed
// configuration (tables, rows, links; annotations come back through the
// WAL) must line the trees up with the live row set, and every query must
// stay byte-identical at parallelism 1/2/8 with EXPLAIN still choosing
// IndexScan.
class PersistedIndexFuzzTest : public QueryFuzzTest {
 protected:
  void SetUp() override {
    db_path_ = ::testing::TempDir() + "/insightnotes_pfuzz_" +
               std::to_string(reinterpret_cast<uintptr_t>(this)) + ".db";
    RemoveDbFiles();
    options_.db_path = db_path_;
    options_.index_max_node_entries = 8;  // Multi-level trees at 120 rows.
    options_.io_retry.sleep = [](int64_t) {};
    QueryFuzzTest::SetUp();
  }

  void TearDown() override {
    engine_.reset();
    RemoveDbFiles();
  }

  void RemoveDbFiles() {
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::path dir = fs::path(db_path_).parent_path();
    const std::string stem = fs::path(db_path_).filename().string();
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
      if (it->path().filename().string().rfind(stem, 0) == 0) {
        std::error_code remove_ec;
        fs::remove(it->path(), remove_ec);
      }
    }
  }

  /// EXPLAIN through a fresh SqlSession (optimizer is the session
  /// default); returns the rendered plan tree.
  std::string ExplainPlan(const std::string& sql) {
    sql::SqlSession session(engine_.get());
    auto out = session.Execute("EXPLAIN " + sql);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? out->message : "";
  }

  std::string db_path_;
};

TEST_F(PersistedIndexFuzzTest, ReopenedIndexesAnswerCorpusByteForByte) {
  ASSERT_TRUE(engine_->Analyze("t").ok());
  ASSERT_TRUE(engine_->Analyze("d").ok());
  ASSERT_TRUE(engine_->CreateIndex("t", "val").ok());
  ASSERT_TRUE(engine_->CreateIndex("t", "grp").ok());
  ASSERT_TRUE(engine_->CreateIndex("t", "txt").ok());
  ASSERT_TRUE(engine_->CreateIndex("d", "k").ok());

  const uint64_t seed = FuzzSeed();
  Random rng(seed + 4);  // Distinct stream from the other fuzz sweeps.
  std::vector<std::string> corpus;
  corpus.reserve(kNumQueries);
  for (int q = 0; q < kNumQueries; ++q) corpus.push_back(GenQuery(rng));

  std::vector<std::vector<std::string>> baselines(corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    baselines[i] = Run(corpus[i], 1, 16, /*optimize=*/true);
    ASSERT_FALSE(::testing::Test::HasFailure())
        << "replay: INSIGHTNOTES_FUZZ_SEED=" << seed << "\n  " << corpus[i];
  }
  const std::string probe_sql = "SELECT t.id FROM t t WHERE t.val = 7";
  EXPECT_NE(ExplainPlan(probe_sql).find("IndexScan"), std::string::npos)
      << "optimizer skipped the index before the restart";

  engine_.reset();  // Shutdown checkpoint; the index epoch is already durable.

  options_.open_existing = true;
  engine_ = std::make_unique<core::Engine>(options_);
  ASSERT_TRUE(engine_->Init().ok());
  EXPECT_EQ(engine_->recovery().indexes_recovered, 4u)
      << "reopen rebuilt instead of adopting the committed trees";
  // Configuration replay — the annotations are already back via the WAL.
  CreateFigure2Tables();
  CreateFigure2Instances();
  CreateDatasetTables();
  ASSERT_TRUE(engine_->Analyze("t").ok());
  ASSERT_TRUE(engine_->Analyze("d").ok());

  auto t = engine_->catalog()->GetTable("t");
  auto d = engine_->catalog()->GetTable("d");
  ASSERT_TRUE(t.ok() && d.ok());
  for (size_t column : {1u, 2u, 3u}) {  // grp, val, txt.
    const rel::TableIndex* index = (*t)->IndexOn(column);
    ASSERT_NE(index, nullptr) << "t column " << column;
    ASSERT_NE(index->tree(), nullptr) << "t column " << column;
    // Adopted trees cover exactly the rows committed before the restart —
    // a rebuild would have covered none of them.
    EXPECT_EQ(index->tree()->covered_rows(), static_cast<uint64_t>(kFactRows));
    EXPECT_TRUE(index->tree()->CheckInvariants().ok());
  }
  ASSERT_NE((*d)->IndexOn(0), nullptr);

  EXPECT_NE(ExplainPlan(probe_sql).find("IndexScan"), std::string::npos)
      << "optimizer stopped choosing the adopted index after the restart";

  for (size_t i = 0; i < corpus.size(); ++i) {
    SCOPED_TRACE("seed=" + std::to_string(seed) + " query#" + std::to_string(i) +
                 " sql: " + corpus[i]);
    for (size_t parallelism : {1u, 2u, 8u}) {
      ASSERT_EQ(baselines[i], Run(corpus[i], parallelism, 16, /*optimize=*/true))
          << "parallelism=" << parallelism
          << "\nreplay: INSIGHTNOTES_FUZZ_SEED=" << seed << "\n  " << corpus[i];
    }
  }
}

// Concurrent multi-session reads under live ingest, at 1/2/8 sessions.
// One pinned epoch is the oracle: every session's replay of the corpus
// must be byte-identical to the baseline computed against that pin before
// ingest started, serial and morsel-parallel alike. Run under TSAN this
// sweeps the epoch publish/pin/retire protocol and the sharded caches.
TEST_F(QueryFuzzTest, ConcurrentSessionsMatchPinnedEpochOracle1) {
  RunConcurrentSessions(1);
}

TEST_F(QueryFuzzTest, ConcurrentSessionsMatchPinnedEpochOracle2) {
  RunConcurrentSessions(2);
}

TEST_F(QueryFuzzTest, ConcurrentSessionsMatchPinnedEpochOracle8) {
  RunConcurrentSessions(8);
}

}  // namespace
}  // namespace insightnotes
