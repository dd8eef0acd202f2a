// Deadline / cancellation robustness across the decision procedures and the
// serve path: zero and expired deadlines are honoured at entry, a
// pathological instance under a 10 ms deadline returns TimedOut within a
// bounded wall-clock factor, interrupted serve requests never poison the
// cache, an interrupted SolveCqmQbe sweep resumes to the uninterrupted
// answer, and the fuzz loop itself honours a cancelled budget.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/separability.h"
#include "core/statistic.h"
#include "covergame/cover_game.h"
#include "cq/enumeration.h"
#include "cq/homomorphism.h"
#include "hypertree/ghw.h"
#include "hypertree/hypergraph.h"
#include "linsep/separability_lp.h"
#include "qbe/qbe.h"
#include "serve/eval_service.h"
#include "test_util.h"
#include "testing/corpus.h"
#include "testing/fuzz.h"
#include "testing/instance.h"
#include "util/budget.h"

namespace featsep {
namespace testing {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

// Fixtures ExpiredBudget/AddClique/SmallTraining live in test_util.h,
// shared with budget_test.cc and serve_async_test.cc.

// --- The acceptance bound -------------------------------------------------

TEST(CancellationTest, PathologicalCqSepTimesOutWithinBound) {
  // K13 ⊔ K12 with one entity per clique, oppositely labeled. The single
  // differently-labeled pair forces HomEquivalent across the components:
  // pinning the K13 entity onto the K12 one demands a proper 11-coloring of
  // a 12-clique, so the refutation alone explores ~11! search nodes —
  // several seconds of kernel work. A 10 ms deadline must surface as
  // kTimedOut after a small constant factor, not after the search drains.
  auto db = std::make_shared<Database>(GraphSchema());
  AddClique(*db, "a", 13);
  AddClique(*db, "b", 12);
  Value a0 = AddEntity(*db, "a0");
  Value b0 = AddEntity(*db, "b0");
  TrainingDatabase training(db);
  training.SetLabel(a0, 1);
  training.SetLabel(b0, -1);

  ExecutionBudget budget = ExecutionBudget::WithTimeout(milliseconds(10));
  CqSepOptions options;
  options.budget = &budget;
  auto start = ExecutionBudget::Clock::now();
  CqSepResult result = DecideCqSep(training, options);
  auto elapsed = ExecutionBudget::Clock::now() - start;

  EXPECT_EQ(result.outcome, BudgetOutcome::kTimedOut);
  EXPECT_FALSE(result.conflict.has_value());
  // Generous bound (sanitizer builds run this too): 200x the deadline is
  // still orders of magnitude below the uninterrupted search.
  EXPECT_LT(elapsed, seconds(2)) << "cancellation latency unbounded";
}

// --- Zero/expired deadline at entry ---------------------------------------

TEST(CancellationTest, ExpiredDeadlineStopsHomSearchAtEntry) {
  std::shared_ptr<const Schema> schema = GraphSchema();
  Database from(schema);
  AddPath(from, "p", 2);
  Database to(schema);
  AddCycle(to, "c", 3);
  ExecutionBudget budget = ExpiredBudget();
  HomResult result = FindHomomorphism(from, to, {}, &budget);
  EXPECT_EQ(result.status, HomStatus::kExhausted);
  EXPECT_EQ(result.outcome, BudgetOutcome::kTimedOut);
  EXPECT_EQ(result.nodes, 0u);
}

TEST(CancellationTest, ExpiredDeadlineStopsCqSepAtEntry) {
  TrainingDatabase training = SmallTraining();
  ExecutionBudget budget = ExpiredBudget();
  CqSepOptions options;
  options.budget = &budget;
  CqSepResult result = DecideCqSep(training, options);
  EXPECT_EQ(result.outcome, BudgetOutcome::kTimedOut);
  EXPECT_FALSE(result.separable);
  EXPECT_FALSE(result.conflict.has_value());
  EXPECT_EQ(result.pairs_checked, 0u);
}

TEST(CancellationTest, ExpiredDeadlineStopsCqmSepAtEntry) {
  TrainingDatabase training = SmallTraining();
  ExecutionBudget budget = ExpiredBudget();
  CqmSepOptions options;
  options.budget = &budget;
  CqmSepResult result = DecideCqmSep(training, 1, options);
  EXPECT_EQ(result.outcome, BudgetOutcome::kTimedOut);
  EXPECT_FALSE(result.separable);
  EXPECT_FALSE(result.model.has_value());
}

TEST(CancellationTest, ExpiredDeadlineStopsSimplexAtEntry) {
  TrainingCollection examples = {{{1, -1}, 1}, {{-1, 1}, -1}};
  ASSERT_TRUE(FindSeparator(examples).has_value());
  ExecutionBudget budget = ExpiredBudget();
  SeparatorSearch search = TryFindSeparator(examples, &budget);
  EXPECT_EQ(search.outcome, BudgetOutcome::kTimedOut);
  EXPECT_FALSE(search.classifier.has_value());
}

TEST(CancellationTest, ExpiredDeadlineStopsGhwAtEntry) {
  Hypergraph triangle(3);
  triangle.AddEdge({0, 1});
  triangle.AddEdge({1, 2});
  triangle.AddEdge({0, 2});
  ExecutionBudget budget = ExpiredBudget();
  GhwDecision decision = TryDecideGhwAtMost(triangle, 1, &budget);
  EXPECT_EQ(decision.outcome, BudgetOutcome::kTimedOut);
  EXPECT_FALSE(decision.decomposition.has_value());
}

TEST(CancellationTest, ExpiredDeadlineStopsCoverGameAtEntry) {
  TrainingDatabase training = SmallTraining();
  const Database& db = training.database();
  std::vector<Value> entities = db.Entities();
  ASSERT_EQ(entities.size(), 2u);
  ExecutionBudget budget = ExpiredBudget();
  CoverGameSolver solver(db, db, 1, &budget);
  Budgeted<bool> decision = solver.TryDecide({entities[0]}, {entities[1]});
  EXPECT_EQ(decision.outcome, BudgetOutcome::kTimedOut);
  EXPECT_FALSE(decision.ok());
}

TEST(CancellationTest, ExpiredDeadlineStopsCqmQbeAtEntry) {
  TrainingDatabase training = SmallTraining();
  QbeInstance instance;
  instance.db = &training.database();
  instance.positives = training.PositiveExamples();
  instance.negatives = training.NegativeExamples();
  ExecutionBudget budget = ExpiredBudget();
  QbeOptions options;
  options.budget = &budget;
  QbeResult result = SolveCqmQbe(instance, 1, 0, options);
  EXPECT_EQ(result.outcome, BudgetOutcome::kTimedOut);
  EXPECT_FALSE(result.exists);
  EXPECT_FALSE(result.explanation.has_value());
}

TEST(CancellationTest, ExpiredDeadlineStopsTryResolveAtEntry) {
  TrainingDatabase training = SmallTraining();
  const Database& db = training.database();
  std::vector<ConjunctiveQuery> features =
      EnumerateFeatureQueries(db.schema_ptr(), 1);
  ASSERT_GE(features.size(), 2u);
  serve::EvalService service;
  ExecutionBudget budget = ExpiredBudget();
  std::vector<std::shared_ptr<const serve::FeatureAnswer>> answers =
      service.TryResolve(features, db, &budget);
  ASSERT_EQ(answers.size(), features.size());
  for (const auto& answer : answers) EXPECT_EQ(answer, nullptr);
  EXPECT_EQ(service.cache_size(), 0u) << "aborted request was cached";
  EXPECT_EQ(service.stats().features_evaluated, 0u);
}

TEST(CancellationTest, ExpiredDeadlineYieldsAllInvalidPartialMatrix) {
  TrainingDatabase training = SmallTraining();
  const Database& db = training.database();
  Statistic statistic(EnumerateFeatureQueries(db.schema_ptr(), 1));
  ExecutionBudget budget = ExpiredBudget();
  PartialMatrix partial = statistic.TryMatrix(db, &budget);
  EXPECT_EQ(partial.outcome, BudgetOutcome::kTimedOut);
  EXPECT_FALSE(partial.complete());
  ASSERT_EQ(partial.rows.size(), db.Entities().size());
  ASSERT_EQ(partial.valid.size(), partial.rows.size());
  for (std::size_t i = 0; i < partial.rows.size(); ++i) {
    ASSERT_EQ(partial.rows[i].size(), statistic.dimension());
    for (std::size_t j = 0; j < partial.rows[i].size(); ++j) {
      EXPECT_EQ(partial.valid[i][j], 0) << "cell (" << i << "," << j << ")";
      EXPECT_EQ(partial.rows[i][j], -1) << "placeholder overwritten";
    }
  }
}

// --- Serve path: interruption never poisons the cache ---------------------

TEST(CancellationTest, ServeInterruptedRequestNeverPoisonsTheCache) {
  auto db = std::make_shared<Database>(GraphSchema());
  for (int i = 0; i < 6; ++i) AddEntity(*db, "e" + std::to_string(i));
  AddEdge(*db, "e0", "e1");
  AddEdge(*db, "e1", "e2");
  AddEdge(*db, "e2", "e0");
  AddEdge(*db, "e3", "e4");
  std::vector<ConjunctiveQuery> features =
      EnumerateFeatureQueries(db->schema_ptr(), 1);
  ASSERT_GE(features.size(), 2u);
  Statistic statistic(features);
  std::vector<FeatureVector> truth = statistic.Matrix(*db);  // Serial oracle.

  serve::ServeOptions serve_options;
  serve_options.num_shards = 1;  // Deterministic shard/cancel accounting.
  serve::EvalService service(serve_options);
  ExecutionBudget budget = ExecutionBudget::WithStepLimit(1);
  std::vector<std::shared_ptr<const serve::FeatureAnswer>> answers =
      service.TryResolve(features, *db, &budget);
  ASSERT_EQ(answers.size(), features.size());
  std::size_t aborted = 0;
  for (const auto& answer : answers) {
    if (answer == nullptr) ++aborted;
  }
  EXPECT_TRUE(budget.Interrupted());
  EXPECT_GT(aborted, 0u) << "step limit 1 did not interrupt the batch";
  serve::ServeStats mid = service.stats();
  EXPECT_GE(mid.cancelled_shards, 1u);

  // Warm completion through the SAME service: whatever the aborted request
  // left behind, the answers must be bit-identical to the serial oracle.
  std::vector<FeatureVector> served = service.Matrix(features, *db);
  EXPECT_EQ(served, truth);
  serve::ServeStats after = service.stats();
  EXPECT_GE(after.evaluation_retries, 1u)
      << "aborted keys were not re-requested";
}

// --- SolveCqmQbe: an interrupted sweep says so ---------------------------

TEST(CancellationTest, CqmQbeInterruptedSweepReportsBudgetExhausted) {
  auto db = std::make_shared<Database>(GraphSchema());
  Value a = AddEntity(*db, "a");
  Value b = AddEntity(*db, "b");
  Value c = AddEntity(*db, "c");
  AddEdge(*db, "a", "x");
  AddEdge(*db, "b", "y");
  AddEdge(*db, "z", "c");  // c has no outgoing edge: E(e, ·) explains {a,b}.
  QbeInstance instance;
  instance.db = db.get();
  instance.positives = {a, b};
  instance.negatives = {c};

  QbeResult baseline = SolveCqmQbe(instance, 1);
  ASSERT_EQ(baseline.outcome, BudgetOutcome::kCompleted);

  bool interrupted_once = false;
  for (std::uint64_t limit : {1ull, 3ull, 10ull, 30ull, 100ull, 300ull}) {
    ExecutionBudget budget = ExecutionBudget::WithStepLimit(limit);
    QbeOptions options;
    options.budget = &budget;
    QbeResult partial = SolveCqmQbe(instance, 1, 0, options);
    if (partial.outcome == BudgetOutcome::kCompleted) {
      EXPECT_EQ(partial.exists, baseline.exists) << "limit " << limit;
      continue;
    }
    interrupted_once = true;
    EXPECT_EQ(partial.outcome, BudgetOutcome::kBudgetExhausted)
        << "limit " << limit;
  }
  EXPECT_TRUE(interrupted_once) << "no step limit interrupted the sweep";
}

// --- The fuzz loop itself honours its budget ------------------------------

TEST(CancellationTest, FuzzLoopStopsOnCancelledBudget) {
  ExecutionBudget budget;
  budget.Cancel();
  FuzzOptions options;
  options.config = FuzzConfig::kHom;
  options.iterations = 50;
  options.budget = &budget;
  FuzzReport report = RunFuzz(options);
  EXPECT_EQ(report.iterations, 0u);
  EXPECT_TRUE(report.ok());
}

TEST(CancellationTest, FuzzReplayStopsOnCancelledBudget) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "featsep_cancel_replay";
  std::filesystem::remove_all(dir);
  FuzzInstance instance = GenerateFuzzInstance(FuzzConfig::kHom, 1);
  auto written = WriteFuzzInstanceFile(dir.string(), instance);
  ASSERT_TRUE(written.ok()) << written.error().message();

  // Control: without a budget both replay entries run.
  FuzzOptions control;
  control.replay_paths = {written.value(), written.value()};
  FuzzReport full = RunFuzz(control);
  EXPECT_EQ(full.iterations, 2u);
  EXPECT_TRUE(full.ok());

  ExecutionBudget budget;
  budget.Cancel();
  FuzzOptions cancelled;
  cancelled.replay_paths = {written.value(), written.value()};
  cancelled.budget = &budget;
  FuzzReport report = RunFuzz(cancelled);
  EXPECT_EQ(report.iterations, 0u);
  EXPECT_TRUE(report.ok());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace testing
}  // namespace featsep
