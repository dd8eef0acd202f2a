#include "serve/eval_service.h"

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/separability.h"
#include "core/statistic.h"
#include "cq/enumeration.h"
#include "cq/evaluation.h"
#include "cq/homomorphism.h"
#include "io/cq_parser.h"
#include "relational/training_database.h"
#include "serve/incremental.h"
#include "test_util.h"
#include "util/budget.h"
#include "workload/generators.h"

namespace featsep {
namespace {

using ::featsep::testing::AddCycle;
using ::featsep::testing::AddEdge;
using ::featsep::testing::AddEntity;
using ::featsep::testing::GraphSchema;
using ::featsep::testing::MakeWorld;
using ::featsep::testing::MakeWorldReordered;
using ::featsep::testing::OutInFeatures;
using serve::EvalService;
using serve::ServeOptions;
using serve::ServeStats;

TEST(EvalServiceTest, AnswerMatchesKernelEvaluator) {
  Database db = MakeWorld();
  std::vector<ConjunctiveQuery> features = OutInFeatures();
  EvalService service;
  for (const ConjunctiveQuery& feature : features) {
    auto answer = service.TryResolve({feature}, db, nullptr)[0];
    ASSERT_NE(answer, nullptr);
    CqEvaluator evaluator(feature);
    for (Value e : db.Entities()) {
      EXPECT_EQ(answer->Selects(db, e), evaluator.SelectsEntity(db, e))
          << feature.ToString() << " on " << db.value_name(e);
    }
  }
}

TEST(EvalServiceTest, MatrixBitIdenticalAcrossShardCounts) {
  Database db = MakeWorld();
  Statistic statistic(OutInFeatures());
  std::vector<FeatureVector> serial = statistic.Matrix(db);
  for (std::size_t shards : {1ul, 2ul, 8ul}) {
    ServeOptions options;
    options.num_shards = shards;
    options.entity_block = 1;  // Force one work item per entity.
    EvalService service(options);
    EXPECT_EQ(service.Matrix(statistic.features(), db), serial)
        << "shards = " << shards;
  }
}

TEST(EvalServiceTest, VectorMatchesSerialStatistic) {
  Database db = MakeWorld();
  Statistic statistic(OutInFeatures());
  EvalService service;
  for (Value e : db.Entities()) {
    EXPECT_EQ(service.Vector(statistic.features(), db, e),
              statistic.Vector(db, e));
  }
}

TEST(EvalServiceTest, WarmCallsHitTheCache) {
  Database db = MakeWorld();
  std::vector<ConjunctiveQuery> features = OutInFeatures();
  EvalService service;
  std::vector<FeatureVector> cold = service.Matrix(features, db);
  ServeStats after_cold = service.stats();
  EXPECT_EQ(after_cold.cache_misses, features.size());
  EXPECT_EQ(after_cold.cache_hits, 0u);
  EXPECT_EQ(after_cold.features_evaluated, features.size());
  EXPECT_EQ(service.cache_size(), features.size());

  std::vector<FeatureVector> warm = service.Matrix(features, db);
  ServeStats after_warm = service.stats();
  EXPECT_EQ(warm, cold);
  EXPECT_EQ(after_warm.cache_hits, features.size());
  // No new kernel work on the warm call.
  EXPECT_EQ(after_warm.features_evaluated, features.size());
  EXPECT_EQ(after_warm.entity_evaluations, after_cold.entity_evaluations);
}

TEST(EvalServiceTest, CacheTransfersBetweenEqualContentDatabases) {
  Database db1 = MakeWorld();
  Database db2 = MakeWorldReordered();
  ASSERT_EQ(db1.ContentDigest(), db2.ContentDigest());
  ASSERT_NE(db1.FindValue("both"), db2.FindValue("both"));  // Ids differ.

  Statistic statistic(OutInFeatures());
  EvalService service;
  service.Matrix(statistic.features(), db1);  // Warm on db1's content.
  std::vector<FeatureVector> served = service.Matrix(statistic.features(), db2);
  ServeStats stats = service.stats();
  // db2 was answered purely from db1's entries...
  EXPECT_EQ(stats.cache_hits, statistic.dimension());
  EXPECT_EQ(stats.features_evaluated, statistic.dimension());
  // ...and still in db2's own entity order and value ids.
  EXPECT_EQ(served, statistic.Matrix(db2));
}

TEST(EvalServiceTest, LruEvictsAtCapacity) {
  Database db = MakeWorld();
  std::vector<ConjunctiveQuery> features = OutInFeatures();
  ServeOptions options;
  options.cache_capacity = 1;
  EvalService service(options);
  service.Matrix(features, db);  // Two features through a one-entry cache.
  ServeStats stats = service.stats();
  EXPECT_GE(stats.cache_evictions, 1u);
  EXPECT_EQ(service.cache_size(), 1u);
  // Results stay correct regardless of eviction pressure.
  EXPECT_EQ(service.Matrix(features, db), Statistic(features).Matrix(db));
}

TEST(EvalServiceTest, ZeroCapacityDisablesCaching) {
  Database db = MakeWorld();
  std::vector<ConjunctiveQuery> features = OutInFeatures();
  ServeOptions options;
  options.cache_capacity = 0;
  EvalService service(options);
  std::vector<FeatureVector> first = service.Matrix(features, db);
  std::vector<FeatureVector> second = service.Matrix(features, db);
  EXPECT_EQ(first, second);
  EXPECT_EQ(service.cache_size(), 0u);
  EXPECT_EQ(service.stats().cache_hits, 0u);
  EXPECT_EQ(service.stats().features_evaluated, 2 * features.size());
}

TEST(EvalServiceTest, ClearCacheForcesReevaluation) {
  Database db = MakeWorld();
  std::vector<ConjunctiveQuery> features = OutInFeatures();
  EvalService service;
  service.Matrix(features, db);
  service.ClearCache();
  EXPECT_EQ(service.cache_size(), 0u);
  service.Matrix(features, db);
  EXPECT_EQ(service.stats().features_evaluated, 2 * features.size());
}

TEST(EvalServiceTest, DecideCqmSepMatchesSerialPath) {
  auto db = std::make_shared<Database>(GraphSchema());
  Value pos = AddEntity(*db, "pos");
  Value neg = AddEntity(*db, "neg");
  AddEdge(*db, "pos", "t");
  TrainingDatabase training(db);
  training.SetLabel(pos, kPositive);
  training.SetLabel(neg, kNegative);

  CqmSepResult serial = DecideCqmSep(training, 1);
  EvalService service;
  CqmSepOptions options;
  options.service = &service;
  for (int round = 0; round < 2; ++round) {  // Cold cache, then warm.
    CqmSepResult served = DecideCqmSep(training, 1, options);
    EXPECT_EQ(served.separable, serial.separable);
    EXPECT_EQ(served.features_enumerated, serial.features_enumerated);
    ASSERT_EQ(served.model.has_value(), serial.model.has_value());
    if (served.model.has_value()) {
      EXPECT_EQ(served.model->statistic.ToString(),
                serial.model->statistic.ToString());
      EXPECT_EQ(served.model->TrainingErrors(training),
                serial.model->TrainingErrors(training));
    }
  }
  EXPECT_GT(service.stats().cache_hits, 0u);  // Round two reused round one.
}

TEST(EvalServiceCoherenceTest, StaleEntriesAreNeverServedAfterMutation) {
  // A mutated database has a new content digest, so pre-mutation cache
  // entries — still resident in the LRU — can never answer for it, with or
  // without delta maintenance running.
  Database db = MakeWorld();
  std::vector<ConjunctiveQuery> features = OutInFeatures();
  ServeOptions options;
  options.num_shards = 1;
  options.cache_capacity = 16;
  EvalService service(options);
  service.Matrix(features, db);
  const std::uint64_t old_digest = db.ContentDigest();

  Delta delta = db.InsertFact(db.schema().FindRelation("E"),
                              {db.FindValue("none"), db.FindValue("t")});
  ASSERT_TRUE(delta.applied);
  // No maintenance ran: the old entries still exist under the old digest,
  // but a read against the mutated database re-evaluates under the new one.
  ASSERT_NE(service.PeekCached(old_digest, features[0].ToString()), nullptr);
  Statistic statistic(features);
  EXPECT_EQ(service.Matrix(features, db), statistic.Matrix(db));
  auto fresh = service.PeekCached(db.ContentDigest(), features[0].ToString());
  ASSERT_NE(fresh, nullptr);
  EXPECT_TRUE(fresh->SelectsName("none")) << "served a stale answer";
}

TEST(EvalServiceCoherenceTest, MutationSoakStaysBitIdenticalToCold) {
  // Interleaved reads and mutations: after every mutation, the warm
  // service's matrix must equal a cold single-shard cache-free service run
  // on a from-scratch rebuild of the same content.
  Database db = MakeWorld();
  std::vector<ConjunctiveQuery> features = OutInFeatures();
  ServeOptions warm_options;
  warm_options.num_shards = 1;
  warm_options.cache_capacity = 16;
  EvalService warm(warm_options);
  serve::IncrementalMaintainer maintainer(&warm, features);
  warm.Matrix(features, db);

  RelationId edge = db.schema().FindRelation("E");
  RelationId eta = db.schema().entity_relation();
  const struct {
    RelationId relation;
    const char* a;
    const char* b;  // nullptr for unary η mutations.
    bool insert;
  } kSoak[] = {
      {edge, "none", "t", true},   {edge, "both", "t", false},
      {eta, "t", nullptr, true},   {edge, "u", "both", false},
      {eta, "t", nullptr, false},  {edge, "none", "t", false},
      {eta, "none", nullptr, false},
  };
  for (const auto& step : kSoak) {
    std::vector<Value> args;
    args.push_back(db.Intern(step.a));
    if (step.b != nullptr) args.push_back(db.Intern(step.b));
    Delta delta = step.insert ? db.InsertFact(step.relation, args)
                              : db.RemoveFact(step.relation, args);
    maintainer.ApplyDelta(db, delta);

    Database rebuilt(db.schema_ptr());
    for (std::size_t v = 0; v < db.num_values(); ++v) {
      rebuilt.Intern(db.value_name(static_cast<Value>(v)));
    }
    for (const Fact& fact : db.facts()) {
      rebuilt.AddFact(fact.relation, fact.args);
    }
    ServeOptions cold_options;
    cold_options.num_shards = 1;
    cold_options.cache_capacity = 0;
    EvalService cold(cold_options);
    EXPECT_EQ(warm.Matrix(features, db), cold.Matrix(features, rebuilt))
        << "warm reads diverged from cold after a mutation";
  }
}

TEST(CqEvaluatorReuseTest, OneEvaluatorAcrossCollidingDatabases) {
  // Satellite audit: a CqEvaluator holds only query-derived state, so one
  // instance must answer correctly across databases whose value ids collide
  // (same numeric ids naming different constants), interleaved.
  std::vector<ConjunctiveQuery> features = OutInFeatures();
  CqEvaluator evaluator(features[0]);  // "Has an out-edge".

  Database db1(GraphSchema());
  Value a1 = AddEntity(db1, "a");
  Value b1 = AddEntity(db1, "b");
  AddEdge(db1, "a", "b");  // a has an out-edge, b does not.

  Database db2(GraphSchema());
  Value b2 = AddEntity(db2, "b");  // db2 ids: "b" and "a" swapped vs db1.
  Value a2 = AddEntity(db2, "a");
  AddEdge(db2, "b", "a");  // Here b has the out-edge.

  ASSERT_EQ(a1, b2);  // The collision the audit is about.
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(evaluator.SelectsEntity(db1, a1));
    EXPECT_TRUE(evaluator.SelectsEntity(db2, b2));
    EXPECT_FALSE(evaluator.SelectsEntity(db1, b1));
    EXPECT_FALSE(evaluator.SelectsEntity(db2, a2));
  }
}

ConjunctiveQuery ParseGraphCq(const std::string& text) {
  auto q = ParseCq(GraphSchema(), text);
  EXPECT_TRUE(q.ok()) << q.error().message();
  return q.value();
}

/// e ∈ q(D) by one fresh search of q's full canonical database — the
/// per-entity path the whole-answer-set evaluation replaced.
bool FreshProbe(const ConjunctiveQuery& q, const Database& db, Value e) {
  auto [canonical, var_to_value] = q.CanonicalDatabase();
  return FindHomomorphism(canonical, db, {{var_to_value[q.free_variable()], e}})
             .status == HomStatus::kFound;
}

TEST(CqEvaluatorReuseTest, FailingXFreePartEmptiesTheAnswerWithoutSearch) {
  // E(y, y) needs a self-loop, and this database has none.
  CqEvaluator evaluator(ParseGraphCq("q(x) :- Eta(x), E(x, z), E(y, y)"));
  Database db(GraphSchema());
  for (const char* name : {"a", "b", "c"}) AddEntity(db, name);
  AddEdge(db, "a", "b");
  AddEdge(db, "b", "c");
  AddEdge(db, "c", "a");
  EXPECT_TRUE(evaluator.Evaluate(db).empty());

  ExecutionBudget budget;
  CqEvaluator::Binding binding = evaluator.Bind(db);
  const std::vector<Value> entities = db.Entities();
  EXPECT_EQ(binding.TrySelectsEntity(entities[0], &budget),
            std::optional<bool>(false));
  // Once the rest is refuted, no entity is searched: a cancelled budget
  // charges nothing and still gets the definitive answer.
  const std::uint64_t steps = budget.steps();
  budget.Cancel();
  for (Value e : entities) {
    EXPECT_EQ(binding.TrySelectsEntity(e, &budget), std::optional<bool>(false))
        << db.value_name(e);
  }
  EXPECT_EQ(budget.steps(), steps);
}

TEST(CqEvaluatorReuseTest, HoldingXFreePartLeavesTheXComponentAnswer) {
  CqEvaluator with_rest(ParseGraphCq("q(x) :- Eta(x), E(x, z), E(y, y)"));
  CqEvaluator component(ParseGraphCq("q(x) :- Eta(x), E(x, z)"));
  Database db(GraphSchema());
  for (const char* name : {"a", "b", "c", "d"}) AddEntity(db, name);
  AddEdge(db, "a", "b");
  AddEdge(db, "c", "a");
  AddEdge(db, "u", "u");  // The self-loop the rest needs, off the entities.
  const std::vector<Value> expected = component.Evaluate(db);
  EXPECT_EQ(expected.size(), 2u);  // a and c.
  EXPECT_EQ(with_rest.Evaluate(db), expected);
  for (Value e : db.Entities()) {
    EXPECT_EQ(with_rest.SelectsEntity(db, e),
              FreshProbe(with_rest.query(), db, e))
        << db.value_name(e);
  }
}

TEST(CqEvaluatorReuseTest, FreeVariableInNoAtomOverANonEntitySchema) {
  Schema plain;
  RelationId e_rel = plain.AddRelation("E", 2);
  auto schema = std::make_shared<const Schema>(std::move(plain));
  // q(x) :- E(y, y): x occurs in no atom, so q(D) is all of dom(D) when D
  // has a self-loop and empty otherwise.
  ConjunctiveQuery q(schema);
  q.AddFreeVariable(q.NewVariable("x"));
  Variable y = q.NewVariable("y");
  q.AddAtom(e_rel, {y, y});
  CqEvaluator evaluator(q);

  Database loop(schema);
  loop.AddFact("E", {"a", "b"});
  loop.AddFact("E", {"b", "b"});
  EXPECT_EQ(evaluator.Evaluate(loop), loop.domain());
  for (Value v : loop.domain()) {
    EXPECT_TRUE(FreshProbe(q, loop, v));
  }

  Database no_loop(schema);
  no_loop.AddFact("E", {"a", "b"});
  EXPECT_TRUE(evaluator.Evaluate(no_loop).empty());
  for (Value v : no_loop.domain()) {
    EXPECT_FALSE(evaluator.SelectsEntity(no_loop, v));
  }
}

TEST(CqEvaluatorReuseTest, EveryCq2FeatureMatchesFreshProbes) {
  RandomGraphParams params;
  params.num_entities = 8;
  params.num_background_nodes = 24;
  params.num_background_edges = 40;
  params.seed = 5;
  auto training = RandomPlantedGraph(params);
  const Database& db = training->database();
  // Entities forward, then backward, so the prepared search is rewound
  // after found and after refuted probes alike.
  const std::vector<Value> entities = db.Entities();
  std::vector<Value> order = entities;
  order.insert(order.end(), entities.rbegin(), entities.rend());
  const std::set<std::string> disconnected = {
      "q(x) :- Eta(x), E(y1, y2), E(y2, y1)",
      "q(x) :- Eta(x), Eta(y1), E(y2, y2)",
      "q(x) :- Eta(x), E(y1, y2), E(y2, y2)"};
  std::size_t selected = 0;
  std::size_t disconnected_seen = 0;
  for (const ConjunctiveQuery& feature :
       EnumerateFeatureQueries(db.schema_ptr(), 2)) {
    disconnected_seen += disconnected.count(feature.ToString());
    CqEvaluator evaluator(feature);
    CqEvaluator::Binding binding = evaluator.Bind(db);
    for (Value e : order) {
      const bool fresh = FreshProbe(feature, db, e);
      EXPECT_EQ(binding.SelectsEntity(e), fresh)
          << feature.ToString() << " on " << db.value_name(e);
      selected += fresh ? 1 : 0;
    }
  }
  EXPECT_GT(selected, 0u);
  EXPECT_EQ(disconnected_seen, disconnected.size());
}

TEST(CqEvaluatorReuseTest, BudgetTrippingInTheXFreePartIsNeverAPartialAnswer) {
  // The x-free rest is a 2-cycle: deciding it takes at least two search
  // nodes, so a one-step budget trips inside it.
  ConjunctiveQuery q =
      ParseGraphCq("q(x) :- Eta(x), E(x, z), E(y1, y2), E(y2, y1)");
  Database db(GraphSchema());
  for (const char* name : {"a", "b", "c"}) AddEntity(db, name);
  AddEdge(db, "a", "u");
  AddEdge(db, "c", "u");
  AddCycle(db, "w", 2);
  std::vector<Value> expected;
  for (Value e : db.Entities()) {
    if (FreshProbe(q, db, e)) expected.push_back(e);
  }
  ASSERT_EQ(expected.size(), 2u);

  CqEvaluator evaluator(q);
  CqEvaluator::Binding binding = evaluator.Bind(db);
  ExecutionBudget tripping = ExecutionBudget::WithStepLimit(1);
  for (Value e : db.Entities()) {
    EXPECT_EQ(binding.TrySelectsEntity(e, &tripping), std::nullopt)
        << db.value_name(e);
  }
  EXPECT_EQ(tripping.outcome(), BudgetOutcome::kBudgetExhausted);
  // The same binding retries the undecided rest under a fresh budget.
  ExecutionBudget fresh;
  std::vector<Value> retried;
  for (Value e : db.Entities()) {
    std::optional<bool> selects = binding.TrySelectsEntity(e, &fresh);
    ASSERT_TRUE(selects.has_value());
    if (*selects) retried.push_back(e);
  }
  EXPECT_EQ(retried, expected);

  // Through the service: the aborted feature is answered by nothing and
  // cached nowhere, and the retry answers in full.
  EvalService service;
  ExecutionBudget tripping_again = ExecutionBudget::WithStepLimit(1);
  EXPECT_EQ(service.TryResolve({q}, db, &tripping_again)[0], nullptr);
  auto answer = service.TryResolve({q}, db, nullptr)[0];
  ASSERT_NE(answer, nullptr);
  EXPECT_EQ(answer->size(), expected.size());
  for (Value e : expected) EXPECT_TRUE(answer->Selects(db, e));
  EXPECT_EQ(service.stats().evaluation_retries, 1u);
}

}  // namespace
}  // namespace featsep
