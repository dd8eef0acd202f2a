#include "serve/incremental.h"

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/separability.h"
#include "linsep/separability_lp.h"
#include "relational/database.h"
#include "relational/training_database.h"
#include "serve/eval_service.h"
#include "test_util.h"
#include "workload/generators.h"

namespace featsep {
namespace {

using ::featsep::testing::AddEdge;
using ::featsep::testing::AddEntity;
using ::featsep::testing::GraphSchema;
using ::featsep::testing::MakeWorld;
using ::featsep::testing::OutInFeatures;
using ::featsep::testing::Rebuild;
using serve::AffectedEntities;
using serve::DeltaMaintenance;
using serve::EvalService;
using serve::FeatureAnswer;
using serve::IncrementalMaintainer;
using serve::IncrementalSeparability;
using serve::ServeOptions;

EvalService MakeSerialService(std::size_t cache_capacity) {
  ServeOptions options;
  options.num_shards = 1;
  options.cache_capacity = cache_capacity;
  return EvalService(options);
}

TEST(DeltaTest, InsertFactReturnsAppliedDelta) {
  Database db = MakeWorld();
  const std::uint64_t before = db.ContentDigest();
  Value none = db.FindValue("none");
  Value t = db.FindValue("t");
  Delta delta = db.InsertFact(db.schema().FindRelation("E"), {none, t});
  EXPECT_TRUE(delta.applied);
  EXPECT_EQ(delta.kind, Delta::Kind::kInsert);
  EXPECT_FALSE(delta.entity_fact);
  EXPECT_EQ(delta.old_digest, before);
  EXPECT_EQ(delta.new_digest, db.ContentDigest());
  EXPECT_NE(delta.old_digest, delta.new_digest);
  EXPECT_EQ(delta.touched.size(), 2u);
  EXPECT_TRUE(db.ContainsFact(Fact{db.schema().FindRelation("E"), {none, t}}));
  // The patched digest equals a cold recompute over equal content.
  EXPECT_EQ(db.ContentDigest(), Rebuild(db).ContentDigest());
}

TEST(DeltaTest, DuplicateInsertIsNoOp) {
  Database db = MakeWorld();
  const std::size_t size = db.size();
  const Fact fact = db.fact(0);
  Delta delta = db.InsertFact(fact.relation, fact.args);
  EXPECT_FALSE(delta.applied);
  EXPECT_TRUE(delta.touched.empty());
  EXPECT_EQ(delta.old_digest, delta.new_digest);
  EXPECT_EQ(db.size(), size);
}

TEST(DeltaTest, RemoveFactPatchesEverything) {
  Database db = MakeWorld();
  const std::uint64_t before = db.ContentDigest();
  (void)db.domain();  // A warm domain is dropped and rebuilt.
  Value u = db.FindValue("u");
  Value both = db.FindValue("both");
  Delta delta = db.RemoveFact(db.schema().FindRelation("E"), {u, both});
  EXPECT_TRUE(delta.applied);
  EXPECT_EQ(delta.kind, Delta::Kind::kRemove);
  EXPECT_EQ(delta.old_digest, before);
  EXPECT_EQ(delta.new_digest, db.ContentDigest());
  EXPECT_FALSE(
      db.ContainsFact(Fact{db.schema().FindRelation("E"), {u, both}}));
  // "u" occurred only in the removed fact: it left dom(D).
  EXPECT_FALSE(db.InDomain(u));
  Database fresh = Rebuild(db);
  EXPECT_EQ(db.ContentDigest(), fresh.ContentDigest());
  EXPECT_EQ(db.domain(), fresh.domain());
  EXPECT_EQ(db.domain_index(), fresh.domain_index());
  // Secondary indexes survived the FactIndex compaction.
  for (std::size_t v = 0; v < db.num_values(); ++v) {
    EXPECT_EQ(db.FactsContaining(static_cast<Value>(v)).size(),
              fresh.FactsContaining(static_cast<Value>(v)).size());
  }
}

TEST(DeltaTest, RemoveAbsentFactIsNoOp) {
  Database db = MakeWorld();
  Value w = db.Intern("w-absent");
  Delta delta = db.RemoveFact(db.schema().FindRelation("E"), {w, w});
  EXPECT_FALSE(delta.applied);
  EXPECT_EQ(delta.old_digest, delta.new_digest);
}

TEST(DeltaTest, EntityFactDeltasAreFlagged) {
  Database db = MakeWorld();
  Value fresh_entity = db.Intern("extra");
  Delta insert =
      db.InsertFact(db.schema().entity_relation(), {fresh_entity});
  EXPECT_TRUE(insert.applied);
  EXPECT_TRUE(insert.entity_fact);
  EXPECT_TRUE(db.IsEntity(fresh_entity));
  Delta remove =
      db.RemoveFact(db.schema().entity_relation(), {fresh_entity});
  EXPECT_TRUE(remove.applied);
  EXPECT_TRUE(remove.entity_fact);
  EXPECT_FALSE(db.IsEntity(fresh_entity));
}

TEST(DeltaTest, EntityOrderSurvivesRemoval) {
  Database db = MakeWorld();  // Entities: both, none, out.
  Delta delta =
      db.RemoveFact(db.schema().entity_relation(), {db.FindValue("none")});
  ASSERT_TRUE(delta.applied);
  std::vector<Value> entities = db.Entities();
  ASSERT_EQ(entities.size(), 2u);
  EXPECT_EQ(db.value_name(entities[0]), "both");
  EXPECT_EQ(db.value_name(entities[1]), "out");
}

TEST(DeltaTest, DomainMatchesRebuildAfterMutation) {
  Database db = MakeWorld();
  (void)db.domain();
  (void)db.domain_index();
  Value fresh_value = db.Intern("zz-fresh");
  const RelationId edge = db.schema().FindRelation("E");
  const std::vector<Value> args = {db.FindValue("both"), fresh_value};
  Delta delta = db.InsertFact(edge, args);
  ASSERT_TRUE(delta.applied);
  Database fresh = Rebuild(db);
  EXPECT_EQ(db.domain(), fresh.domain());
  EXPECT_EQ(db.domain_index(), fresh.domain_index());
  EXPECT_EQ(db.DomainIndexOf(fresh_value), fresh.DomainIndexOf(fresh_value));

  // The value's last fact leaves, then comes back through AddFact: each
  // step's domain is the one a cold rebuild computes.
  for (bool present : {false, true}) {
    if (present) {
      ASSERT_TRUE(db.AddFact(edge, args));
    } else {
      ASSERT_TRUE(db.RemoveFact(edge, args).applied);
    }
    fresh = Rebuild(db);
    EXPECT_EQ(db.InDomain(fresh_value), present);
    EXPECT_EQ(fresh.InDomain(fresh_value), present);
    EXPECT_EQ(db.domain(), fresh.domain());
    EXPECT_EQ(db.domain_index(), fresh.domain_index());
    EXPECT_EQ(db.ContentDigest(), fresh.ContentDigest());
  }
}

/// Satellite property: ANY insert/delete sequence — including duplicate
/// inserts and re-insertion after deletion — leaves the incrementally
/// patched digest equal to a fresh database holding the same content. The
/// PR 8 golden digest values are pinned separately in DatabaseDigestTest.
TEST(DeltaTest, DigestSequencePropertyMatchesFreshDatabase) {
  WorkloadRng rng(0xd1905eedULL);
  Database db(GraphSchema());
  AddEntity(db, "a");
  AddEntity(db, "b");
  AddEdge(db, "a", "b");
  RelationId edge = db.schema().FindRelation("E");
  std::vector<Fact> removed;
  for (std::size_t step = 0; step < 200; ++step) {
    const std::size_t pick = rng.Below(100);
    if (pick < 20 && !removed.empty()) {
      // Re-insert a previously removed fact.
      const Fact fact = removed.back();
      removed.pop_back();
      db.InsertFact(fact.relation, fact.args);
    } else if (pick < 45 && db.size() > 0) {
      // Duplicate insert: must be a digest no-op.
      const Fact fact = db.fact(rng.Below(db.size()));
      Delta delta = db.InsertFact(fact.relation, fact.args);
      EXPECT_FALSE(delta.applied);
    } else if (pick < 70 && db.size() > 1) {
      const Fact fact = db.fact(rng.Below(db.size()));
      removed.push_back(fact);
      db.RemoveFact(fact.relation, fact.args);
    } else {
      Value x = db.Intern("n" + std::to_string(rng.Below(6)));
      Value y = db.Intern("n" + std::to_string(rng.Below(6)));
      db.InsertFact(edge, {x, y});
    }
    ASSERT_EQ(db.ContentDigest(), Rebuild(db).ContentDigest())
        << "digest diverged from recompute at step " << step;
  }
}

TEST(AffectedEntitiesTest, DirectionScreenUsesPreviousAnswer) {
  Database db = MakeWorld();
  std::vector<ConjunctiveQuery> features = OutInFeatures();
  // Previous answer of the out-edge feature: {both, out}.
  FeatureAnswer previous(
      std::unordered_set<std::string>{"both", "out"});
  Delta delta = db.InsertFact(db.schema().FindRelation("E"),
                              {db.FindValue("none"), db.FindValue("t")});
  ASSERT_TRUE(delta.applied);
  std::vector<Value> affected =
      AffectedEntities(db, delta, features[0], &previous);
  // Insert: previously selected entities cannot flip — only "none" can.
  ASSERT_EQ(affected.size(), 1u);
  EXPECT_EQ(db.value_name(affected[0]), "none");
}

TEST(AffectedEntitiesTest, NullPreviousDisablesDirectionScreen) {
  Database db = MakeWorld();
  std::vector<ConjunctiveQuery> features = OutInFeatures();
  Delta delta = db.InsertFact(db.schema().FindRelation("E"),
                              {db.FindValue("none"), db.FindValue("t")});
  ASSERT_TRUE(delta.applied);
  std::vector<Value> with_null =
      AffectedEntities(db, delta, features[0], nullptr);
  FeatureAnswer previous(std::unordered_set<std::string>{"both", "out"});
  std::vector<Value> with_previous =
      AffectedEntities(db, delta, features[0], &previous);
  // The null-previous screen is a superset of the direction-screened one.
  for (Value e : with_previous) {
    EXPECT_NE(std::find(with_null.begin(), with_null.end(), e),
              with_null.end());
  }
  EXPECT_GE(with_null.size(), with_previous.size());
}

TEST(AffectedEntitiesTest, NeighborhoodScreenBoundsTheBlastRadius) {
  // A long path far from the mutation: entities beyond |atoms| hops of the
  // delta cannot flip a 1-atom feature and must be screened out.
  Database db(GraphSchema());
  Value a = AddEntity(db, "a");
  AddEntity(db, "far");
  AddEdge(db, "far", "f1");
  AddEdge(db, "f1", "f2");
  AddEdge(db, "f2", "f3");
  std::vector<ConjunctiveQuery> features = OutInFeatures();
  Delta delta =
      db.InsertFact(db.schema().FindRelation("E"), {a, db.Intern("t")});
  ASSERT_TRUE(delta.applied);
  std::vector<Value> affected =
      AffectedEntities(db, delta, features[0], nullptr);
  for (Value e : affected) {
    EXPECT_NE(db.value_name(e), "far") << "outside the neighborhood bound";
  }
}

TEST(IncrementalMaintainerTest, PatchModeKeepsWarmAnswersExact) {
  Database db = MakeWorld();
  std::vector<ConjunctiveQuery> features = OutInFeatures();
  EvalService service = MakeSerialService(16);
  service.Matrix(features, db);  // Warm both features.
  IncrementalMaintainer maintainer(&service, features);

  Delta delta = db.InsertFact(db.schema().FindRelation("E"),
                              {db.FindValue("none"), db.FindValue("t")});
  ASSERT_TRUE(delta.applied);
  DeltaMaintenance maintenance = maintainer.ApplyDelta(db, delta);
  EXPECT_EQ(maintenance.old_digest, delta.old_digest);
  EXPECT_EQ(maintenance.new_digest, delta.new_digest);
  EXPECT_FALSE(maintenance.entity_set_changed);
  // "none" gained an out-edge: its row flipped and is reported.
  ASSERT_EQ(maintenance.changed_entities.size(), 1u);
  EXPECT_EQ(maintenance.changed_entities[0], "none");

  // Old-digest keys are gone; new-digest keys are warm and exact.
  for (const ConjunctiveQuery& feature : features) {
    EXPECT_EQ(service.PeekCached(delta.old_digest, feature.ToString()),
              nullptr);
    ASSERT_NE(service.PeekCached(delta.new_digest, feature.ToString()),
              nullptr);
  }
  std::shared_ptr<const FeatureAnswer> out_answer =
      service.PeekCached(delta.new_digest, features[0].ToString());
  EXPECT_TRUE(out_answer->SelectsName("none"));
  EXPECT_TRUE(out_answer->SelectsName("both"));

  // Bit-identical to a cold recompute.
  EvalService cold = MakeSerialService(0);
  EXPECT_EQ(service.Matrix(features, db), cold.Matrix(features, Rebuild(db)));
  EXPECT_EQ(maintainer.stats().features_patched, 2u);
  EXPECT_GT(maintainer.stats().entities_screened_out, 0u);
}

TEST(IncrementalMaintainerTest, EntityRemovalDropsTheRow) {
  Database db = MakeWorld();
  std::vector<ConjunctiveQuery> features = OutInFeatures();
  EvalService service = MakeSerialService(16);
  service.Matrix(features, db);
  IncrementalMaintainer maintainer(&service, features);

  Delta delta =
      db.RemoveFact(db.schema().entity_relation(), {db.FindValue("both")});
  ASSERT_TRUE(delta.applied);
  ASSERT_TRUE(delta.entity_fact);
  DeltaMaintenance maintenance = maintainer.ApplyDelta(db, delta);
  EXPECT_TRUE(maintenance.entity_set_changed);
  EXPECT_NE(std::find(maintenance.changed_entities.begin(),
                      maintenance.changed_entities.end(), "both"),
            maintenance.changed_entities.end());
  std::shared_ptr<const FeatureAnswer> out_answer =
      service.PeekCached(delta.new_digest, features[0].ToString());
  ASSERT_NE(out_answer, nullptr);
  EXPECT_FALSE(out_answer->SelectsName("both"));
  EvalService cold = MakeSerialService(0);
  EXPECT_EQ(service.Matrix(features, db), cold.Matrix(features, Rebuild(db)));
}

TEST(IncrementalMaintainerTest, NoOpDeltaDoesNothing) {
  Database db = MakeWorld();
  std::vector<ConjunctiveQuery> features = OutInFeatures();
  EvalService service = MakeSerialService(16);
  service.Matrix(features, db);
  IncrementalMaintainer maintainer(&service, features);
  const Fact fact = db.fact(0);
  Delta delta = db.InsertFact(fact.relation, fact.args);
  ASSERT_FALSE(delta.applied);
  DeltaMaintenance maintenance = maintainer.ApplyDelta(db, delta);
  EXPECT_TRUE(maintenance.changed_entities.empty());
  EXPECT_EQ(maintainer.stats().noop_deltas, 1u);
  EXPECT_EQ(maintainer.stats().deltas_applied, 0u);
  for (const ConjunctiveQuery& feature : features) {
    EXPECT_NE(service.PeekCached(delta.new_digest, feature.ToString()),
              nullptr);
  }
}

TEST(IncrementalSeparabilityTest, ReusesAndWarmStartsOnStableState) {
  auto db = std::make_shared<Database>(MakeWorld());
  TrainingDatabase training(db);
  std::vector<Value> entities = db->Entities();
  training.SetLabel(entities[0], 1);   // both
  training.SetLabel(entities[1], -1);  // none
  training.SetLabel(entities[2], -1);  // out
  std::vector<ConjunctiveQuery> features = OutInFeatures();
  EvalService service = MakeSerialService(16);
  IncrementalSeparability isep(features);

  IncrementalSeparability::Verdict first =
      isep.Recheck(training, &service, {});
  EXPECT_TRUE(first.lin_separable);
  EXPECT_TRUE(first.cq_sep.separable);
  EXPECT_EQ(isep.stats().lin_resolves, 1u);
  EXPECT_EQ(isep.stats().cqsep_resolves, 1u);

  // Unchanged state: the CQ verdict is reused outright and the previous
  // separator re-certifies with zero simplex pivots.
  IncrementalSeparability::Verdict second =
      isep.Recheck(training, &service, {});
  EXPECT_TRUE(second.lin_separable);
  EXPECT_TRUE(second.cq_sep.separable);
  EXPECT_EQ(isep.stats().cqsep_reuses, 1u);
  EXPECT_EQ(isep.stats().lin_warm_hits, 1u);
  EXPECT_EQ(isep.stats().lin_resolves, 1u);
}

TEST(IncrementalSeparabilityTest, WitnessReuseSkipsTheFullSweep) {
  // Two hom-equivalent entities labeled apart: CQ-inseparable.
  auto db = std::make_shared<Database>(GraphSchema());
  Value a = AddEntity(*db, "a");
  Value b = AddEntity(*db, "b");
  AddEdge(*db, "a", "t");
  AddEdge(*db, "b", "t");
  TrainingDatabase training(db);
  training.SetLabel(a, 1);
  training.SetLabel(b, -1);
  std::vector<ConjunctiveQuery> features = OutInFeatures();
  EvalService service = MakeSerialService(16);
  IncrementalSeparability isep(features);

  IncrementalSeparability::Verdict first =
      isep.Recheck(training, &service, {});
  EXPECT_FALSE(first.cq_sep.separable);
  ASSERT_TRUE(first.cq_sep.conflict.has_value());

  // Mutate something irrelevant: the digest moves, the old conflict pair
  // stays valid, so the witness path answers without a pair sweep.
  auto mutated = std::make_shared<Database>(*db);
  mutated->InsertFact(mutated->schema().FindRelation("E"),
                      {mutated->Intern("x"), mutated->Intern("y")});
  TrainingDatabase training2(mutated);
  training2.SetLabel(a, 1);
  training2.SetLabel(b, -1);
  IncrementalSeparability::Verdict second =
      isep.Recheck(training2, &service, {});
  EXPECT_FALSE(second.cq_sep.separable);
  EXPECT_EQ(isep.stats().cqsep_witness_hits, 1u);
  EXPECT_EQ(isep.stats().cqsep_resolves, 1u);
  // The witness verdict matches the from-scratch sweep.
  EXPECT_EQ(second.cq_sep.separable, DecideCqSep(training2).separable);
}

TEST(IncrementalSeparabilityTest, RelabelIsSelfDetected) {
  auto db = std::make_shared<Database>(MakeWorld());
  TrainingDatabase training(db);
  std::vector<Value> entities = db->Entities();
  for (Value e : entities) training.SetLabel(e, 1);
  std::vector<ConjunctiveQuery> features = OutInFeatures();
  EvalService service = MakeSerialService(16);
  IncrementalSeparability isep(features);
  EXPECT_TRUE(isep.Recheck(training, &service, {}).lin_separable);

  // Flip one label WITHOUT telling Recheck: it must notice via the label
  // diff and still return the from-scratch verdicts.
  TrainingDatabase training2(db);
  training2.SetLabel(entities[0], -1);
  for (std::size_t i = 1; i < entities.size(); ++i) {
    training2.SetLabel(entities[i], 1);
  }
  IncrementalSeparability::Verdict verdict =
      isep.Recheck(training2, &service, {});
  EXPECT_EQ(verdict.cq_sep.separable, DecideCqSep(training2).separable);
  std::vector<FeatureVector> rows = service.Matrix(features, *db);
  TrainingCollection collection;
  for (std::size_t i = 0; i < entities.size(); ++i) {
    collection.emplace_back(rows[i], training2.label(entities[i]));
  }
  EXPECT_EQ(verdict.lin_separable, FindSeparator(collection).has_value());
}

/// Pins the mutation contract documented on Database (tsan enforces the
/// absence-of-races half): readers of one epoch join, the mutator runs
/// exclusively and drops every lazy index, and the readers of the next epoch
/// re-fetch, racing to rebuild the cold indexes, and observe exactly what a
/// fresh rebuild computes; the digest was patched, not dropped.
TEST(DatabaseMutationContractTest, EpochStyleMutationRebuildsColdIndexes) {
  Database db = MakeWorld();
  const RelationId edge = db.schema().FindRelation("E");
  // One epoch of concurrent readers; each compares every lazy cache with
  // `want` (null: only builds them).
  auto read_epoch = [&db, edge](const Database* want) {
    std::atomic<int> mismatches{0};
    std::vector<std::thread> readers;
    for (int i = 0; i < 4; ++i) {
      readers.emplace_back([&db, edge, want, &mismatches] {
        const std::uint64_t digest = db.ContentDigest();
        const std::vector<Value>& domain = db.domain();
        const std::vector<std::uint32_t>& index = db.domain_index();
        const std::size_t out_degree =
            db.position_bitsets().at(edge, 0).count();
        if (want == nullptr) return;
        if (digest != want->ContentDigest()) ++mismatches;
        if (domain != want->domain()) ++mismatches;
        if (index != want->domain_index()) ++mismatches;
        if (out_degree != want->position_bitsets().at(edge, 0).count()) {
          ++mismatches;
        }
      });
    }
    for (std::thread& reader : readers) reader.join();
    return mismatches.load();
  };
  // Epoch 1: concurrent cold readers race to build every lazy cache.
  read_epoch(nullptr);
  // Each mutation epoch has exclusive access, established by the joins.
  // Values enter and leave dom(D): "fresh" enters, the second removal takes
  // the last fact of "t", and the last insert brings "t" back.
  const std::vector<std::pair<bool, std::vector<Value>>> mutations = {
      {true, {db.Intern("both"), db.Intern("fresh")}},
      {false, {db.FindValue("out"), db.FindValue("t")}},
      {false, {db.FindValue("both"), db.FindValue("t")}},
      {true, {db.FindValue("fresh"), db.FindValue("t")}},
  };
  for (const auto& [insert, args] : mutations) {
    Delta delta =
        insert ? db.InsertFact(edge, args) : db.RemoveFact(edge, args);
    ASSERT_TRUE(delta.applied);
    // The next epoch's readers rebuild the cold indexes concurrently.
    const Database fresh = Rebuild(db);
    EXPECT_EQ(read_epoch(&fresh), 0);
  }
}

}  // namespace
}  // namespace featsep
