#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "io/writer.h"
#include "testing/fuzz.h"
#include "testing/properties.h"
#include "testing/random_instance.h"
#include "testing/shrink.h"
#include "test_util.h"
#include "workload/generators.h"

namespace featsep {
namespace {

using ::featsep::testing::AddPath;
using ::featsep::testing::AllFuzzConfigs;
using ::featsep::testing::FuzzConfig;
using ::featsep::testing::FuzzConfigName;
using ::featsep::testing::FuzzOptions;
using ::featsep::testing::FuzzReport;
using ::featsep::testing::GraphSchema;
using ::featsep::testing::ParseFuzzConfig;
using ::featsep::testing::RandomDatabase;
using ::featsep::testing::RandomDatabaseParams;
using ::featsep::testing::RandomSchema;
using ::featsep::testing::RandomSchemaParams;
using ::featsep::testing::RunFuzz;
using ::featsep::testing::ShrinkCqInstance;
using ::featsep::testing::ShrinkDatabase;
using ::featsep::testing::WithoutAtom;
using ::featsep::testing::WithoutFact;
using ::featsep::testing::WithoutValue;

// ---------------------------------------------------------------------------
// Generators: determinism and shape.

TEST(RandomInstanceTest, SameSeedSameInstance) {
  for (std::uint64_t seed : {1ull, 7ull, 99ull}) {
    WorkloadRng rng1(seed);
    WorkloadRng rng2(seed);
    RandomSchemaParams sp;
    auto s1 = RandomSchema(sp, rng1);
    auto s2 = RandomSchema(sp, rng2);
    RandomDatabaseParams dp;
    Database d1 = RandomDatabase(s1, dp, rng1);
    Database d2 = RandomDatabase(s2, dp, rng2);
    EXPECT_EQ(WriteDatabase(d1), WriteDatabase(d2));
  }
}

TEST(RandomInstanceTest, DifferentSeedsDiverge) {
  RandomSchemaParams sp;
  RandomDatabaseParams dp;
  WorkloadRng rng1(1);
  WorkloadRng rng2(2);
  Database d1 = RandomDatabase(RandomSchema(sp, rng1), dp, rng1);
  Database d2 = RandomDatabase(RandomSchema(sp, rng2), dp, rng2);
  EXPECT_NE(WriteDatabase(d1), WriteDatabase(d2));
}

TEST(RandomInstanceTest, TrainingDatabaseIsFullyLabeled) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    WorkloadRng rng(seed);
    RandomSchemaParams sp;
    sp.entity_schema = true;
    auto schema = RandomSchema(sp, rng);
    RandomDatabaseParams dp;
    auto training =
        featsep::testing::RandomTrainingDatabase(schema, dp, rng);
    EXPECT_TRUE(training->IsFullyLabeled()) << "seed " << seed;
    EXPECT_FALSE(training->Entities().empty()) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Shrinking: removal edits preserve ids; greedy loops reach local minima.

TEST(ShrinkTest, WithoutFactRemovesExactlyOne) {
  Database db(GraphSchema());
  AddPath(db, "p", 3);
  std::size_t before = db.size();
  Database smaller = WithoutFact(db, 0);
  EXPECT_EQ(smaller.size(), before - 1);
  EXPECT_EQ(smaller.num_values(), db.num_values());  // Values survive.
}

TEST(ShrinkTest, WithoutValueDropsIncidentFacts) {
  Database db(GraphSchema());
  std::vector<Value> p = AddPath(db, "p", 2);  // E(p0,p1), E(p1,p2).
  Database smaller = WithoutValue(db, p[1]);
  EXPECT_EQ(smaller.size(), 0u);  // Both edges touch p1.
}

TEST(ShrinkTest, ShrinkDatabaseReachesMinimalSelfLoop) {
  Database db(GraphSchema());
  Value a = db.Intern("a");
  db.AddFact(db.schema().FindRelation("E"), {a, a});
  AddPath(db, "p", 3);
  db.AddFact("E", {"q0", "q1"});
  auto has_self_loop = [](const Database& d) {
    for (const Fact& f : d.facts()) {
      if (f.args.size() == 2 && f.args[0] == f.args[1]) return true;
    }
    return false;
  };
  ASSERT_TRUE(has_self_loop(db));
  Database shrunk = ShrinkDatabase(std::move(db), has_self_loop);
  // 1-minimal: the loop fact alone, over the single value it needs.
  EXPECT_EQ(shrunk.size(), 1u);
  EXPECT_EQ(shrunk.domain().size(), 1u);
  EXPECT_TRUE(has_self_loop(shrunk));
}

TEST(ShrinkTest, WithoutAtomPreservesFreeVariables) {
  auto schema = GraphSchema();
  ConjunctiveQuery q(schema);
  Variable x = q.NewVariable("x");
  Variable y = q.NewVariable("y");
  q.AddFreeVariable(x);
  q.AddAtom(schema->entity_relation(), {x});
  q.AddAtom(schema->FindRelation("E"), {x, y});
  ConjunctiveQuery smaller = WithoutAtom(q, 1);
  EXPECT_EQ(smaller.atoms().size(), 1u);
  EXPECT_EQ(smaller.free_variables(), q.free_variables());
  EXPECT_EQ(smaller.num_variables(), q.num_variables());
}

TEST(ShrinkTest, ShrinkCqInstanceMinimizesBothSides) {
  auto schema = GraphSchema();
  RelationId e = schema->FindRelation("E");
  ConjunctiveQuery q(schema);
  Variable x = q.NewVariable("x");
  Variable y = q.NewVariable("y");
  Variable z = q.NewVariable("z");
  q.AddFreeVariable(x);
  q.AddAtom(schema->entity_relation(), {x});
  q.AddAtom(e, {x, y});
  q.AddAtom(e, {y, z});
  Database db(GraphSchema());
  AddPath(db, "p", 4);
  auto predicate = [&](const ConjunctiveQuery& query, const Database& d) {
    // Failure persists while the query keeps an E atom and the data keeps
    // at least one edge.
    bool query_has_edge = false;
    for (const auto& atom : query.atoms()) {
      if (atom.relation == e) query_has_edge = true;
    }
    return query_has_edge && d.size() > 0;
  };
  auto [sq, sdb] = ShrinkCqInstance(std::move(q), std::move(db), predicate);
  EXPECT_EQ(sq.atoms().size(), 1u);
  EXPECT_EQ(sdb.size(), 1u);
  EXPECT_TRUE(predicate(sq, sdb));
}

// ---------------------------------------------------------------------------
// Fuzz loop: every config clean on a bounded seed sweep, deterministically.

TEST(FuzzTest, ParseFuzzConfigRoundTrips) {
  std::vector<FuzzConfig> configs = AllFuzzConfigs();
  EXPECT_EQ(configs.size(), static_cast<std::size_t>(FuzzConfig::kMixed));
  configs.push_back(FuzzConfig::kMixed);
  for (FuzzConfig config : configs) {
    auto parsed = ParseFuzzConfig(FuzzConfigName(config));
    ASSERT_TRUE(parsed.has_value()) << FuzzConfigName(config);
    EXPECT_EQ(*parsed, config);
  }
  // Table rows are matched to the enum by position; pin both ends.
  EXPECT_STREQ(FuzzConfigName(FuzzConfig::kHom), "hom");
  EXPECT_STREQ(FuzzConfigName(FuzzConfig::kCrashIo), "crashio");
  EXPECT_FALSE(ParseFuzzConfig("nonsense").has_value());
}

TEST(FuzzTest, AllConfigsCleanOnSeedSweep) {
  for (FuzzConfig config : AllFuzzConfigs()) {
    FuzzOptions options;
    options.config = config;
    options.seed = 1000;
    options.iterations = 25;
    FuzzReport report = RunFuzz(options);
    EXPECT_TRUE(report.ok())
        << FuzzConfigName(config) << ": "
        << (report.failures.empty() ? "" : report.failures[0].detail);
    EXPECT_EQ(report.iterations, 25u);
  }
}

TEST(FuzzTest, MixedRunIsDeterministic) {
  FuzzOptions options;
  options.config = FuzzConfig::kMixed;
  options.seed = 5;
  options.iterations = 30;
  FuzzReport r1 = RunFuzz(options);
  FuzzReport r2 = RunFuzz(options);
  EXPECT_EQ(r1.iterations, r2.iterations);
  EXPECT_EQ(r1.failures.size(), r2.failures.size());
  EXPECT_TRUE(r1.ok());
}

}  // namespace
}  // namespace featsep
