#include "cq/homomorphism.h"

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "relational/database.h"
#include "relational/schema.h"
#include "test_util.h"
#include "util/budget.h"

namespace featsep {
namespace {

using ::featsep::testing::AddCycle;
using ::featsep::testing::AddPath;
using ::featsep::testing::GraphSchema;

TEST(HomomorphismTest, EmptySourceAlwaysMaps) {
  Database a(GraphSchema());
  Database b(GraphSchema());
  b.AddFact("E", {"x", "y"});
  EXPECT_TRUE(HomomorphismExists(a, b));
  EXPECT_TRUE(HomomorphismExists(a, a));  // Even into the empty database.
}

TEST(HomomorphismTest, PathIntoLongerPath) {
  Database a(GraphSchema());
  AddPath(a, "p", 2);
  Database b(GraphSchema());
  AddPath(b, "q", 5);
  EXPECT_TRUE(HomomorphismExists(a, b));
}

TEST(HomomorphismTest, LongerPathIntoShorterPathFails) {
  // A 4-edge path has no hom into a 2-edge path (paths are cores among
  // paths of distinct lengths... actually any path maps into any path of
  // length >= 1? No: a directed path CAN fold only onto prefixes of equal
  // direction; 4-edge path into 2-edge path has no hom since the 2-edge
  // path is a DAG with 3 levels and the 4-edge path needs 5 levels.
  Database a(GraphSchema());
  AddPath(a, "p", 4);
  Database b(GraphSchema());
  AddPath(b, "q", 2);
  EXPECT_FALSE(HomomorphismExists(a, b));
}

TEST(HomomorphismTest, AnythingMapsIntoSelfLoop) {
  Database a(GraphSchema());
  AddCycle(a, "c", 7);
  AddPath(a, "p", 3);
  Database loop(GraphSchema());
  loop.AddFact("E", {"v", "v"});
  EXPECT_TRUE(HomomorphismExists(a, loop));
  EXPECT_FALSE(HomomorphismExists(loop, a));  // No loop to map onto.
}

TEST(HomomorphismTest, CycleDivisibility) {
  // C_m -> C_n iff n divides m (directed cycles).
  for (std::size_t m : {3u, 4u, 6u, 9u}) {
    for (std::size_t n : {3u, 4u, 6u}) {
      Database a(GraphSchema());
      AddCycle(a, "a", m);
      Database b(GraphSchema());
      AddCycle(b, "b", n);
      bool expected = (m % n) == 0;
      EXPECT_EQ(HomomorphismExists(a, b), expected)
          << "C_" << m << " -> C_" << n;
    }
  }
}

TEST(HomomorphismTest, SeedForcesImages) {
  Database a(GraphSchema());
  auto p = AddPath(a, "p", 1);  // p0 -> p1
  Database b(GraphSchema());
  auto q = AddPath(b, "q", 2);  // q0 -> q1 -> q2
  // p0 can map to q0 or q1; forcing p0 -> q2 must fail (no outgoing edge).
  EXPECT_TRUE(HomomorphismExists(a, b, {{p[0], q[0]}}));
  EXPECT_TRUE(HomomorphismExists(a, b, {{p[0], q[1]}}));
  EXPECT_FALSE(HomomorphismExists(a, b, {{p[0], q[2]}}));
  // Conflicting double seed.
  EXPECT_FALSE(HomomorphismExists(a, b, {{p[0], q[0]}, {p[1], q[2]}}));
  EXPECT_TRUE(HomomorphismExists(a, b, {{p[0], q[0]}, {p[1], q[1]}}));
}

TEST(HomomorphismTest, MappingIsAValidHomomorphism) {
  Database a(GraphSchema());
  AddCycle(a, "a", 6);
  Database b(GraphSchema());
  AddCycle(b, "b", 3);
  HomResult result = FindHomomorphism(a, b);
  ASSERT_EQ(result.status, HomStatus::kFound);
  RelationId e = a.schema().FindRelation("E");
  for (const Fact& fact : a.facts()) {
    Fact image{e, {result.mapping[fact.args[0]], result.mapping[fact.args[1]]}};
    EXPECT_TRUE(b.ContainsFact(image));
  }
}

TEST(HomomorphismTest, RepeatedVariablePositions) {
  // E(x, x) in the source requires a self-loop in the target.
  Database a(GraphSchema());
  a.AddFact("E", {"u", "u"});
  Database no_loop(GraphSchema());
  AddCycle(no_loop, "c", 3);
  EXPECT_FALSE(HomomorphismExists(a, no_loop));
  Database loop(GraphSchema());
  loop.AddFact("E", {"v", "v"});
  EXPECT_TRUE(HomomorphismExists(a, loop));
}

// A variable repeated inside a source fact starts on the target's diagonal
// at those positions, so a loop atom into a loop-free target fails during
// setup, whatever other atoms the source holds.
TEST(HomomorphismTest, LoopAtomIntoLoopFreeTargetFailsWithoutSearch) {
  Database target(GraphSchema());
  auto cycle = AddCycle(target, "c", 5);
  for (int i = 0; i < 4; ++i) {
    Value e = testing::AddEntity(target, "e" + std::to_string(i));
    target.AddFact(target.schema().FindRelation("E"), {e, cycle[i]});
  }

  Database entity_and_loop(GraphSchema());
  entity_and_loop.AddFact("Eta", {"y1"});
  entity_and_loop.AddFact("E", {"y2", "y2"});
  Database edge_and_loop(GraphSchema());
  edge_and_loop.AddFact("E", {"y1", "y2"});
  edge_and_loop.AddFact("E", {"y2", "y2"});
  for (const Database* source : {&entity_and_loop, &edge_and_loop}) {
    HomResult result = FindHomomorphism(*source, target);
    EXPECT_EQ(result.status, HomStatus::kNone);
    EXPECT_EQ(result.nodes, 0u);
  }

  // One loop anywhere in the target is enough for both.
  target.AddFact("E", {"c2", "c2"});
  EXPECT_TRUE(HomomorphismExists(entity_and_loop, target));
  EXPECT_TRUE(HomomorphismExists(edge_and_loop, target));
}

TEST(HomomorphismTest, BudgetExhaustion) {
  // A moderately hard instance with a one-step budget must report
  // exhaustion rather than an answer.
  Database a(GraphSchema());
  AddCycle(a, "a", 9);
  Database b(GraphSchema());
  AddCycle(b, "b", 6);
  AddCycle(b, "c", 4);
  ExecutionBudget budget = ExecutionBudget::WithStepLimit(1);
  HomResult result = FindHomomorphism(a, b, {}, &budget);
  EXPECT_NE(result.status, HomStatus::kFound);
}

TEST(HomomorphismTest, BudgetExhaustionMidSearch) {
  // Hitting the step limit partway through a search must report kExhausted
  // — a truncated refutation is not a refutation.
  Database a(GraphSchema());
  AddCycle(a, "a", 9);
  Database b(GraphSchema());
  AddCycle(b, "b", 6);
  AddCycle(b, "c", 4);
  HomResult full = FindHomomorphism(a, b);
  ASSERT_EQ(full.status, HomStatus::kNone);  // 9 divides neither 6 nor 4.
  ASSERT_GT(full.nodes, 2u);
  const std::uint64_t limit = full.nodes / 2;
  ExecutionBudget truncating = ExecutionBudget::WithStepLimit(limit);
  HomResult truncated = FindHomomorphism(a, b, {}, &truncating);
  EXPECT_EQ(truncated.status, HomStatus::kExhausted);
  EXPECT_EQ(truncated.outcome, BudgetOutcome::kBudgetExhausted);
  EXPECT_LE(truncated.nodes, limit);
  // A budget past the full search's needs leaves the answer intact.
  ExecutionBudget ample = ExecutionBudget::WithStepLimit(full.nodes * 2 + 1);
  HomResult answered = FindHomomorphism(a, b, {}, &ample);
  EXPECT_EQ(answered.status, HomStatus::kNone);
  EXPECT_EQ(answered.nodes, full.nodes);
}

TEST(HomomorphismTest, CancelledBudgetReportsExhausted) {
  Database a(GraphSchema());
  AddCycle(a, "a", 9);
  Database b(GraphSchema());
  AddCycle(b, "b", 4);
  ExecutionBudget budget;
  budget.Cancel();
  HomResult result = FindHomomorphism(a, b, {}, &budget);
  EXPECT_EQ(result.status, HomStatus::kExhausted);
  EXPECT_EQ(result.outcome, BudgetOutcome::kCancelled);
  // No cross-call state: the same inputs decide fine on a fresh call.
  EXPECT_EQ(FindHomomorphism(a, b).status, HomStatus::kNone);
}

TEST(HomomorphismTest, StepLimitReportsExhaustedNotAnAnswer) {
  Database a(GraphSchema());
  AddCycle(a, "a", 9);
  Database b(GraphSchema());
  AddCycle(b, "b", 6);
  AddCycle(b, "c", 4);
  ExecutionBudget budget = ExecutionBudget::WithStepLimit(3);
  HomResult result = FindHomomorphism(a, b, {}, &budget);
  EXPECT_EQ(result.status, HomStatus::kExhausted);
  EXPECT_EQ(result.outcome, BudgetOutcome::kBudgetExhausted);
}

TEST(HomomorphismTest, EarlyDomainWipeoutPopulatesResult) {
  // Unary-constraint failure (the target has no E facts at all) returns
  // kNone with zero nodes and no mapping — the pre-search early exit.
  Database a(GraphSchema());
  a.AddFact("E", {"u", "v"});
  Database b(GraphSchema());
  b.AddFact("Eta", {"w"});  // Nonempty domain, but no E facts.
  HomResult result = FindHomomorphism(a, b);
  EXPECT_EQ(result.status, HomStatus::kNone);
  EXPECT_EQ(result.nodes, 0u);
  EXPECT_TRUE(result.mapping.empty());
}

TEST(HomomorphismTest, SeedSourceOutsideDomainIsCopied) {
  Database a(GraphSchema());
  auto p = AddPath(a, "p", 1);
  Value isolated = a.Intern("iso");  // Interned but occurs in no fact.
  Database b(GraphSchema());
  auto q = AddPath(b, "q", 2);
  HomResult result =
      FindHomomorphism(a, b, {{isolated, q[2]}, {p[0], q[0]}});
  ASSERT_EQ(result.status, HomStatus::kFound);
  EXPECT_EQ(result.mapping[isolated], q[2]);  // Unconstrained, copied.
  EXPECT_EQ(result.mapping[p[0]], q[0]);
  EXPECT_EQ(result.mapping[p[1]], q[1]);

  // A seed source never interned in `a` at all is simply dropped.
  Value alien = static_cast<Value>(a.num_values() + 7);
  HomResult dropped = FindHomomorphism(a, b, {{alien, q[0]}});
  ASSERT_EQ(dropped.status, HomStatus::kFound);
  EXPECT_EQ(dropped.mapping.size(), a.num_values());
}

namespace {
std::shared_ptr<const Schema> TernarySchema() {
  Schema schema;
  schema.AddRelation("R", 3);
  return std::make_shared<const Schema>(std::move(schema));
}
}  // namespace

TEST(HomomorphismTest, TernaryFactNeedsOneTargetFactForAllPositions) {
  // Pairwise position supports are not enough at arity 3: each pair of the
  // seeded images co-occurs in some target fact, but no single target fact
  // carries all three. The engine must reject the seeded assignment.
  auto schema = TernarySchema();
  Database source(schema);
  source.AddFact("R", {"x", "y", "z"});
  Database target(schema);
  target.AddFact("R", {"a", "b", "c1"});
  target.AddFact("R", {"a", "b1", "c"});
  target.AddFact("R", {"a1", "b", "c"});
  Value x = source.FindValue("x");
  Value y = source.FindValue("y");
  Value z = source.FindValue("z");
  Value va = target.FindValue("a");
  Value vb = target.FindValue("b");
  Value vc = target.FindValue("c");
  EXPECT_FALSE(HomomorphismExists(source, target,
                                  {{x, va}, {y, vb}, {z, vc}}));
  // Two of the three seeds are satisfiable (via R(a, b, c1)).
  EXPECT_TRUE(HomomorphismExists(source, target, {{x, va}, {y, vb}}));
  EXPECT_TRUE(HomomorphismExists(source, target));
}

TEST(HomomorphismTest, RepeatedVariablesInTernaryFact) {
  auto schema = TernarySchema();
  Database source(schema);
  source.AddFact("R", {"x", "x", "y"});  // Positions 0 and 1 must agree.
  Database unequal(schema);
  unequal.AddFact("R", {"u", "v", "w"});
  EXPECT_FALSE(HomomorphismExists(source, unequal));
  Database equal(schema);
  equal.AddFact("R", {"u", "v", "w"});
  equal.AddFact("R", {"t", "t", "s"});
  HomResult result = FindHomomorphism(source, equal);
  ASSERT_EQ(result.status, HomStatus::kFound);
  EXPECT_EQ(result.mapping[source.FindValue("x")], equal.FindValue("t"));
  EXPECT_EQ(result.mapping[source.FindValue("y")], equal.FindValue("s"));

  // All-positions-repeated: R(x, x, x) needs a fully diagonal target fact.
  Database diag_source(schema);
  diag_source.AddFact("R", {"x", "x", "x"});
  EXPECT_FALSE(HomomorphismExists(diag_source, equal));
  Database diag(schema);
  diag.AddFact("R", {"d", "d", "d"});
  EXPECT_TRUE(HomomorphismExists(diag_source, diag));
}

TEST(HomomorphismTest, DiagonalMatchesTheRepeatedPositions) {
  // The target repeats a value at positions 0 and 2 and at 0 and 1, never
  // at 1 and 2, so R(x, y, x) and R(x, x, y) map and R(y, x, x) fails
  // during setup.
  auto schema = TernarySchema();
  Database target(schema);
  target.AddFact("R", {"a", "b", "a"});
  target.AddFact("R", {"c", "c", "d"});
  for (const auto& [args, maps] :
       std::vector<std::pair<std::vector<std::string>, bool>>{
           {{"x", "y", "x"}, true},
           {{"x", "x", "y"}, true},
           {{"y", "x", "x"}, false}}) {
    Database source(schema);
    source.AddFact("R", args);
    HomResult result = FindHomomorphism(source, target);
    EXPECT_EQ(result.status, maps ? HomStatus::kFound : HomStatus::kNone)
        << args[0] << args[1] << args[2];
    if (!maps) EXPECT_EQ(result.nodes, 0u);
  }
}

// The two cases below pin forward checking's exact pruning through the node
// count: a fact with several assigned positions (or a repeated variable)
// keeps only the images that some single compatible target fact carries.
// Per-position supports would leave a wrong image in the domain, ahead of
// the right one, and the search would spend a node on it.

TEST(HomomorphismTest, TwoAssignedPositionsPruneToOneTargetFact) {
  // The target of TernaryFactNeedsOneTargetFactForAllPositions, with c
  // interned before c1 so it is tried first if it survives pruning.
  auto schema = TernarySchema();
  Database source(schema);
  source.AddFact("R", {"x", "y", "z"});
  Database target(schema);
  target.AddFact("R", {"a1", "b", "c"});
  target.AddFact("R", {"a", "b1", "c"});
  target.AddFact("R", {"a", "b", "c1"});
  Value x = source.FindValue("x");
  Value y = source.FindValue("y");
  HomResult result = FindHomomorphism(
      source, target, {{x, target.FindValue("a")}, {y, target.FindValue("b")}});
  ASSERT_EQ(result.status, HomStatus::kFound);
  EXPECT_EQ(result.mapping[source.FindValue("z")], target.FindValue("c1"));
  EXPECT_EQ(result.nodes, 1u);  // Only c1 survives; c would cost a node.
}

TEST(HomomorphismTest, RepeatedVariablePrunesToDiagonalTargetFacts) {
  auto schema = TernarySchema();
  Database source(schema);
  source.AddFact("R", {"x", "y", "y"});
  Database target(schema);
  target.AddFact("R", {"a", "b", "c"});
  target.AddFact("R", {"a", "c", "b"});
  target.AddFact("R", {"a", "d", "d"});
  Value x = source.FindValue("x");
  HomResult result =
      FindHomomorphism(source, target, {{x, target.FindValue("a")}});
  ASSERT_EQ(result.status, HomStatus::kFound);
  EXPECT_EQ(result.mapping[source.FindValue("y")], target.FindValue("d"));
  EXPECT_EQ(result.nodes, 1u);  // Only d survives; b and c would cost two.
}

TEST(HomomorphismTest, HomEquivalentEntities) {
  Database db(GraphSchema());
  auto e1 = testing::AddEntity(db, "e1");
  auto e2 = testing::AddEntity(db, "e2");
  auto e3 = testing::AddEntity(db, "e3");
  testing::AddEdge(db, "e1", "t1");
  testing::AddEdge(db, "e2", "t2");
  // e3 has no outgoing edge.
  EXPECT_TRUE(HomEquivalent(db, {e1}, db, {e2}));
  EXPECT_FALSE(HomEquivalent(db, {e1}, db, {e3}));
  // e3's structure maps into e1's side but not conversely.
  EXPECT_TRUE(HomomorphismExists(db, db, {{e3, e1}}));
  EXPECT_FALSE(HomomorphismExists(db, db, {{e1, e3}}));
}

// Property test: homomorphisms compose — if A -> B and B -> C then A -> C,
// checked on random graph databases.
TEST(HomomorphismPropertyTest, Composition) {
  std::mt19937_64 rng(3);
  auto random_graph = [&](int nodes, int edges, const std::string& prefix) {
    Database db(GraphSchema());
    std::vector<Value> vs;
    for (int i = 0; i < nodes; ++i) {
      vs.push_back(db.Intern(prefix + std::to_string(i)));
    }
    RelationId e = db.schema().FindRelation("E");
    for (int i = 0; i < edges; ++i) {
      db.AddFact(e, {vs[rng() % vs.size()], vs[rng() % vs.size()]});
    }
    return db;
  };
  int transitive_checks = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Database a = random_graph(4, 5, "a");
    Database b = random_graph(4, 6, "b");
    Database c = random_graph(4, 7, "c");
    bool ab = HomomorphismExists(a, b);
    bool bc = HomomorphismExists(b, c);
    if (ab && bc) {
      EXPECT_TRUE(HomomorphismExists(a, c));
      ++transitive_checks;
    }
  }
  EXPECT_GT(transitive_checks, 0) << "vacuous property test";
}

// Property test: the witness returned by FindHomomorphism always preserves
// all facts, across random instances.
TEST(HomomorphismPropertyTest, WitnessSoundness) {
  std::mt19937_64 rng(17);
  for (int trial = 0; trial < 80; ++trial) {
    Database a(GraphSchema());
    Database b(GraphSchema());
    RelationId e = a.schema().FindRelation("E");
    for (int i = 0; i < 6; ++i) {
      a.AddFact(e, {a.Intern("a" + std::to_string(rng() % 4)),
                    a.Intern("a" + std::to_string(rng() % 4))});
      b.AddFact(e, {b.Intern("b" + std::to_string(rng() % 5)),
                    b.Intern("b" + std::to_string(rng() % 5))});
    }
    HomResult result = FindHomomorphism(a, b);
    if (result.status != HomStatus::kFound) continue;
    for (const Fact& fact : a.facts()) {
      Fact image{fact.relation,
                 {result.mapping[fact.args[0]], result.mapping[fact.args[1]]}};
      EXPECT_TRUE(b.ContainsFact(image));
    }
  }
}


// Regression: sources with tens of thousands of variables (QBE products)
// must not overflow the stack — the search is iterative.
TEST(HomomorphismTest, VeryDeepInstances) {
  auto schema = GraphSchema();
  Database big(schema);
  RelationId e = schema->FindRelation("E");
  Value prev = big.Intern("n0");
  for (int i = 1; i <= 60000; ++i) {
    Value next = big.Intern("n" + std::to_string(i));
    big.AddFact(e, {prev, next});
    prev = next;
  }
  Database loop(schema);
  loop.AddFact("E", {"v", "v"});
  EXPECT_TRUE(HomomorphismExists(big, loop));
  // And a failing deep search: a long path into a shorter path.
  Database short_path(schema);
  AddPath(short_path, "s", 3);
  EXPECT_FALSE(HomomorphismExists(big, short_path));
}

}  // namespace
}  // namespace featsep
