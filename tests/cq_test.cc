#include "cq/cq.h"

#include <gtest/gtest.h>

#include "cq/containment.h"
#include "cq/core.h"
#include "cq/evaluation.h"
#include "cq/product.h"
#include "test_util.h"

namespace featsep {
namespace {

using ::featsep::testing::AddEntity;
using ::featsep::testing::GraphSchema;
using ::featsep::testing::UnarySchema;

/// q(x) :- Eta(x), E(x, y): entities with an outgoing edge.
ConjunctiveQuery HasOutEdge() {
  ConjunctiveQuery q = ConjunctiveQuery::MakeFeatureQuery(GraphSchema());
  Variable x = q.free_variable();
  Variable y = q.NewVariable("y");
  q.AddAtom(q.schema().FindRelation("E"), {x, y});
  return q;
}

/// q(x) :- Eta(x), E(x, y), E(y, z): entities starting a 2-path.
ConjunctiveQuery HasTwoPath() {
  ConjunctiveQuery q = ConjunctiveQuery::MakeFeatureQuery(GraphSchema());
  Variable x = q.free_variable();
  Variable y = q.NewVariable("y");
  Variable z = q.NewVariable("z");
  RelationId e = q.schema().FindRelation("E");
  q.AddAtom(e, {x, y});
  q.AddAtom(e, {y, z});
  return q;
}

TEST(CqTest, FeatureQueryHasEntityAtom) {
  ConjunctiveQuery q = ConjunctiveQuery::MakeFeatureQuery(GraphSchema());
  EXPECT_TRUE(q.IsUnary());
  EXPECT_EQ(q.NumAtoms(true), 1u);
  EXPECT_EQ(q.NumAtoms(false), 0u);  // Eta(x) not counted per CQ[m].
}

TEST(CqTest, NumAtomsConvention) {
  ConjunctiveQuery q = HasTwoPath();
  EXPECT_EQ(q.NumAtoms(true), 3u);
  EXPECT_EQ(q.NumAtoms(false), 2u);
}

TEST(CqTest, MaxVariableOccurrences) {
  ConjunctiveQuery q = HasTwoPath();
  // x occurs in Eta(x) and E(x,y): 2. y occurs in E(x,y), E(y,z): 2.
  EXPECT_EQ(q.MaxVariableOccurrences(), 2u);
}

TEST(CqTest, DuplicateAtomsIgnored) {
  ConjunctiveQuery q = HasOutEdge();
  Variable x = q.free_variable();
  EXPECT_FALSE(q.AddAtom(q.schema().FindRelation("E"), {x, 1}));
  EXPECT_EQ(q.NumAtoms(false), 1u);
}

TEST(CqTest, ToStringRendering) {
  ConjunctiveQuery q = HasOutEdge();
  EXPECT_EQ(q.ToString(), "q(x) :- Eta(x), E(x, y)");
}

TEST(CqTest, CanonicalDatabaseRoundTrip) {
  ConjunctiveQuery q = HasTwoPath();
  auto [db, vars] = q.CanonicalDatabase();
  EXPECT_EQ(db.size(), 3u);
  std::vector<Value> frees = ConjunctiveQuery::FreeTuple(q, vars);
  ConjunctiveQuery back = CqFromDatabase(db, frees);
  EXPECT_TRUE(AreEquivalent(q, back));
}

TEST(EvaluationTest, SelectsEntitiesWithMatchingStructure) {
  Database db(GraphSchema());
  Value e1 = AddEntity(db, "e1");
  Value e2 = AddEntity(db, "e2");
  Value e3 = AddEntity(db, "e3");
  testing::AddEdge(db, "e1", "a");
  testing::AddEdge(db, "a", "b");
  testing::AddEdge(db, "e2", "c");
  (void)e3;

  EXPECT_EQ(EvaluateUnaryCq(HasOutEdge(), db), (std::vector<Value>{e1, e2}));
  EXPECT_EQ(EvaluateUnaryCq(HasTwoPath(), db), (std::vector<Value>{e1}));
}

TEST(EvaluationTest, EntityAtomRestrictsToEntities) {
  Database db(GraphSchema());
  Value e1 = AddEntity(db, "e1");
  testing::AddEdge(db, "e1", "a");
  testing::AddEdge(db, "a", "b");  // "a" has an out-edge but is no entity.
  std::vector<Value> result = EvaluateUnaryCq(HasOutEdge(), db);
  EXPECT_EQ(result, (std::vector<Value>{e1}));
}

TEST(ContainmentTest, TwoPathImpliesOutEdge) {
  EXPECT_TRUE(IsContainedIn(HasTwoPath(), HasOutEdge()));
  EXPECT_FALSE(IsContainedIn(HasOutEdge(), HasTwoPath()));
  EXPECT_FALSE(AreEquivalent(HasOutEdge(), HasTwoPath()));
}

TEST(ContainmentTest, RedundantAtomEquivalence) {
  // q1(x) :- Eta(x), E(x,y); q2 adds a second out-edge variable: same query.
  ConjunctiveQuery q2 = HasOutEdge();
  Variable x = q2.free_variable();
  Variable y2 = q2.NewVariable("y2");
  q2.AddAtom(q2.schema().FindRelation("E"), {x, y2});
  EXPECT_TRUE(AreEquivalent(HasOutEdge(), q2));
}

TEST(CoreTest, MinimizeRemovesRedundantAtoms) {
  ConjunctiveQuery q = HasOutEdge();
  Variable x = q.free_variable();
  Variable y2 = q.NewVariable("y2");
  Variable y3 = q.NewVariable("y3");
  RelationId e = q.schema().FindRelation("E");
  q.AddAtom(e, {x, y2});
  q.AddAtom(e, {y2, y3});  // Hmm: E(x,y),E(x,y2),E(y2,y3).
  ConjunctiveQuery minimized = MinimizeCq(q);
  EXPECT_TRUE(AreEquivalent(q, minimized));
  EXPECT_LE(minimized.NumAtoms(false), 2u);  // E(x,y2),E(y2,y3) suffice.
}

TEST(CoreTest, CoreOfCoreIsIdempotent) {
  ConjunctiveQuery q = HasTwoPath();
  ConjunctiveQuery m1 = MinimizeCq(q);
  ConjunctiveQuery m2 = MinimizeCq(m1);
  EXPECT_EQ(m1.NumAtoms(true), m2.NumAtoms(true));
  EXPECT_TRUE(AreEquivalent(m1, m2));
}

TEST(CoreTest, CycleIsItsOwnCore) {
  // A directed 3-cycle (no distinguished values) is a core.
  Database db(GraphSchema());
  testing::AddCycle(db, "c", 3);
  Database core = CoreOf(db, {});
  EXPECT_EQ(core.size(), 3u);
}

TEST(CoreTest, SixCycleRetractsToThreeCycleWhenBothPresent) {
  Database db(GraphSchema());
  testing::AddCycle(db, "a", 6);
  testing::AddCycle(db, "b", 3);
  Database core = CoreOf(db, {});
  EXPECT_EQ(core.size(), 3u);  // The 6-cycle folds onto the 3-cycle.
}

TEST(ProductTest, PairProductOfPaths) {
  Database a(GraphSchema());
  auto pa = testing::AddPath(a, "a", 2);
  Database b(GraphSchema());
  auto pb = testing::AddPath(b, "b", 3);
  auto product = DirectProduct(a, {pa[0]}, b, {pb[0]});
  ASSERT_TRUE(product.has_value());
  // E-facts: 2 * 3 = 6.
  EXPECT_EQ(product->db.size(), 6u);
  EXPECT_EQ(product->tuple.size(), 1u);
  EXPECT_EQ(product->db.value_name(product->tuple[0]), "a0|b0");
}

TEST(ProductTest, ProjectionsAreHomomorphisms) {
  Database a(GraphSchema());
  testing::AddCycle(a, "a", 4);
  Database b(GraphSchema());
  testing::AddCycle(b, "b", 6);
  auto product = DirectProduct(a, {}, b, {});
  ASSERT_TRUE(product.has_value());
  EXPECT_TRUE(HomomorphismExists(product->db, a));
  EXPECT_TRUE(HomomorphismExists(product->db, b));
  // C4 x C6 contains a cycle of length lcm(4,6)=12 and maps into C2... but
  // there is no hom from C4 into the product unless gcd divides: the
  // product maps into both factors, and C4 -/-> C6.
  EXPECT_FALSE(HomomorphismExists(a, product->db));
}

TEST(ProductTest, UniversalProperty) {
  // q selects the product tuple iff q selects every factor tuple.
  Database a(GraphSchema());
  Value ea = AddEntity(a, "ea");
  testing::AddEdge(a, "ea", "t");
  testing::AddEdge(a, "t", "u");
  Database b(GraphSchema());
  Value eb = AddEntity(b, "eb");
  testing::AddEdge(b, "eb", "s");

  auto product = DirectProduct(a, {ea}, b, {eb});
  ASSERT_TRUE(product.has_value());

  ConjunctiveQuery one_edge = HasOutEdge();
  ConjunctiveQuery two_path = HasTwoPath();
  CqEvaluator eval1(one_edge);
  CqEvaluator eval2(two_path);
  // Both factors satisfy one_edge -> product does.
  ASSERT_EQ(product->tuple.size(), 1u);
  EXPECT_TRUE(eval1.SelectsEntity(product->db, product->tuple[0]));
  // Factor b fails two_path -> product fails it.
  EXPECT_TRUE(eval2.SelectsEntity(a, ea));
  EXPECT_FALSE(eval2.SelectsEntity(b, eb));
  EXPECT_FALSE(eval2.SelectsEntity(product->db, product->tuple[0]));
}

TEST(ProductTest, FactBudgetGuard) {
  Database a(GraphSchema());
  testing::AddCycle(a, "a", 10);
  Database b(GraphSchema());
  testing::AddCycle(b, "b", 10);
  EXPECT_FALSE(DirectProduct(a, {}, b, {}, 50).has_value());
  EXPECT_TRUE(DirectProduct(a, {}, b, {}, 100).has_value());
}

TEST(ProductTest, FoldIsTheCoreOfTheUncoredProduct) {
  // Entities on tails into C3, C4 and C6: the 3-ary product holds a cycle
  // of length lcm(3, 4, 6) = 12 among 4,000-odd facts; its core is small.
  Database db(GraphSchema());
  std::vector<Value> points;
  for (std::size_t length : {3, 4, 6}) {
    std::string name = "p" + std::to_string(length);
    auto cycle = testing::AddCycle(db, name + "_", length);
    points.push_back(AddEntity(db, name));
    db.AddFact(db.schema().FindRelation("E"), {points.back(), cycle[0]});
  }
  ProductResult uncored{db, {points[0]}};
  for (std::size_t i = 1; i < points.size(); ++i) {
    uncored = *DirectProduct(uncored.db, uncored.tuple, db, {points[i]});
  }

  std::optional<CoredProduct> fold = FoldCoredProduct(db, points, 0);
  ASSERT_TRUE(fold.has_value());
  EXPECT_TRUE(HomomorphismExists(fold->db, uncored.db,
                                 {{fold->point, uncored.tuple[0]}}));
  EXPECT_TRUE(HomomorphismExists(uncored.db, fold->db,
                                 {{uncored.tuple[0], fold->point}}));
  EXPECT_EQ(CoreOf(fold->db, {fold->point}).size(), fold->db.size());
  // Each step multiplies a core by D: at most a tenth of the 3-ary product.
  EXPECT_GE(fold->largest_facts,
            DirectProduct(db, {points[0]}, db, {points[1]})->db.size());
  EXPECT_LT(10 * fold->largest_facts, uncored.db.size());

  // One point is cored, not multiplied.
  std::optional<CoredProduct> single = FoldCoredProduct(db, {points[0]}, 0);
  ASSERT_TRUE(single.has_value());
  EXPECT_EQ(single->point, points[0]);
  EXPECT_EQ(single->largest_facts, db.size());
  EXPECT_EQ(single->db.size(), CoreOf(db, {points[0]}).size());

  // An expired budget stops the fold before it builds anything.
  ExecutionBudget expired = testing::ExpiredBudget();
  EXPECT_FALSE(FoldCoredProduct(db, points, 0, &expired).has_value());
}

TEST(ProductTest, UnarySchemaProduct) {
  Database a(UnarySchema());
  Value ea = AddEntity(a, "ea");
  a.AddFact("R", {"ea"});
  Database b(UnarySchema());
  Value eb = AddEntity(b, "eb");
  b.AddFact("R", {"eb"});
  b.AddFact("S", {"eb"});
  auto product = DirectProduct(a, {ea}, b, {eb});
  ASSERT_TRUE(product.has_value());
  // Eta: 1x1, R: 1x1, S: 0 (a has no S fact).
  EXPECT_EQ(product->db.size(), 2u);
}

}  // namespace
}  // namespace featsep
