#include "qbe/qbe.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cq/evaluation.h"
#include "test_util.h"
#include "workload/movies.h"

namespace featsep {
namespace {

using ::featsep::testing::AddCycle;
using ::featsep::testing::AddEntity;
using ::featsep::testing::AddPath;
using ::featsep::testing::GraphSchema;
using ::featsep::testing::UnarySchema;

TEST(CqQbeTest, ExplanationExistsAndVerifies) {
  // Positives start 2-paths, negative starts a 1-edge.
  Database db(GraphSchema());
  Value p1 = AddEntity(db, "p1");
  Value p2 = AddEntity(db, "p2");
  Value n1 = AddEntity(db, "n1");
  testing::AddEdge(db, "p1", "a");
  testing::AddEdge(db, "a", "b");
  testing::AddEdge(db, "p2", "c");
  testing::AddEdge(db, "c", "d");
  testing::AddEdge(db, "n1", "e");

  QbeResult result = SolveCqQbe({&db, {p1, p2}, {n1}});
  ASSERT_TRUE(result.exists);
  ASSERT_TRUE(result.explanation.has_value());
  CqEvaluator evaluator(*result.explanation);
  EXPECT_TRUE(evaluator.SelectsEntity(db, p1));
  EXPECT_TRUE(evaluator.SelectsEntity(db, p2));
  EXPECT_FALSE(evaluator.SelectsEntity(db, n1));
}

TEST(CqQbeTest, NoExplanationWhenNegativeDominates) {
  // Negative starts a 3-path: everything true of the positives' product
  // (a 1-edge pattern) also holds at the negative.
  Database db(GraphSchema());
  Value p1 = AddEntity(db, "p1");
  Value p2 = AddEntity(db, "p2");
  Value n1 = AddEntity(db, "n1");
  testing::AddEdge(db, "p1", "a");
  testing::AddEdge(db, "a", "b");
  testing::AddEdge(db, "p2", "c");
  AddPath(db, "n", 3);
  db.AddFact(db.schema().entity_relation(), {db.FindValue("n0")});
  n1 = db.FindValue("n0");

  QbeResult result = SolveCqQbe({&db, {p1, p2}, {n1}});
  EXPECT_FALSE(result.exists);
}

TEST(CqQbeTest, DefaultExplanationIsTheCore) {
  Database db(GraphSchema());
  Value p1 = AddEntity(db, "p1");
  Value p2 = AddEntity(db, "p2");
  Value n1 = AddEntity(db, "n1");
  testing::AddEdge(db, "p1", "a");
  testing::AddEdge(db, "a", "b");
  testing::AddEdge(db, "p2", "c");
  testing::AddEdge(db, "c", "d");
  testing::AddEdge(db, "n1", "e");

  QbeResult result = SolveCqQbe({&db, {p1, p2}, {n1}});
  ASSERT_TRUE(result.exists);
  // The core of the product is (up to iso) Eta(x), E(x,y), E(y,z).
  EXPECT_LE(result.explanation->NumAtoms(true), 3u);
  CqEvaluator evaluator(*result.explanation);
  EXPECT_TRUE(evaluator.SelectsEntity(db, p1));
  EXPECT_FALSE(evaluator.SelectsEntity(db, n1));
}

TEST(CqQbeTest, ProductSizeReported) {
  Database db(GraphSchema());
  Value p1 = AddEntity(db, "p1");
  Value p2 = AddEntity(db, "p2");
  testing::AddEdge(db, "p1", "a");
  testing::AddEdge(db, "p2", "b");
  QbeResult result = SolveCqQbe({&db, {p1, p2}, {}});
  EXPECT_TRUE(result.exists);
  // The fold's first product is D x D, uncored: Eta: 2x2 = 4 facts;
  // E: 2x2 = 4 facts.
  EXPECT_EQ(result.product_facts, 8u);
}

TEST(CqQbeTest, FoldStaysUnderAProductBudgetTheFullProductExceeds) {
  // Four sci-fi fans against two others: the 4-ary product has 9,380 facts,
  // but each fold step multiplies a small core by D.
  auto db = MakeMovieDatabase();
  QbeInstance instance{db.get(), {}, {}};
  for (const char* name : {"ada", "bela", "dora", "fay"}) {
    instance.positives.push_back(db->FindValue(name));
  }
  for (const char* name : {"carlos", "emil"}) {
    instance.negatives.push_back(db->FindValue(name));
  }
  QbeResult result = SolveCqQbe(instance, {.max_product_facts = 1000});
  ASSERT_TRUE(result.exists);
  EXPECT_LE(result.product_facts, 1000u);
  CqEvaluator evaluator(*result.explanation);
  for (Value e : instance.positives) {
    EXPECT_TRUE(evaluator.SelectsEntity(*db, e)) << db->value_name(e);
  }
  for (Value b : instance.negatives) {
    EXPECT_FALSE(evaluator.SelectsEntity(*db, b)) << db->value_name(b);
  }
}

TEST(CqQbeTest, ExpiredBudgetStopsBeforeTheFold) {
  Database db(GraphSchema());
  Value p1 = AddEntity(db, "p1");
  Value p2 = AddEntity(db, "p2");
  Value n1 = AddEntity(db, "n1");
  testing::AddEdge(db, "p1", "a");
  testing::AddEdge(db, "p2", "b");
  ExecutionBudget budget = testing::ExpiredBudget();
  QbeInstance instance{&db, {p1, p2}, {n1}};
  for (const QbeResult& result :
       {SolveCqQbe(instance, {.budget = &budget}),
        SolveGhwQbe(instance, 1, {.budget = &budget})}) {
    EXPECT_EQ(result.outcome, BudgetOutcome::kTimedOut);
    EXPECT_FALSE(result.exists);
    EXPECT_FALSE(result.explanation.has_value());
    EXPECT_EQ(result.product_facts, 0u);
  }
}

TEST(GhwQbeTest, CycleLcmSeparationNeedsWidthTwo) {
  // Positives sit on tails into C4 and C6; negative on a tail into C5.
  // A ghw-2 explanation exists (cycle reachable from x whose length is a
  // multiple of lcm(4,6) = 12: maps into C4 and C6 but not C5).
  Database db(GraphSchema());
  RelationId edge = db.schema().FindRelation("E");
  auto attach = [&](const std::string& name, std::size_t len) {
    auto nodes = AddCycle(db, name + "_", len);
    Value e = db.Intern(name);
    db.AddFact(edge, {e, nodes[0]});
    db.AddFact(db.schema().entity_relation(), {e});
    return e;
  };
  Value p4 = attach("p4", 4);
  Value p6 = attach("p6", 6);
  Value n5 = attach("n5", 5);

  EXPECT_TRUE(SolveGhwQbe({&db, {p4, p6}, {n5}}, 2).exists);
  // CQ-QBE (unbounded width) must also find it.
  EXPECT_TRUE(SolveCqQbe({&db, {p4, p6}, {n5}}).exists);
}

TEST(GhwQbeTest, MonotoneInK) {
  // If a width-k explanation exists, a width-(k+1) explanation exists.
  Database db(GraphSchema());
  Value p1 = AddEntity(db, "p1");
  Value n1 = AddEntity(db, "n1");
  testing::AddEdge(db, "p1", "a");
  for (std::size_t k = 1; k <= 2; ++k) {
    EXPECT_TRUE(SolveGhwQbe({&db, {p1}, {n1}}, k).exists) << k;
  }
}

TEST(GhwQbeTest, NoExplanationForDominatedPositive) {
  Database db(GraphSchema());
  Value p1 = AddEntity(db, "p1");
  Value n1 = AddEntity(db, "n1");
  testing::AddEdge(db, "p1", "a");
  testing::AddEdge(db, "n1", "b");
  testing::AddEdge(db, "b", "c");
  // Everything (of any width) true at p1 is true at n1.
  EXPECT_FALSE(SolveGhwQbe({&db, {p1}, {n1}}, 1).exists);
  EXPECT_FALSE(SolveGhwQbe({&db, {p1}, {n1}}, 2).exists);
  EXPECT_FALSE(SolveCqQbe({&db, {p1}, {n1}}).exists);
}

TEST(CqmQbeTest, SingleAtomExplanation) {
  Database db(UnarySchema());
  Value a = AddEntity(db, "a");
  Value b = AddEntity(db, "b");
  Value c = AddEntity(db, "c");
  db.AddFact("R", {"a"});
  db.AddFact("R", {"b"});
  db.AddFact("S", {"c"});
  QbeResult result = SolveCqmQbe({&db, {a, b}, {c}}, 1);
  ASSERT_TRUE(result.exists);
  CqEvaluator evaluator(*result.explanation);
  EXPECT_TRUE(evaluator.SelectsEntity(db, a));
  EXPECT_TRUE(evaluator.SelectsEntity(db, b));
  EXPECT_FALSE(evaluator.SelectsEntity(db, c));
}

TEST(CqmQbeTest, AtomBudgetMatters) {
  // Distinguishing a 2-path head from a 1-edge head needs 2 atoms.
  Database db(GraphSchema());
  Value p = AddEntity(db, "p");
  Value n = AddEntity(db, "n");
  testing::AddEdge(db, "p", "a");
  testing::AddEdge(db, "a", "b");
  testing::AddEdge(db, "n", "c");
  EXPECT_FALSE(SolveCqmQbe({&db, {p}, {n}}, 1).exists);
  EXPECT_TRUE(SolveCqmQbe({&db, {p}, {n}}, 2).exists);
}

TEST(CqmQbeTest, ThreadCountDoesNotChangeTheExplanation) {
  // The candidate sweep runs in enumeration order: whatever explanation the
  // serial scan returns, every thread count must return the same one.
  Database db(GraphSchema());
  Value p1 = AddEntity(db, "p1");
  Value p2 = AddEntity(db, "p2");
  Value n1 = AddEntity(db, "n1");
  Value n2 = AddEntity(db, "n2");
  testing::AddEdge(db, "p1", "a");
  testing::AddEdge(db, "a", "b");
  testing::AddEdge(db, "p2", "c");
  testing::AddEdge(db, "c", "d");
  testing::AddEdge(db, "n1", "e");
  testing::AddEdge(db, "n2", "f");
  QbeInstance instance{&db, {p1, p2}, {n1, n2}};

  QbeResult serial = SolveCqmQbe(instance, 2, 0, {.num_threads = 1});
  ASSERT_TRUE(serial.exists);
  std::string serial_cq = serial.explanation->ToString();
  for (std::size_t threads : {2ul, 4ul, 8ul}) {
    QbeResult parallel = SolveCqmQbe(instance, 2, 0, {.num_threads = threads});
    ASSERT_TRUE(parallel.exists);
    EXPECT_EQ(parallel.explanation->ToString(), serial_cq);
  }
}

TEST(CqQbeTest, ThreadCountDoesNotChangeTheAnswer) {
  Database db(GraphSchema());
  Value p = AddEntity(db, "p");
  std::vector<Value> negatives;
  for (int i = 0; i < 6; ++i) {
    std::string name = "n" + std::to_string(i);
    negatives.push_back(AddEntity(db, name));
    testing::AddEdge(db, name, name + "t");
  }
  testing::AddEdge(db, "p", "a");
  testing::AddEdge(db, "a", "b");
  QbeInstance instance{&db, {p}, negatives};

  QbeResult serial = SolveCqQbe(instance, {.num_threads = 1});
  for (std::size_t threads : {2ul, 4ul}) {
    QbeResult parallel = SolveCqQbe(instance, {.num_threads = threads});
    EXPECT_EQ(parallel.exists, serial.exists);
  }
  EXPECT_TRUE(serial.exists);
}

TEST(QbeConsistencyTest, CqmImpliesCqAndGhw) {
  // A CQ[m] explanation is a CQ explanation and lies in GHW(m).
  Database db(GraphSchema());
  Value p = AddEntity(db, "p");
  Value n = AddEntity(db, "n");
  testing::AddEdge(db, "p", "a");
  testing::AddEdge(db, "a", "b");
  testing::AddEdge(db, "n", "c");
  QbeInstance instance{&db, {p}, {n}};
  ASSERT_TRUE(SolveCqmQbe(instance, 2).exists);
  EXPECT_TRUE(SolveCqQbe(instance).exists);
  EXPECT_TRUE(SolveGhwQbe(instance, 2).exists);
}

}  // namespace
}  // namespace featsep
