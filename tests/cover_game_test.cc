#include "covergame/cover_game.h"

#include <random>

#include <gtest/gtest.h>

#include "cq/homomorphism.h"
#include "test_util.h"
#include "testing/reference_covergame.h"
#include "util/budget.h"

namespace featsep {
namespace {

using ::featsep::testing::AddCycle;
using ::featsep::testing::AddEntity;
using ::featsep::testing::AddPath;
using ::featsep::testing::GraphSchema;
using ::featsep::testing::RefCoverGameSolver;
using ::featsep::testing::UnarySchema;

TEST(CoverGameTest, ReflexivityOnEntities) {
  Database db(GraphSchema());
  Value e = AddEntity(db, "e");
  testing::AddEdge(db, "e", "t");
  for (std::size_t k : {1u, 2u}) {
    EXPECT_TRUE(CoverGameWins(db, {e}, db, {e}, k)) << "k=" << k;
  }
}

TEST(CoverGameTest, EmptyTuplesOnEqualDatabases) {
  Database db(GraphSchema());
  AddCycle(db, "c", 3);
  EXPECT_TRUE(CoverGameWins(db, {}, db, {}, 1));
  EXPECT_TRUE(CoverGameWins(db, {}, db, {}, 2));
}

TEST(CoverGameTest, HomomorphismImpliesGameWin) {
  // C6 -> C3, so Duplicator must win at every k.
  Database c6(GraphSchema());
  AddCycle(c6, "a", 6);
  Database c3(GraphSchema());
  AddCycle(c3, "b", 3);
  ASSERT_TRUE(HomomorphismExists(c6, c3));
  EXPECT_TRUE(CoverGameWins(c6, {}, c3, {}, 1));
  EXPECT_TRUE(CoverGameWins(c6, {}, c3, {}, 2));
  EXPECT_TRUE(CoverGameWins(c6, {}, c3, {}, 3));
}

TEST(CoverGameTest, CyclesDistinguishedAtWidthTwoButNotOne) {
  // The "C4 exists" query has ghw 2; C4 -/-> C3. So Spoiler wins the
  // 2-cover game from C4 to C3, while width-1 (acyclic) queries cannot
  // distinguish directed cycles: Duplicator wins at k = 1.
  Database c4(GraphSchema());
  AddCycle(c4, "a", 4);
  Database c3(GraphSchema());
  AddCycle(c3, "b", 3);
  EXPECT_TRUE(CoverGameWins(c4, {}, c3, {}, 1));
  EXPECT_FALSE(CoverGameWins(c4, {}, c3, {}, 2));
}

TEST(CoverGameTest, MonotoneInK) {
  // →_{k+1} ⊆ →_k (paper, Section 5 approximation chain), demonstrated on
  // the cycle pair where the inclusion is strict.
  Database c4(GraphSchema());
  AddCycle(c4, "a", 4);
  Database c3(GraphSchema());
  AddCycle(c3, "b", 3);
  bool k1 = CoverGameWins(c4, {}, c3, {}, 1);
  bool k2 = CoverGameWins(c4, {}, c3, {}, 2);
  EXPECT_TRUE(k1 || !k2);  // k2 true would require k1 true.
  EXPECT_TRUE(k1);
  EXPECT_FALSE(k2);
}

TEST(CoverGameTest, PathLengthsDistinguishedAtWidthOne) {
  // "Starts a 3-path" is acyclic (ghw 1): true for the head of a 3-edge
  // path, false for the head of a 1-edge path.
  Database d1(GraphSchema());
  auto p3 = AddPath(d1, "p", 3);
  Database d2(GraphSchema());
  auto p1 = AddPath(d2, "q", 1);
  EXPECT_FALSE(CoverGameWins(d1, {p3[0]}, d2, {p1[0]}, 1));
  // The other direction holds: everything true at q0 is true at p0.
  EXPECT_TRUE(CoverGameWins(d2, {p1[0]}, d1, {p3[0]}, 1));
}

TEST(CoverGameTest, UnaryExampleFromPaper) {
  // Example 6.2: D = {R(a), S(a), S(c), Eta(a), Eta(b), Eta(c)}.
  Database db(UnarySchema());
  Value a = AddEntity(db, "a");
  Value b = AddEntity(db, "b");
  Value c = AddEntity(db, "c");
  db.AddFact("R", {"a"});
  db.AddFact("S", {"a"});
  db.AddFact("S", {"c"});

  // b satisfies only Eta(x); a satisfies Eta, R, S; c satisfies Eta, S.
  EXPECT_TRUE(CoverGameWins(db, {b}, db, {a}, 1));
  EXPECT_TRUE(CoverGameWins(db, {b}, db, {c}, 1));
  EXPECT_TRUE(CoverGameWins(db, {c}, db, {a}, 1));
  EXPECT_FALSE(CoverGameWins(db, {a}, db, {b}, 1));
  EXPECT_FALSE(CoverGameWins(db, {a}, db, {c}, 1));
  EXPECT_FALSE(CoverGameWins(db, {c}, db, {b}, 1));
}

TEST(CoverGameTest, InconsistentPebblePairsLose) {
  Database db(GraphSchema());
  Value e1 = AddEntity(db, "e1");
  Value e2 = AddEntity(db, "e2");
  // ā repeats e1 but b̄ maps it to two targets: not a function.
  EXPECT_FALSE(CoverGameWins(db, {e1, e1}, db, {e1, e2}, 1));
  EXPECT_TRUE(CoverGameWins(db, {e1, e1}, db, {e2, e2}, 1));
}

TEST(CoverGameTest, PreorderMatrix) {
  Database db(GraphSchema());
  Value e1 = AddEntity(db, "e1");
  Value e2 = AddEntity(db, "e2");
  Value e3 = AddEntity(db, "e3");
  testing::AddEdge(db, "e1", "t1");
  testing::AddEdge(db, "e2", "t2");
  (void)e3;
  auto leq = CoverPreorder(db, {e1, e2, e3}, 1);
  // e1 and e2 are equivalent; e3 below both.
  EXPECT_TRUE(leq[0][1]);
  EXPECT_TRUE(leq[1][0]);
  EXPECT_TRUE(leq[2][0]);
  EXPECT_FALSE(leq[0][2]);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(leq[i][i]);
}

// Property test: homomorphism implies →_k, and for k ≥ |D| the game is
// exactly the homomorphism test, over random pointed graphs.
TEST(CoverGamePropertyTest, SandwichedByHomomorphism) {
  std::mt19937_64 rng(41);
  for (int trial = 0; trial < 25; ++trial) {
    Database a(GraphSchema());
    Database b(GraphSchema());
    RelationId e = a.schema().FindRelation("E");
    int facts_a = 3 + static_cast<int>(rng() % 3);
    for (int i = 0; i < facts_a; ++i) {
      a.AddFact(e, {a.Intern("a" + std::to_string(rng() % 3)),
                    a.Intern("a" + std::to_string(rng() % 3))});
    }
    for (int i = 0; i < 5; ++i) {
      b.AddFact(e, {b.Intern("b" + std::to_string(rng() % 3)),
                    b.Intern("b" + std::to_string(rng() % 3))});
    }
    bool hom = HomomorphismExists(a, b);
    bool game1 = CoverGameWins(a, {}, b, {}, 1);
    bool game_full = CoverGameWins(a, {}, b, {}, a.size());
    if (hom) {
      EXPECT_TRUE(game1);
      EXPECT_TRUE(game_full);
    }
    // With every fact coverable at once, the game degenerates to the
    // homomorphism test.
    EXPECT_EQ(game_full, hom);
  }
}

// Property test: →_1 is transitive on random pointed graphs.
TEST(CoverGamePropertyTest, Transitivity) {
  std::mt19937_64 rng(43);
  int checked = 0;
  for (int trial = 0; trial < 40; ++trial) {
    auto make = [&](const std::string& prefix) {
      Database db(GraphSchema());
      RelationId e = db.schema().FindRelation("E");
      for (int i = 0; i < 4; ++i) {
        db.AddFact(e, {db.Intern(prefix + std::to_string(rng() % 3)),
                       db.Intern(prefix + std::to_string(rng() % 3))});
      }
      return db;
    };
    Database a = make("a");
    Database b = make("b");
    Database c = make("c");
    if (a.domain().empty() || b.domain().empty() || c.domain().empty()) {
      continue;
    }
    Value va = a.domain()[0];
    Value vb = b.domain()[0];
    Value vc = c.domain()[0];
    if (CoverGameWins(a, {va}, b, {vb}, 1) &&
        CoverGameWins(b, {vb}, c, {vc}, 1)) {
      EXPECT_TRUE(CoverGameWins(a, {va}, c, {vc}, 1));
      ++checked;
    }
  }
  EXPECT_GT(checked, 0) << "vacuous property test";
}

TEST(CoverGameTest, SolverStatisticsExposed) {
  Database db(GraphSchema());
  AddCycle(db, "c", 4);
  CoverGameSolver solver(db, db, 2);
  EXPECT_GT(solver.num_positions(), 4u);
  EXPECT_GT(solver.num_candidate_strategies(), 0u);
}

// Every step limit from 1 up to one past the unbudgeted run's steps either
// interrupts the game (!ok) or yields the unbudgeted answer — for a won and
// a lost game, so that a trip inside the fixpoint cannot pass for either.
// Without pebbles C6 →_1 C4 and C6 →_1 C3 both hold; pebbling a C6 node
// decides each only after propagating around the cycle, inside TryDecide:
// C4 runs out of room (4 ∤ 6), C3 closes up (3 | 6).
TEST(CoverGameTest, StepLimitSweepNeverMisreportsAnAnswer) {
  Database c6(GraphSchema());
  auto a = AddCycle(c6, "a", 6);
  Database c4(GraphSchema());
  auto b = AddCycle(c4, "b", 4);
  Database c3(GraphSchema());
  auto c = AddCycle(c3, "c", 3);
  struct Game {
    const Database* from;
    Value a;
    const Database* to;
    Value b;
    bool wins;
  };
  for (const Game& game : {Game{&c6, a[0], &c3, c[0], true},
                           Game{&c6, a[0], &c4, b[0], false}}) {
    ExecutionBudget unlimited;
    {
      CoverGameSolver solver(*game.from, *game.to, 1, &unlimited);
      Budgeted<bool> result = solver.TryDecide({game.a}, {game.b});
      ASSERT_TRUE(result.ok());
      ASSERT_EQ(result.value, game.wins);
    }
    std::uint64_t steps = unlimited.steps();
    std::size_t interrupted_in_decide = 0;
    for (std::uint64_t limit = 1; limit <= steps + 1; ++limit) {
      ExecutionBudget budget = ExecutionBudget::WithStepLimit(limit);
      CoverGameSolver solver(*game.from, *game.to, 1, &budget);
      bool constructed = !budget.Interrupted();
      Budgeted<bool> result = solver.TryDecide({game.a}, {game.b});
      if (result.ok()) {
        EXPECT_EQ(result.value, game.wins) << "step limit " << limit;
        EXPECT_GE(limit, steps) << "completed under a smaller budget";
      } else {
        EXPECT_EQ(result.outcome, BudgetOutcome::kBudgetExhausted);
        if (constructed) ++interrupted_in_decide;
      }
    }
    EXPECT_GT(interrupted_in_decide, 0u) << "no limit tripped inside TryDecide";
  }
}

// Hubs wider than one element over a target with more than 90 values number
// their tuples through the key table instead of base-N digits; the answers
// must not change.
TEST(CoverGameTest, WideHubsOverLargeTargetsMatchReference) {
  Database from(GraphSchema());
  auto path = AddPath(from, "a", 3);
  Database to(GraphSchema());
  auto cycle = AddCycle(to, "t", 95);
  RelationId edge = to.schema().FindRelation("E");
  for (std::size_t i = 0; i < cycle.size(); i += 5) {
    to.AddFact(edge, {cycle[i], cycle[(i * 7 + 3) % cycle.size()]});
  }
  for (std::size_t k = 1; k <= 2; ++k) {
    CoverGameSolver solver(from, to, k);
    RefCoverGameSolver reference(from, to, k);
    for (Value a : {path[0], path[2]}) {
      for (std::size_t j = 0; j < cycle.size(); j += 19) {
        EXPECT_EQ(solver.Decide({a}, {cycle[j]}),
                  reference.Decide({a}, {cycle[j]}))
            << "k=" << k << " b=" << j;
        EXPECT_EQ(solver.Decide({path[0], path[1]}, {cycle[j], cycle[j + 1]}),
                  reference.Decide({path[0], path[1]},
                                   {cycle[j], cycle[j + 1]}))
            << "k=" << k << " b=" << j;
      }
    }
  }
}

}  // namespace
}  // namespace featsep
