#include "core/separability.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace featsep {
namespace {

using ::featsep::testing::AddEntity;
using ::featsep::testing::GraphSchema;
using ::featsep::testing::UnarySchema;

/// Entities: e1 starts a 2-path (+), e2 starts a 1-edge (-), e3 isolated (-).
std::shared_ptr<TrainingDatabase> TwoPathDataset() {
  auto db = std::make_shared<Database>(GraphSchema());
  Value e1 = AddEntity(*db, "e1");
  Value e2 = AddEntity(*db, "e2");
  Value e3 = AddEntity(*db, "e3");
  testing::AddEdge(*db, "e1", "a");
  testing::AddEdge(*db, "a", "b");
  testing::AddEdge(*db, "e2", "c");
  auto training = std::make_shared<TrainingDatabase>(db);
  training->SetLabel(e1, kPositive);
  training->SetLabel(e2, kNegative);
  training->SetLabel(e3, kNegative);
  return training;
}

/// Example 6.2: D = {R(a), S(a), S(c)}, entities a(+), b(+), c(-).
std::shared_ptr<TrainingDatabase> Example62() {
  auto db = std::make_shared<Database>(UnarySchema());
  Value a = AddEntity(*db, "a");
  Value b = AddEntity(*db, "b");
  Value c = AddEntity(*db, "c");
  db->AddFact("R", {"a"});
  db->AddFact("S", {"a"});
  db->AddFact("S", {"c"});
  auto training = std::make_shared<TrainingDatabase>(db);
  training->SetLabel(a, kPositive);
  training->SetLabel(b, kPositive);
  training->SetLabel(c, kNegative);
  return training;
}

TEST(CqSepTest, StructurallyDistinctEntitiesAreSeparable) {
  EXPECT_TRUE(DecideCqSep(*TwoPathDataset()).separable);
  EXPECT_TRUE(DecideCqSep(*Example62()).separable);
}

TEST(CqSepTest, HomEquivalentConflictBlocksSeparability) {
  auto db = std::make_shared<Database>(GraphSchema());
  // e1 with one out-edge, e2 with two out-edges: hom-equivalent pointed
  // databases, so no CQ distinguishes them (Kimelfeld–Ré).
  Value e1 = AddEntity(*db, "e1");
  Value e2 = AddEntity(*db, "e2");
  testing::AddEdge(*db, "e1", "t");
  testing::AddEdge(*db, "e2", "u1");
  testing::AddEdge(*db, "e2", "u2");
  TrainingDatabase training(db);
  training.SetLabel(e1, kPositive);
  training.SetLabel(e2, kNegative);
  CqSepResult result = DecideCqSep(training);
  EXPECT_FALSE(result.separable);
  ASSERT_TRUE(result.conflict.has_value());
  EXPECT_EQ(result.conflict->first, e1);
  EXPECT_EQ(result.conflict->second, e2);
}

TEST(CqSepTest, ThreadCountDoesNotChangeTheAnswer) {
  // Many (positive, negative) pairs, with the hom-equivalent conflict
  // deliberately NOT first in enumeration order: the parallel sweep must
  // still report the same minimal-index conflict the serial loop finds.
  auto db = std::make_shared<Database>(GraphSchema());
  std::vector<Value> pos, neg;
  for (int i = 0; i < 3; ++i) {
    // Positives p0..p2 each start a 2-path.
    std::string name = "p" + std::to_string(i);
    Value p = AddEntity(*db, name);
    testing::AddEdge(*db, name, name + "m");
    testing::AddEdge(*db, name + "m", name + "t");
    pos.push_back(p);
  }
  for (int i = 0; i < 4; ++i) {
    // Negatives n0..n3 each start a single edge.
    std::string name = "n" + std::to_string(i);
    Value n = AddEntity(*db, name);
    testing::AddEdge(*db, name, name + "t");
    neg.push_back(n);
  }
  // Positive p3 carries the negative 1-edge shape, so the first conflict
  // in positive-major pair order is (p3, n0) — pair index 12 of 16.
  Value bad = AddEntity(*db, "p3");
  testing::AddEdge(*db, "p3", "p3t");
  pos.push_back(bad);
  TrainingDatabase training(db);
  for (Value p : pos) training.SetLabel(p, kPositive);
  for (Value n : neg) training.SetLabel(n, kNegative);

  CqSepResult serial = DecideCqSep(training, {.num_threads = 1});
  for (std::size_t threads : {2ul, 4ul, 8ul}) {
    CqSepResult parallel = DecideCqSep(training, {.num_threads = threads});
    EXPECT_EQ(parallel.separable, serial.separable);
    EXPECT_EQ(parallel.conflict, serial.conflict);
  }
  // Nested: parallel hom searches inside the parallel pair sweep.
  CqSepResult nested =
      DecideCqSep(training, {.num_threads = 4, .hom_threads = 4});
  EXPECT_EQ(nested.separable, serial.separable);
  EXPECT_EQ(nested.conflict, serial.conflict);
}

TEST(CqSepTest, ParallelConflictIsTheFirstInPairOrder) {
  // Two conflicting pairs exist; the reported one must be the first in
  // positive-major order regardless of thread count.
  auto db = std::make_shared<Database>(GraphSchema());
  Value p1 = AddEntity(*db, "p1");
  Value p2 = AddEntity(*db, "p2");
  Value n1 = AddEntity(*db, "n1");
  Value n2 = AddEntity(*db, "n2");
  // All four entities carry the same 1-edge shape: every pair conflicts.
  testing::AddEdge(*db, "p1", "a");
  testing::AddEdge(*db, "p2", "b");
  testing::AddEdge(*db, "n1", "c");
  testing::AddEdge(*db, "n2", "d");
  TrainingDatabase training(db);
  training.SetLabel(p1, kPositive);
  training.SetLabel(p2, kPositive);
  training.SetLabel(n1, kNegative);
  training.SetLabel(n2, kNegative);

  for (std::size_t threads : {1ul, 4ul}) {
    CqSepResult result = DecideCqSep(training, {.num_threads = threads});
    EXPECT_FALSE(result.separable);
    ASSERT_TRUE(result.conflict.has_value());
    EXPECT_EQ(result.conflict->first, p1);
    EXPECT_EQ(result.conflict->second, n1);
  }
}

TEST(CqSepTest, DegenerateLabelingsAreSeparable) {
  // With one class empty there is no differently-labeled pair, so the
  // criterion of Theorem 3.2 holds vacuously — and the implementation must
  // not divide by, or iterate over, the empty side.
  auto db = std::make_shared<Database>(GraphSchema());
  Value e1 = AddEntity(*db, "e1");
  Value e2 = AddEntity(*db, "e2");
  testing::AddEdge(*db, "e1", "t");

  TrainingDatabase all_positive(db);
  all_positive.SetLabel(e1, kPositive);
  all_positive.SetLabel(e2, kPositive);
  TrainingDatabase all_negative(db);
  all_negative.SetLabel(e1, kNegative);
  all_negative.SetLabel(e2, kNegative);

  for (std::size_t threads : {1ul, 4ul}) {
    CqSepOptions options{.num_threads = threads};
    CqSepResult positives_only = DecideCqSep(all_positive, options);
    EXPECT_TRUE(positives_only.separable);
    EXPECT_FALSE(positives_only.conflict.has_value());
    CqSepResult negatives_only = DecideCqSep(all_negative, options);
    EXPECT_TRUE(negatives_only.separable);
    EXPECT_FALSE(negatives_only.conflict.has_value());
  }
}

TEST(CqSepTest, EntitylessTrainingDatabaseIsSeparable) {
  // Both example sets empty: vacuously separable, no conflict.
  auto db = std::make_shared<Database>(GraphSchema());
  testing::AddEdge(*db, "a", "b");  // Facts but no entities.
  TrainingDatabase training(db);
  CqSepResult result = DecideCqSep(training);
  EXPECT_TRUE(result.separable);
  EXPECT_FALSE(result.conflict.has_value());
}

TEST(CqmSepTest, Example62SeparableWithOneAtomFeatures) {
  CqmSepResult result = DecideCqmSep(*Example62(), 1);
  ASSERT_TRUE(result.separable);
  EXPECT_EQ(result.model->TrainingErrors(*Example62()), 0u);
  EXPECT_GE(result.features_enumerated, 5u);
}

TEST(CqmSepTest, TwoPathNeedsTwoAtoms) {
  auto training = TwoPathDataset();
  // With one atom, e1 and e2 are indistinguishable (both have an
  // out-edge and nothing else a single atom can see).
  EXPECT_FALSE(DecideCqmSep(*training, 1).separable);
  CqmSepResult with_two = DecideCqmSep(*training, 2);
  ASSERT_TRUE(with_two.separable);
  EXPECT_EQ(with_two.model->TrainingErrors(*training), 0u);
}

TEST(CqmSepTest, GeneratedModelClassifiesUnseenDatabase) {
  auto training = TwoPathDataset();
  CqmSepResult result = DecideCqmSep(*training, 2);
  ASSERT_TRUE(result.separable);

  // Evaluation database with fresh entities of both shapes.
  Database eval(GraphSchema());
  Value f1 = AddEntity(eval, "f1");
  Value f2 = AddEntity(eval, "f2");
  testing::AddEdge(eval, "f1", "p");
  testing::AddEdge(eval, "p", "q");
  testing::AddEdge(eval, "f2", "r");
  Labeling predicted = result.model->Apply(eval);
  EXPECT_EQ(predicted.Get(f1), kPositive);
  EXPECT_EQ(predicted.Get(f2), kNegative);
}

TEST(CqmSepTest, InseparableBecauseOfContradictoryLabels) {
  auto db = std::make_shared<Database>(UnarySchema());
  Value a = AddEntity(*db, "a");
  Value b = AddEntity(*db, "b");
  // a and b are both isolated entities: no CQ distinguishes them.
  TrainingDatabase training(db);
  training.SetLabel(a, kPositive);
  training.SetLabel(b, kNegative);
  EXPECT_FALSE(DecideCqmSep(training, 3).separable);
  EXPECT_FALSE(DecideCqSep(training).separable);
}

TEST(CqmSepTest, MonotoneInM) {
  // Separability at m implies separability at m+1 (CQ[m] ⊆ CQ[m+1]).
  auto training = TwoPathDataset();
  bool m1 = DecideCqmSep(*training, 1).separable;
  bool m2 = DecideCqmSep(*training, 2).separable;
  bool m3 = DecideCqmSep(*training, 3).separable;
  EXPECT_TRUE(!m1 || m2);
  EXPECT_TRUE(!m2 || m3);
  EXPECT_TRUE(m2);
}

TEST(CqmSepTest, VariableOccurrenceRestriction) {
  // CQ[m,p]-SEP (Prop 4.3): the 2-path feature E(x,y),E(y,z) needs y to
  // occur twice; with p = 1 it is unavailable.
  auto training = TwoPathDataset();
  EXPECT_FALSE(DecideCqmSep(*training, 2, 1).separable);
  EXPECT_TRUE(DecideCqmSep(*training, 2, 2).separable);
}

}  // namespace
}  // namespace featsep
