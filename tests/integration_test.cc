// Cross-module consistency properties: different algorithms of the paper
// must agree wherever the theory says they coincide.

#include <memory>
#include <random>

#include <gtest/gtest.h>

#include "core/approx.h"
#include "core/ghw_separability.h"
#include "core/separability.h"
#include "cq/evaluation.h"
#include "qbe/fo_qbe.h"
#include "qbe/qbe.h"
#include "test_util.h"

namespace featsep {
namespace {

using ::featsep::testing::AddEntity;
using ::featsep::testing::GraphSchema;

std::shared_ptr<TrainingDatabase> RandomTraining(std::mt19937_64& rng,
                                                 int entities, int extras,
                                                 int edges) {
  auto db = std::make_shared<Database>(GraphSchema());
  auto training = std::make_shared<TrainingDatabase>(db);
  std::vector<Value> values;
  for (int i = 0; i < entities; ++i) {
    Value e = AddEntity(*db, "e" + std::to_string(i));
    training->SetLabel(e, rng() % 2 == 0 ? kPositive : kNegative);
    values.push_back(e);
  }
  for (int i = 0; i < extras; ++i) {
    values.push_back(db->Intern("x" + std::to_string(i)));
  }
  RelationId edge = db->schema().FindRelation("E");
  for (int i = 0; i < edges; ++i) {
    db->AddFact(edge, {values[rng() % values.size()],
                       values[rng() % values.size()]});
  }
  return training;
}

// →_k coincides with → once k covers the whole database, so GHW(k)-SEP at
// k = |D| must agree with CQ-SEP (the k-cover chain of Section 5 bottoms
// out).
TEST(CrossValidation, GhwSepAtFullWidthEqualsCqSep) {
  std::mt19937_64 rng(59);
  int checked = 0;
  for (int trial = 0; trial < 12; ++trial) {
    auto training = RandomTraining(rng, 3, 2, 4);
    std::size_t k = training->database().size();
    if (k == 0) continue;
    bool cq = DecideCqSep(*training).separable;
    bool ghw = DecideGhwSep(*training, k).separable;
    EXPECT_EQ(cq, ghw) << "trial " << trial;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

// CQ[m] ⊆ CQ: CQ[m]-separability implies CQ-separability.
TEST(CrossValidation, CqmImpliesCq) {
  std::mt19937_64 rng(61);
  int implications = 0;
  for (int trial = 0; trial < 10; ++trial) {
    auto training = RandomTraining(rng, 3, 2, 5);
    if (DecideCqmSep(*training, 2).separable) {
      EXPECT_TRUE(DecideCqSep(*training).separable);
      ++implications;
    }
  }
  EXPECT_GT(implications, 0);
}

// GHW(k)-separability (any k) implies CQ-separability — GHW(k) ⊆ CQ.
TEST(CrossValidation, GhwImpliesCq) {
  std::mt19937_64 rng(67);
  int implications = 0;
  for (int trial = 0; trial < 10; ++trial) {
    auto training = RandomTraining(rng, 3, 1, 4);
    if (DecideGhwSep(*training, 1).separable) {
      EXPECT_TRUE(DecideCqSep(*training).separable);
      ++implications;
    }
  }
  EXPECT_GT(implications, 0);
}

// Whenever GhwClassifier trains, it reproduces the training labels (the
// (Π, Λ) pair separates (D, λ), Theorem 5.8).
TEST(CrossValidation, GhwClassifierAlwaysFitsItsTrainingData) {
  std::mt19937_64 rng(71);
  int trained = 0;
  for (int trial = 0; trial < 10; ++trial) {
    auto training = RandomTraining(rng, 3, 2, 4);
    auto classifier = GhwClassifier::Train(training, 1);
    if (!classifier.has_value()) continue;
    ++trained;
    Labeling predicted = classifier->Classify(training->database());
    for (Value e : training->Entities()) {
      EXPECT_EQ(predicted.Get(e), training->label(e)) << "trial " << trial;
    }
  }
  EXPECT_GT(trained, 0);
}

// ε = 0 approximate separability is exactly perfect separability.
TEST(CrossValidation, ApxSepAtZeroEpsilonEqualsSep) {
  std::mt19937_64 rng(73);
  for (int trial = 0; trial < 6; ++trial) {
    auto training = RandomTraining(rng, 3, 1, 3);
    bool exact = DecideCqmSep(*training, 1).separable;
    CqmApxSepResult apx = DecideCqmApxSep(*training, 1, 0.0);
    EXPECT_EQ(exact, apx.separable_with_error) << trial;
    EXPECT_EQ(exact, apx.min_errors == 0) << trial;
  }
}

// The CQ-QBE explanation (the product's core) with t atoms witnesses
// CQ[t]-QBE.
TEST(CrossValidation, MinimizedExplanationBoundsCqmQbe) {
  auto db = std::make_shared<Database>(GraphSchema());
  Value p = AddEntity(*db, "p");
  Value n = AddEntity(*db, "n");
  testing::AddEdge(*db, "p", "a");
  testing::AddEdge(*db, "a", "b");
  testing::AddEdge(*db, "n", "c");
  QbeInstance instance{db.get(), {p}, {n}};
  QbeResult cq = SolveCqQbe(instance);
  ASSERT_TRUE(cq.exists);
  std::size_t atoms = cq.explanation->NumAtoms(false);
  EXPECT_TRUE(SolveCqmQbe(instance, atoms).exists);
}

// CQ ⊆ FO: a CQ explanation implies an FO explanation.
TEST(CrossValidation, CqQbeImpliesFoQbe) {
  std::mt19937_64 rng(79);
  int implications = 0;
  for (int trial = 0; trial < 8; ++trial) {
    auto training = RandomTraining(rng, 4, 1, 5);
    std::vector<Value> entities = training->Entities();
    QbeInstance instance{&training->database(),
                         {entities[0], entities[1]},
                         {entities[2], entities[3]}};
    if (SolveCqQbe(instance).exists) {
      EXPECT_TRUE(SolveFoQbe(instance).exists) << trial;
      ++implications;
    }
  }
  EXPECT_GT(implications, 0);
}

// The explanation returned by SolveCqQbe always verifies against the
// instance (soundness of the product method).
TEST(CrossValidation, CqQbeExplanationsAlwaysVerify) {
  std::mt19937_64 rng(83);
  int verified = 0;
  for (int trial = 0; trial < 8; ++trial) {
    auto training = RandomTraining(rng, 4, 1, 4);
    std::vector<Value> entities = training->Entities();
    QbeInstance instance{&training->database(),
                         {entities[0], entities[1]},
                         {entities[2]}};
    QbeResult result = SolveCqQbe(instance);
    if (!result.exists) continue;
    ++verified;
    CqEvaluator evaluator(*result.explanation);
    for (Value p : instance.positives) {
      EXPECT_TRUE(evaluator.SelectsEntity(training->database(), p));
    }
    for (Value n : instance.negatives) {
      EXPECT_FALSE(evaluator.SelectsEntity(training->database(), n));
    }
  }
  EXPECT_GT(verified, 0);
}

}  // namespace
}  // namespace featsep
