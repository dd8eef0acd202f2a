#include "core/approx.h"

#include <gtest/gtest.h>

#include "core/separability.h"
#include "test_util.h"

namespace featsep {
namespace {

using ::featsep::testing::AddEntity;
using ::featsep::testing::UnarySchema;

/// Separable: a has R (+), b has S (-).
std::shared_ptr<TrainingDatabase> SeparableDataset() {
  auto db = std::make_shared<Database>(UnarySchema());
  Value a = AddEntity(*db, "a");
  Value b = AddEntity(*db, "b");
  db->AddFact("R", {"a"});
  db->AddFact("S", {"b"});
  auto training = std::make_shared<TrainingDatabase>(db);
  training->SetLabel(a, kPositive);
  training->SetLabel(b, kNegative);
  return training;
}

/// Inseparable: twins t1 (+) and t2 (-), plus separable padding so the
/// instance is not degenerate.
std::shared_ptr<TrainingDatabase> NoisyDataset() {
  auto db = std::make_shared<Database>(UnarySchema());
  auto training = std::make_shared<TrainingDatabase>(db);
  Value t1 = AddEntity(*db, "t1");
  Value t2 = AddEntity(*db, "t2");
  training->SetLabel(t1, kPositive);
  training->SetLabel(t2, kNegative);
  for (int i = 0; i < 3; ++i) {
    Value r = AddEntity(*db, "r" + std::to_string(i));
    db->AddFact("R", {"r" + std::to_string(i)});
    training->SetLabel(r, kPositive);
    Value s = AddEntity(*db, "s" + std::to_string(i));
    db->AddFact("S", {"s" + std::to_string(i)});
    training->SetLabel(s, kNegative);
  }
  return training;
}

TEST(CqmApxSepTest, SeparableDataHasZeroMinError) {
  CqmApxSepResult result = DecideCqmApxSep(*SeparableDataset(), 1, 0.0);
  EXPECT_TRUE(result.separable_with_error);
  EXPECT_EQ(result.min_errors, 0u);
}

TEST(CqmApxSepTest, EntitylessTrainingDatabaseHasZeroMinError) {
  // No entities: nothing to misclassify, and the min-error classifier
  // carries no weights, so the returned model is empty.
  auto db = std::make_shared<Database>(testing::GraphSchema());
  testing::AddEdge(*db, "a", "b");
  TrainingDatabase training(db);
  for (std::size_t m = 1; m <= 2; ++m) {
    CqmApxSepResult result = DecideCqmApxSep(training, m, 0.0);
    EXPECT_TRUE(result.separable_with_error) << "m = " << m;
    EXPECT_EQ(result.min_errors, 0u);
    ASSERT_TRUE(result.model.has_value());
    EXPECT_EQ(result.model->statistic.dimension(), 0u);
  }
}

TEST(CqmApxSepTest, TwinConflictCostsExactlyOne) {
  auto training = NoisyDataset();
  EXPECT_FALSE(DecideCqmSep(*training, 1).separable);
  CqmApxSepResult result = DecideCqmApxSep(*training, 1, 0.0);
  EXPECT_FALSE(result.separable_with_error);
  EXPECT_EQ(result.min_errors, 1u);  // One of the twins must be wrong.
  // 8 entities: budget 1 error needs epsilon >= 1/8.
  EXPECT_TRUE(DecideCqmApxSep(*training, 1, 0.125).separable_with_error);
  EXPECT_FALSE(DecideCqmApxSep(*training, 1, 0.124).separable_with_error);
  // The best model indeed errs exactly once on the training data.
  EXPECT_EQ(result.model->TrainingErrors(*training), 1u);
}

TEST(Prop71ReductionTest, SeparableMapsToApxSeparable) {
  for (double epsilon : {0.0, 0.2, 0.4}) {
    auto training = SeparableDataset();
    auto reduced = ReduceSepToApxSep(*training, epsilon);
    CqmApxSepResult result = DecideCqmApxSep(*reduced, 1, epsilon);
    EXPECT_TRUE(result.separable_with_error) << "epsilon=" << epsilon;
  }
}

TEST(Prop71ReductionTest, InseparableMapsToApxInseparable) {
  for (double epsilon : {0.0, 0.2, 0.4}) {
    auto training = NoisyDataset();
    ASSERT_FALSE(DecideCqmSep(*training, 1).separable);
    auto reduced = ReduceSepToApxSep(*training, epsilon);
    CqmApxSepResult result = DecideCqmApxSep(*reduced, 1, epsilon);
    EXPECT_FALSE(result.separable_with_error) << "epsilon=" << epsilon;
  }
}

TEST(Prop71ReductionTest, AnchorCountRespectsBudgetWindow) {
  auto training = NoisyDataset();  // 8 entities.
  double epsilon = 0.3;
  auto reduced = ReduceSepToApxSep(*training, epsilon);
  std::size_t n = training->Entities().size();
  std::size_t total = reduced->Entities().size();
  std::size_t k = total - n;
  EXPECT_EQ(k % 2, 0u);
  double budget = epsilon * static_cast<double>(total);
  EXPECT_LE(static_cast<double>(k) / 2.0, budget);
  EXPECT_LT(budget, static_cast<double>(k) / 2.0 + 1.0);
}

TEST(Prop71ReductionTest, EpsilonZeroAddsNothing) {
  auto training = SeparableDataset();
  auto reduced = ReduceSepToApxSep(*training, 0.0);
  EXPECT_EQ(reduced->Entities().size(), training->Entities().size());
}

}  // namespace
}  // namespace featsep
