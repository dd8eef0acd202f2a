#include "core/approx.h"

#include <gtest/gtest.h>

#include "core/ghw_separability.h"
#include "core/separability.h"
#include "relational/database_ops.h"
#include "test_util.h"
#include "testing/coverage.h"

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

// GhwApxClassify (Corollary 7.5) answers exactly as DecideGhwApxSep, then
// training on the optimal relabeling and classifying, do when run one after
// the other — pinned on both instances above, at several error budgets.
TEST(GhwApxClassifyTest, MatchesDecideRelabelTrainClassify) {
  for (auto training : {SeparableDataset(), NoisyDataset()}) {
    const Database& db = training->database();
    for (double epsilon : {0.0, 0.1, 0.2, 0.49}) {
      std::optional<Labeling> labeling =
          GhwApxClassify(training, 1, epsilon, db);
      ASSERT_EQ(labeling.has_value(), DecideGhwApxSep(*training, 1, epsilon))
          << "epsilon=" << epsilon;
      if (!labeling.has_value()) continue;
      GhwRelabelResult relabel = GhwOptimalRelabel(*training, 1);
      auto relabeled = std::make_shared<TrainingDatabase>(
          std::make_shared<Database>(Copy(db)));
      for (Value e : training->Entities()) {
        relabeled->SetLabel(e, relabel.relabeled.Get(e));
      }
      std::optional<GhwClassifier> classifier =
          GhwClassifier::Train(relabeled, 1);
      ASSERT_TRUE(classifier.has_value());
      Labeling expected = classifier->Classify(db);
      for (Value e : db.Entities()) {
        EXPECT_EQ(labeling->Get(e), expected.Get(e))
            << db.value_name(e) << " epsilon=" << epsilon;
      }
    }
  }
  // The twins t1 (+) and t2 (-) are one class; its tie goes positive.
  auto noisy = NoisyDataset();
  const Database& db = noisy->database();
  EXPECT_FALSE(GhwApxClassify(noisy, 1, 0.1, db).has_value());
  std::optional<Labeling> labeling = GhwApxClassify(noisy, 1, 0.2, db);
  ASSERT_TRUE(labeling.has_value());
  EXPECT_EQ(labeling->Get(db.FindValue("t1")), kPositive);
  EXPECT_EQ(labeling->Get(db.FindValue("t2")), kPositive);
  EXPECT_EQ(labeling->Get(db.FindValue("r0")), kPositive);
  EXPECT_EQ(labeling->Get(db.FindValue("s0")), kNegative);
}

// GhwApxClassify builds the →_k structure once: it enumerates as many
// cover-game positions as one ComputeGhwStructure plus one Classify.
TEST(GhwApxClassifyTest, BuildsTheStructureOnce) {
  using ::featsep::testing::CoverageSite;
  auto positions = [] {
    return ::featsep::testing::SnapshotCoverage()
        .counts[static_cast<std::size_t>(CoverageSite::kCoverPosition)];
  };
  for (auto training : {SeparableDataset(), NoisyDataset()}) {
    const Database& db = training->database();
    GhwRelabelResult relabel = GhwOptimalRelabel(*training, 1);
    auto relabeled = std::make_shared<TrainingDatabase>(
        std::make_shared<Database>(Copy(db)));
    for (Value e : training->Entities()) {
      relabeled->SetLabel(e, relabel.relabeled.Get(e));
    }
    std::optional<GhwClassifier> classifier =
        GhwClassifier::Train(relabeled, 1);
    ASSERT_TRUE(classifier.has_value());

    ::featsep::testing::SetCoverageEnabled(true);
    ::featsep::testing::ResetCoverage();
    ComputeGhwStructure(db, 1);
    classifier->Classify(db);
    const std::uint64_t expected = positions();
    ::featsep::testing::ResetCoverage();
    std::optional<Labeling> labeling = GhwApxClassify(training, 1, 0.49, db);
    const std::uint64_t counted = positions();
    ::featsep::testing::SetCoverageEnabled(false);
    ASSERT_TRUE(labeling.has_value());
    EXPECT_GT(expected, 0u);
    EXPECT_EQ(counted, expected);
  }
}

}  // namespace
}  // namespace featsep
