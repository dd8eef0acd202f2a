#include "core/dimension_bounded.h"

#include <gtest/gtest.h>

#include "core/separability.h"
#include "test_util.h"

namespace featsep {
namespace {

using ::featsep::testing::AddEntity;
using ::featsep::testing::GraphSchema;
using ::featsep::testing::UnarySchema;

/// Example 6.2: D = {R(a), S(a), S(c)}, λ(a) = λ(b) = 1, λ(c) = -1.
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

TEST(SepDimTest, Example62NeedsTwoFeatures) {
  // The paper's Example 6.2: not CQ-separable with one feature, separable
  // with two (namely R(x) and S(x)).
  auto training = Example62();
  QbeOracle oracle = MakeCqmQbeOracle(2);
  EXPECT_FALSE(DecideSepDim(*training, 1, oracle).separable);
  SepDimResult with_two = DecideSepDim(*training, 2, oracle);
  EXPECT_TRUE(with_two.separable);
  EXPECT_LE(with_two.feature_positive_sets.size(), 2u);
}

TEST(SepDimTest, CqOracleAgrees) {
  auto training = Example62();
  QbeOracle oracle = MakeCqQbeOracle();
  EXPECT_FALSE(DecideSepDim(*training, 1, oracle).separable);
  EXPECT_TRUE(DecideSepDim(*training, 2, oracle).separable);
}

TEST(SepDimTest, GhwOracleAgrees) {
  auto training = Example62();
  QbeOracle oracle = MakeGhwQbeOracle(1);
  EXPECT_FALSE(DecideSepDim(*training, 1, oracle).separable);
  EXPECT_TRUE(DecideSepDim(*training, 2, oracle).separable);
}

TEST(SepDimTest, ConstantLabelingTriviallySeparable) {
  auto db = std::make_shared<Database>(UnarySchema());
  Value a = AddEntity(*db, "a");
  Value b = AddEntity(*db, "b");
  TrainingDatabase training(db);
  training.SetLabel(a, kPositive);
  training.SetLabel(b, kPositive);
  EXPECT_TRUE(DecideSepDim(training, 1, MakeCqQbeOracle()).separable);
}

TEST(SepDimTest, LargeEllMatchesUnboundedSeparability) {
  // With ℓ = |entities|, bounded-dimension separability coincides with
  // plain CQ[m]-separability.
  auto training = Example62();
  bool unbounded = DecideCqmSep(*training, 2).separable;
  bool bounded =
      DecideSepDim(*training, 3, MakeCqmQbeOracle(2)).separable;
  EXPECT_EQ(unbounded, bounded);
  EXPECT_TRUE(bounded);
}

TEST(Lemma65ReductionTest, PreservesExistence) {
  // QBE instance with an explanation: D = {R(a), S(b)} over a plain
  // schema, S+ = {a}, S- = dom \ S+ = {b}.
  Schema plain;
  plain.AddRelation("R", 1);
  plain.AddRelation("S", 1);
  auto schema = std::make_shared<const Schema>(std::move(plain));
  Database db(schema);
  db.AddFact("R", {"a"});
  db.AddFact("S", {"b"});
  Value a = db.FindValue("a");

  for (std::size_t ell : {1u, 2u, 3u}) {
    auto training = ReduceQbeToSepEll(db, {a}, ell);
    // The reduced instance has |dom| + ell entities.
    EXPECT_EQ(training->Entities().size(), db.domain().size() + ell);
    SepDimResult result =
        DecideSepDim(*training, ell, MakeCqQbeOracle());
    EXPECT_TRUE(result.separable) << "ell=" << ell;
  }
}

TEST(Lemma65ReductionTest, PreservesNonExistence) {
  // No CQ explanation: S+ = {b} where everything true of b is true of a
  // (R(a), R(b), S(a): b's facts are a subset).
  Schema plain;
  plain.AddRelation("R", 1);
  plain.AddRelation("S", 1);
  auto schema = std::make_shared<const Schema>(std::move(plain));
  Database db(schema);
  db.AddFact("R", {"a"});
  db.AddFact("S", {"a"});
  db.AddFact("R", {"b"});
  Value b = db.FindValue("b");

  // Sanity: the raw QBE instance has no explanation.
  EXPECT_FALSE(SolveCqQbe({&db, {b}, {db.FindValue("a")}}).exists);

  for (std::size_t ell : {1u, 2u}) {
    auto training = ReduceQbeToSepEll(db, {b}, ell);
    SepDimResult result =
        DecideSepDim(*training, ell, MakeCqQbeOracle());
    EXPECT_FALSE(result.separable) << "ell=" << ell;
  }
}


TEST(SepDimModelTest, MaterializesExplicitModel) {
  auto training = Example62();
  QbeOracle oracle = MakeCqmQbeOracle(1);
  SepDimResult result = DecideSepDim(*training, 2, oracle);
  ASSERT_TRUE(result.separable);

  QbeExplainer explainer = [](const QbeInstance& instance) {
    return SolveCqmQbe(instance, 1);
  };
  auto model = BuildSepDimModel(*training, result, explainer);
  ASSERT_TRUE(model.has_value());
  EXPECT_LE(model->statistic.dimension(), 2u);
  EXPECT_EQ(model->TrainingErrors(*training), 0u);
}

TEST(SepDimModelTest, ProductExplainerAlsoWorks) {
  auto training = Example62();
  SepDimResult result = DecideSepDim(*training, 2, MakeCqQbeOracle());
  ASSERT_TRUE(result.separable);
  QbeExplainer explainer = [](const QbeInstance& instance) {
    return SolveCqQbe(instance);
  };
  auto model = BuildSepDimModel(*training, result, explainer);
  ASSERT_TRUE(model.has_value());
  EXPECT_EQ(model->TrainingErrors(*training), 0u);
}

}  // namespace
}  // namespace featsep
