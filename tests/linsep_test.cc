#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/separability.h"
#include "core/statistic.h"
#include "cq/enumeration.h"
#include "linsep/linear_classifier.h"
#include "linsep/min_error.h"
#include "linsep/perceptron.h"
#include "linsep/separability_lp.h"
#include "workload/generators.h"

namespace featsep {
namespace {

TEST(LinearClassifierTest, ClassifyThresholdSemantics) {
  // Sum >= w0 -> +1 (boundary inclusive), per the paper's definition.
  LinearClassifier clf(Rational(1), {Rational(1)});
  EXPECT_EQ(clf.Classify({1}), kPositive);   // 1 >= 1.
  EXPECT_EQ(clf.Classify({-1}), kNegative);  // -1 < 1.
}

TEST(SeparabilityLpTest, AndFunctionIsSeparable) {
  TrainingCollection examples = {
      {{1, 1}, kPositive},
      {{1, -1}, kNegative},
      {{-1, 1}, kNegative},
      {{-1, -1}, kNegative},
  };
  auto clf = FindSeparator(examples);
  ASSERT_TRUE(clf.has_value());
  EXPECT_EQ(clf->CountErrors(examples), 0u);
}

TEST(SeparabilityLpTest, XorIsNotSeparable) {
  TrainingCollection examples = {
      {{1, 1}, kPositive},
      {{-1, -1}, kPositive},
      {{1, -1}, kNegative},
      {{-1, 1}, kNegative},
  };
  EXPECT_FALSE(IsLinearlySeparable(examples));
}

TEST(SeparabilityLpTest, ContradictoryLabelsOnSameVector) {
  TrainingCollection examples = {
      {{1, 1}, kPositive},
      {{1, 1}, kNegative},
  };
  EXPECT_FALSE(IsLinearlySeparable(examples));
}

TEST(SeparabilityLpTest, AllSameLabelTrivially) {
  TrainingCollection examples = {
      {{1, -1}, kPositive},
      {{-1, 1}, kPositive},
  };
  EXPECT_TRUE(IsLinearlySeparable(examples));
  TrainingCollection negatives = {
      {{1, -1}, kNegative},
      {{-1, 1}, kNegative},
  };
  EXPECT_TRUE(IsLinearlySeparable(negatives));
}

TEST(SeparabilityLpTest, EmptyCollection) {
  EXPECT_TRUE(IsLinearlySeparable({}));
}

TEST(SeparabilityLpTest, SingleFeatureDictatorship) {
  // Label equals the 3rd feature: separable by that coordinate.
  std::mt19937_64 rng(23);
  TrainingCollection examples;
  for (int i = 0; i < 30; ++i) {
    FeatureVector v;
    for (int j = 0; j < 5; ++j) v.push_back(rng() % 2 == 0 ? 1 : -1);
    examples.emplace_back(v, v[2] == 1 ? kPositive : kNegative);
  }
  auto clf = FindSeparator(examples);
  ASSERT_TRUE(clf.has_value());
  EXPECT_EQ(clf->CountErrors(examples), 0u);
}

TEST(SeparabilityLpTest, BothLabelsOnOneVectorNeedsNoPivot) {
  // The presolve answers before the simplex, so even a cancelled budget,
  // which allows no pivot, gets the definitive verdict.
  TrainingCollection examples = {
      {{1, -1, 1}, kPositive},
      {{-1, -1, 1}, kNegative},
      {{1, -1, 1}, kNegative},
  };
  ExecutionBudget cancelled;
  cancelled.Cancel();
  SeparatorSearch search = TryFindSeparator(examples, &cancelled);
  EXPECT_EQ(search.outcome, BudgetOutcome::kCompleted);
  EXPECT_FALSE(search.classifier.has_value());
}

TEST(SeparabilityLpTest, DuplicateAndConstantColumnsKeepFullArity) {
  // Column 2 is constant and columns 1 and 3 are identical. Solved
  // unreduced, the simplex put weight 1/2 on the constant column.
  TrainingCollection examples = {
      {{-1, 1, 1, 1, -1}, kPositive},
      {{-1, -1, 1, -1, 1}, kPositive},
      {{-1, 1, 1, 1, 1}, kNegative},
      {{1, 1, 1, 1, 1}, kPositive},
  };
  std::optional<LinearClassifier> clf = FindSeparator(examples);
  ASSERT_TRUE(clf.has_value());
  ASSERT_EQ(clf->arity(), 5u);
  EXPECT_EQ(clf->CountErrors(examples), 0u);
  EXPECT_TRUE(clf->weights()[2].is_zero());
  EXPECT_TRUE(clf->weights()[1].is_zero() || clf->weights()[3].is_zero());
}

TEST(SeparabilityLpTest, CqmModelKeepsAtMostTheDistinctColumns) {
  // A CQ[2] matrix has many constant and identical columns. The model
  // keeps at most one feature per distinct non-constant column.
  RandomGraphParams params;
  params.num_entities = 8;
  params.num_background_nodes = 6;
  params.num_background_edges = 9;
  params.seed = 3;
  auto training = RandomPlantedGraph(params);
  auto column_of = [&](const Statistic& statistic, std::size_t j) {
    std::vector<int> column;
    for (const FeatureVector& row :
         statistic.Matrix(training->database())) {
      column.push_back(row[j]);
    }
    return column;
  };
  auto is_constant = [](const std::vector<int>& column) {
    return std::set<int>(column.begin(), column.end()).size() == 1;
  };
  Statistic all(EnumerateFeatureQueries(training->database().schema_ptr(), 2));
  std::set<std::vector<int>> distinct_columns;
  for (std::size_t j = 0; j < all.dimension(); ++j) {
    std::vector<int> column = column_of(all, j);
    if (!is_constant(column)) distinct_columns.insert(std::move(column));
  }
  ASSERT_LT(distinct_columns.size(), all.dimension());

  CqmSepResult result = DecideCqmSep(*training, 2);
  ASSERT_TRUE(result.separable);
  ASSERT_TRUE(result.model.has_value());
  EXPECT_EQ(result.features_enumerated, all.dimension());
  const Statistic& kept = result.model->statistic;
  EXPECT_LE(kept.dimension(), distinct_columns.size());
  std::set<std::vector<int>> kept_columns;
  for (std::size_t j = 0; j < kept.dimension(); ++j) {
    std::vector<int> column = column_of(kept, j);
    EXPECT_FALSE(is_constant(column)) << "feature " << j;
    EXPECT_TRUE(kept_columns.insert(std::move(column)).second)
        << "feature " << j;
  }
  EXPECT_EQ(result.model->TrainingErrors(*training), 0u);
}

// Property test: for random small collections, LP separability agrees with
// brute force over a grid of integer weight vectors when the grid certifies
// separability, and the returned classifier is always consistent.
TEST(SeparabilityLpPropertyTest, WitnessAlwaysConsistent) {
  std::mt19937_64 rng(29);
  int separable_count = 0;
  for (int trial = 0; trial < 100; ++trial) {
    TrainingCollection examples;
    int n = 2 + static_cast<int>(rng() % 3);
    int m = 3 + static_cast<int>(rng() % 8);
    for (int i = 0; i < m; ++i) {
      FeatureVector v;
      for (int j = 0; j < n; ++j) v.push_back(rng() % 2 == 0 ? 1 : -1);
      examples.emplace_back(v, rng() % 2 == 0 ? kPositive : kNegative);
    }
    auto clf = FindSeparator(examples);
    if (clf.has_value()) {
      ++separable_count;
      EXPECT_EQ(clf->CountErrors(examples), 0u);
    }
  }
  EXPECT_GT(separable_count, 0);
}

TEST(MinErrorTest, SeparableDataHasZeroErrors) {
  TrainingCollection examples = {
      {{1, 1}, kPositive},
      {{-1, -1}, kNegative},
  };
  MinErrorResult result = MinimizeErrors(examples);
  EXPECT_EQ(result.errors, 0u);
}

TEST(MinErrorTest, XorNeedsExactlyOneError) {
  TrainingCollection examples = {
      {{1, 1}, kPositive},
      {{-1, -1}, kPositive},
      {{1, -1}, kNegative},
      {{-1, 1}, kNegative},
  };
  MinErrorResult result = MinimizeErrors(examples);
  EXPECT_EQ(result.errors, 1u);
  EXPECT_EQ(result.classifier.CountErrors(examples), 1u);
}

TEST(MinErrorTest, ContradictionCostsTheMinoritySide) {
  TrainingCollection examples = {
      {{1}, kPositive}, {{1}, kPositive}, {{1}, kPositive},
      {{1}, kNegative},  // 3 vs 1: one unavoidable error.
      {{-1}, kNegative},
  };
  MinErrorResult result = MinimizeErrors(examples);
  EXPECT_EQ(result.errors, 1u);
}

TEST(MinErrorTest, EpsilonThresholds) {
  TrainingCollection examples = {
      {{1, 1}, kPositive},
      {{-1, -1}, kPositive},
      {{1, -1}, kNegative},
      {{-1, 1}, kNegative},
  };
  EXPECT_FALSE(IsSeparableWithError(examples, 0.0));
  EXPECT_FALSE(IsSeparableWithError(examples, 0.2));   // Budget 0.8 < 1.
  EXPECT_TRUE(IsSeparableWithError(examples, 0.25));   // Budget 1.
  EXPECT_TRUE(IsSeparableWithError(examples, 0.49));
}

// Property test: min-error optimum is 0 iff LP says separable; and the
// optimum never exceeds the pocket-perceptron error.
TEST(MinErrorPropertyTest, ConsistentWithLpAndHeuristic) {
  std::mt19937_64 rng(31);
  for (int trial = 0; trial < 40; ++trial) {
    TrainingCollection examples;
    int n = 2 + static_cast<int>(rng() % 2);
    int m = 4 + static_cast<int>(rng() % 6);
    for (int i = 0; i < m; ++i) {
      FeatureVector v;
      for (int j = 0; j < n; ++j) v.push_back(rng() % 2 == 0 ? 1 : -1);
      examples.emplace_back(v, rng() % 2 == 0 ? kPositive : kNegative);
    }
    MinErrorResult exact = MinimizeErrors(examples);
    EXPECT_EQ(exact.errors == 0, IsLinearlySeparable(examples));
    auto [pocket, pocket_errors] = PocketPerceptron(examples);
    EXPECT_LE(exact.errors, pocket_errors);
    EXPECT_EQ(pocket.CountErrors(examples), pocket_errors);
  }
}

TEST(PerceptronTest, FindsPerfectSeparatorOnSeparableData) {
  TrainingCollection examples;
  std::mt19937_64 rng(37);
  for (int i = 0; i < 40; ++i) {
    FeatureVector v;
    for (int j = 0; j < 4; ++j) v.push_back(rng() % 2 == 0 ? 1 : -1);
    // Separable by majority vote with a +2 threshold margin trick:
    int sum = v[0] + v[1] + v[2] + v[3];
    examples.emplace_back(v, sum >= 0 ? kPositive : kNegative);
  }
  auto [clf, errors] = PocketPerceptron(examples);
  EXPECT_EQ(errors, 0u);
  EXPECT_EQ(clf.CountErrors(examples), 0u);
}

}  // namespace
}  // namespace featsep
