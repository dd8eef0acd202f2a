#include "linsep/separability_lp.h"

#include <set>
#include <utility>

#include "linsep/simplex.h"
#include "util/check.h"

namespace featsep {

namespace {

/// Solves the margin-rescaled feasibility LP (see the header) over the
/// nonempty `rows` by the rational simplex.
SeparatorSearch SolveSeparabilityLp(const TrainingCollection& rows,
                                    ExecutionBudget* budget) {
  std::size_t n = rows.front().first.size();
  // LP variables (all ≥ 0): wp_0..wp_n, wn_0..wn_n with w_j = wp_j - wn_j
  // (index 0 is the threshold w₀).
  std::size_t num_vars = 2 * (n + 1);
  auto wp = [&](std::size_t j) { return j; };
  auto wn = [&](std::size_t j) { return (n + 1) + j; };

  LpProblem problem;
  problem.c.assign(num_vars, Rational(0));
  for (const auto& [features, label] : rows) {
    // s(w) := Σⱼ wⱼ·bⱼ − w₀.
    // label +1: s(w) ≥ 0   →  −s(w) ≤ 0.
    // label −1: s(w) ≤ −1.
    std::vector<Rational> row(num_vars, Rational(0));
    int sign = label == kPositive ? -1 : 1;
    // Coefficient of w_j in sign*s(w) is sign*b_j; of w₀ is -sign.
    for (std::size_t j = 0; j < n; ++j) {
      Rational coeff(sign * features[j]);
      row[wp(j + 1)] = coeff;
      row[wn(j + 1)] = -coeff;
    }
    row[wp(0)] = Rational(-sign);
    row[wn(0)] = Rational(sign);
    problem.a.push_back(std::move(row));
    problem.b.push_back(label == kPositive ? Rational(0) : Rational(-1));
  }

  SeparatorSearch search;
  LpSolution solution = SolveLp(problem, budget);
  if (solution.status == LpStatus::kInterrupted) {
    search.outcome = solution.outcome;
    return search;
  }
  if (solution.status == LpStatus::kInfeasible) return search;
  FEATSEP_CHECK(solution.status == LpStatus::kOptimal);

  Rational threshold = solution.x[wp(0)] - solution.x[wn(0)];
  std::vector<Rational> weights;
  weights.reserve(n);
  for (std::size_t j = 1; j <= n; ++j) {
    weights.push_back(solution.x[wp(j)] - solution.x[wn(j)]);
  }
  search.classifier = LinearClassifier(threshold, std::move(weights));
  return search;
}

}  // namespace

std::optional<LinearClassifier> FindSeparator(
    const TrainingCollection& examples) {
  SeparatorSearch search = TryFindSeparator(examples, nullptr);
  FEATSEP_CHECK(search.outcome == BudgetOutcome::kCompleted);
  return std::move(search.classifier);
}

SeparatorSearch TryFindSeparator(const TrainingCollection& examples,
                                 ExecutionBudget* budget) {
  SeparatorSearch search;
  if (examples.empty()) {
    search.classifier = LinearClassifier(Rational(0), {});
    return search;
  }
  std::size_t n = examples[0].first.size();
  for (const auto& [features, label] : examples) {
    FEATSEP_CHECK_EQ(features.size(), n) << "ragged training collection";
    FEATSEP_CHECK(label == kPositive || label == kNegative);
  }

  // Presolve (DESIGN.md §3.4). Identical examples are identical LP rows,
  // so keep one of each. A vector that carries both labels cannot be
  // classified both ways by any w̄: not separable, without a pivot.
  std::set<std::pair<FeatureVector, Label>> seen;
  std::vector<const std::pair<FeatureVector, Label>*> rows;
  for (const auto& example : examples) {
    if (seen.count({example.first, -example.second}) != 0) return search;
    if (seen.insert(example).second) rows.push_back(&example);
  }
  // A column constant over the rows adds the same wⱼ·c to every Σ, which
  // the threshold absorbs, so it gets weight 0. Identical columns only
  // ever contribute the sum of their weights, so the first of each group
  // carries that sum and the others get 0.
  std::vector<std::size_t> kept;
  std::set<std::vector<int>> columns;
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<int> column;
    column.reserve(rows.size());
    bool constant = true;
    for (const auto* row : rows) {
      column.push_back(row->first[j]);
      constant = constant && column.back() == column.front();
    }
    if (!constant && columns.insert(std::move(column)).second) {
      kept.push_back(j);
    }
  }
  TrainingCollection reduced;
  reduced.reserve(rows.size());
  for (const auto* row : rows) {
    FeatureVector features;
    features.reserve(kept.size());
    for (std::size_t j : kept) features.push_back(row->first[j]);
    reduced.emplace_back(std::move(features), row->second);
  }

  search = SolveSeparabilityLp(reduced, budget);
  if (!search.classifier.has_value()) return search;
  std::vector<Rational> weights(n, Rational(0));
  for (std::size_t i = 0; i < kept.size(); ++i) {
    weights[kept[i]] = search.classifier->weights()[i];
  }
  LinearClassifier classifier(search.classifier->threshold(),
                              std::move(weights));
  FEATSEP_CHECK_EQ(classifier.CountErrors(examples), 0u)
      << "separator returned by LP misclassifies an example";
  search.classifier = std::move(classifier);
  return search;
}

SeparatorSearch TryFindSeparatorWarm(
    const TrainingCollection& examples, const LinearClassifier& previous,
    const std::vector<std::size_t>& changed_rows, ExecutionBudget* budget) {
  const std::size_t arity =
      examples.empty() ? previous.arity() : examples.front().first.size();
  if (previous.arity() == arity) {
    bool feasible = true;
    for (std::size_t row : changed_rows) {
      if (row >= examples.size()) continue;  // Row deleted since the solve.
      if (previous.Classify(examples[row].first) != examples[row].second) {
        feasible = false;
        break;
      }
    }
    // Feasible on the changed rows + unchanged on the rest (the caller's
    // contract) = feasible for the whole system; for the feasibility LP
    // that IS the answer — no pivots.
    if (feasible) {
      SeparatorSearch search;
      search.classifier = previous;
      return search;
    }
  }
  return TryFindSeparator(examples, budget);
}

bool IsLinearlySeparable(const TrainingCollection& examples) {
  return FindSeparator(examples).has_value();
}

}  // namespace featsep
