#ifndef FEATSEP_LINSEP_SEPARABILITY_LP_H_
#define FEATSEP_LINSEP_SEPARABILITY_LP_H_

#include <optional>
#include <utility>
#include <vector>

#include "linsep/linear_classifier.h"
#include "util/budget.h"

namespace featsep {

/// A training collection (b̄ᵢ, yᵢ)ᵢ of ±1 feature vectors with ±1 labels
/// (paper, Section 2).
using TrainingCollection = std::vector<std::pair<FeatureVector, Label>>;

/// Decides linear separability of a training collection and, when
/// separable, returns a witnessing classifier (paper, Section 2 and
/// Proposition 4.1; tractable by LP, [19, 21]).
///
/// Encoding: Λ(b̄) = y for all examples iff the system
///   Σⱼ wⱼ·bᵢⱼ − w₀ ≥ 0    for yᵢ = +1
///   Σⱼ wⱼ·bᵢⱼ − w₀ ≤ −1   for yᵢ = −1
/// is feasible — the strict "< w₀" branch of the classifier is rescaled to
/// margin −1 by homogeneity in (w̄, w₀). Solved exactly by the rational
/// simplex with free variables split into nonnegative pairs, over the
/// distinct rows and the distinct non-constant columns only: a vector
/// carrying both labels is "not separable" without a pivot, and the
/// returned classifier has full arity, weight 0 on every constant column
/// and on all but the first of each group of identical columns.
std::optional<LinearClassifier> FindSeparator(
    const TrainingCollection& examples);

/// Outcome of a budgeted separator search.
struct SeparatorSearch {
  /// kCompleted: `classifier` is definitive (nullopt = not separable).
  /// Otherwise the simplex was interrupted and separability is UNDECIDED.
  BudgetOutcome outcome = BudgetOutcome::kCompleted;
  std::optional<LinearClassifier> classifier;
};

/// Budgeted FindSeparator: `budget` (nullptr = unbounded) is charged one
/// step per simplex pivot; an interrupted solve reports the budget outcome
/// and no classifier. A vector carrying both labels is answered before the
/// simplex, so that verdict is definitive whatever the budget.
SeparatorSearch TryFindSeparator(const TrainingCollection& examples,
                                 ExecutionBudget* budget);

/// Warm-started separator search for incremental workloads (DESIGN.md §14).
/// The warm start reuses the previous solve's optimal *point* rather than
/// its basis: for the feasibility LP any feasible point is an answer, so if
/// `previous` still classifies every example in `changed_rows` correctly it
/// is feasible for the whole new system — the caller asserts all other rows
/// are unchanged since the solve that produced `previous`, whose
/// constraints it already satisfied — and is returned in O(|changed_rows| ·
/// arity) rational arithmetic with zero pivots. Any miss (or an arity
/// mismatch) falls back to a fresh TryFindSeparator over all examples.
/// The verdict is identical to the cold path either way.
SeparatorSearch TryFindSeparatorWarm(const TrainingCollection& examples,
                                     const LinearClassifier& previous,
                                     const std::vector<std::size_t>& changed_rows,
                                     ExecutionBudget* budget);

/// True iff the collection is linearly separable.
bool IsLinearlySeparable(const TrainingCollection& examples);

}  // namespace featsep

#endif  // FEATSEP_LINSEP_SEPARABILITY_LP_H_
