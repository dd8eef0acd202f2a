#include "qbe/qbe.h"

#include <optional>
#include <utility>

#include "covergame/cover_game.h"
#include "cq/enumeration.h"
#include "cq/evaluation.h"
#include "cq/homomorphism.h"
#include "cq/product.h"
#include "util/budget.h"
#include "util/check.h"
#include "util/parallel.h"

namespace featsep {

namespace {

/// The core of ∏_{e∈S⁺}(D, e) (FoldCoredProduct), recording its size in
/// `result`; nullopt, with the outcome recorded, iff the budget ran out.
std::optional<CoredProduct> PositiveProduct(const QbeInstance& instance,
                                            const QbeOptions& options,
                                            QbeResult* result) {
  FEATSEP_CHECK(instance.db != nullptr);
  std::optional<CoredProduct> product =
      FoldCoredProduct(*instance.db, instance.positives,
                       options.max_product_facts, options.budget);
  if (product.has_value()) {
    result->product_facts = product->largest_facts;
  } else {
    result->outcome = OutcomeOf(options.budget);
  }
  return product;
}

}  // namespace

QbeResult SolveCqQbe(const QbeInstance& instance, const QbeOptions& options) {
  QbeResult result;
  std::optional<CoredProduct> product =
      PositiveProduct(instance, options, &result);
  if (!product.has_value()) return result;
  result.exists = true;
  // The per-negative refutation checks are independent NP searches; fan
  // them out and stop at the first negative the product maps into. (The
  // databases' lazy caches are internally synchronized — no warm-up step.)
  // An interrupted search contributes "no refutation found here"; the
  // outcome recorded below marks such an all-clear as undecided.
  std::size_t hit = ParallelFindFirst(
      options.num_threads, instance.negatives.size(), [&](std::size_t i) {
        HomResult hom = FindHomomorphism(
            product->db, *instance.db,
            {{product->point, instance.negatives[i]}}, options.budget);
        return hom.status == HomStatus::kFound;
      });
  result.outcome = OutcomeOf(options.budget);
  if (hit < instance.negatives.size() ||
      result.outcome != BudgetOutcome::kCompleted) {
    // A refuting homomorphism was fully verified, so "no explanation" is
    // sound even when the sweep was interrupted elsewhere; without one, an
    // interrupted sweep is undecided (see result.outcome).
    result.exists = false;
    return result;
  }
  // The product's core query is itself an explanation: it selects every
  // positive (projections are homomorphisms) and, as just verified, no
  // negative.
  result.explanation = CqFromDatabase(product->db, {product->point});
  return result;
}

QbeResult SolveGhwQbe(const QbeInstance& instance, std::size_t k,
                      const QbeOptions& options) {
  QbeResult result;
  std::optional<CoredProduct> product =
      PositiveProduct(instance, options, &result);
  if (!product.has_value()) return result;
  result.exists = true;
  CoverGameSolver solver(product->db, *instance.db, k, options.budget);
  for (Value b : instance.negatives) {
    Budgeted<bool> win = solver.TryDecide({product->point}, {b});
    if (!win.ok()) {
      result.exists = false;  // Undecided; see result.outcome.
      result.outcome = win.outcome;
      return result;
    }
    if (win.value) {
      // A verified Duplicator win onto a negative soundly refutes every
      // GHW(k) explanation.
      result.exists = false;
      return result;
    }
  }
  return result;
}

QbeResult SolveCqmQbe(const QbeInstance& instance, std::size_t m,
                      std::size_t max_variable_occurrences,
                      const QbeOptions& options) {
  FEATSEP_CHECK(instance.db != nullptr);
  FEATSEP_CHECK(!instance.positives.empty())
      << "QBE requires a nonempty positive set";
  const Database& db = *instance.db;
  FEATSEP_CHECK(db.schema().has_entity_relation());
  for (Value e : instance.positives) {
    FEATSEP_CHECK(db.IsEntity(e)) << "positive example is not an entity";
  }

  EnumerationOptions enum_options;
  enum_options.max_variable_occurrences = max_variable_occurrences;
  std::vector<ConjunctiveQuery> candidates =
      EnumerateFeatureQueries(db.schema_ptr(), m, enum_options);

  QbeResult result;
  if (!RecheckBudget(options.budget)) {
    result.outcome = options.budget->outcome();
    return result;
  }

  // Each candidate query is screened independently; fan the screens out
  // and return the first explanation in enumeration order.
  const std::size_t hit = ParallelFindFirst(
      options.num_threads, candidates.size(), [&](std::size_t i) {
        CqEvaluator evaluator(candidates[i]);
        CqEvaluator::Binding binding = evaluator.Bind(db);
        for (Value e : instance.positives) {
          std::optional<bool> selects =
              binding.TrySelectsEntity(e, options.budget);
          if (!selects.value_or(false)) return false;  // Rejected or undecided.
        }
        for (Value b : instance.negatives) {
          std::optional<bool> selects =
              binding.TrySelectsEntity(b, options.budget);
          if (selects.value_or(true)) return false;  // Rejected or undecided.
        }
        return true;
      });
  result.outcome = OutcomeOf(options.budget);
  if (hit < candidates.size()) {
    // The accepted candidate's screen ran to completion, so the
    // explanation is sound even if other screens were interrupted (though
    // only a completed sweep guarantees it is the first in enumeration
    // order).
    result.exists = true;
    result.explanation = std::move(candidates[hit]);
    return result;
  }
  result.exists = false;
  return result;
}

}  // namespace featsep
