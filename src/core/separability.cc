#include "core/separability.h"

#include <atomic>
#include <limits>
#include <utility>
#include <vector>

#include "cq/enumeration.h"
#include "cq/homomorphism.h"
#include "linsep/separability_lp.h"
#include "util/check.h"
#include "util/parallel.h"

namespace featsep {

CqSepResult DecideCqSep(const TrainingDatabase& training,
                        const CqSepOptions& options) {
  FEATSEP_CHECK(training.IsFullyLabeled());
  const Database& db = training.database();

  // A zero/expired/cancelled budget at entry: return undecided before any
  // work, including the degenerate-case analysis.
  CqSepResult result;
  if (!RecheckBudget(options.budget)) {
    result.outcome = options.budget->outcome();
    return result;
  }

  std::vector<Value> positives = training.PositiveExamples();
  std::vector<Value> negatives = training.NegativeExamples();

  // Degenerate training sets: with no positives or no negatives there is no
  // differently-labeled pair, so the database is trivially separable (this
  // also keeps the index arithmetic below free of divisions by zero).
  if (positives.empty() || negatives.empty()) {
    result.separable = true;
    return result;
  }
  // The pair count drives the sweep's index math; make a silent wrap-around
  // on astronomically large example sets a loud error instead.
  FEATSEP_CHECK_LE(positives.size(),
                   std::numeric_limits<std::size_t>::max() / negatives.size())
      << "positive x negative pair count overflows std::size_t";

  // The pairwise hom-equivalence tests are independent; sweep them in
  // parallel, reporting the first conflicting pair in the same
  // positive-major order the serial loop used. The database's lazy domain
  // caches are internally synchronized, so workers may hit them cold.
  std::size_t pairs = positives.size() * negatives.size();
  std::atomic<std::size_t> pairs_checked{0};
  std::size_t hit = ParallelFindFirst(
      options.num_threads, pairs, [&](std::size_t index) {
        Value p = positives[index / negatives.size()];
        Value n = negatives[index % negatives.size()];
        // An interrupted test contributes "no conflict found here" to the
        // sweep; the budget outcome recorded below tells the caller the
        // all-clear is then not definitive.
        std::optional<bool> equivalent =
            TryHomEquivalent(db, {p}, db, {n}, options.budget);
        if (!equivalent.has_value()) return false;
        pairs_checked.fetch_add(1, std::memory_order_relaxed);
        return *equivalent;
      });
  result.pairs_checked = pairs_checked.load(std::memory_order_relaxed);
  result.outcome = OutcomeOf(options.budget);
  if (hit < pairs) {
    // Both hom directions of this pair were verified, so inseparability is
    // sound even when the budget tripped elsewhere in the sweep.
    result.separable = false;
    result.conflict = std::make_pair(positives[hit / negatives.size()],
                                     negatives[hit % negatives.size()]);
    return result;
  }
  result.separable = result.outcome == BudgetOutcome::kCompleted;
  return result;
}

CqmSepResult DecideCqmSep(const TrainingDatabase& training, std::size_t m,
                          const CqmSepOptions& options) {
  FEATSEP_CHECK(training.IsFullyLabeled());
  CqmSepResult result;
  // Entry check before the (possibly exponential) feature enumeration.
  if (!RecheckBudget(options.budget)) {
    result.outcome = options.budget->outcome();
    return result;
  }
  EnumerationOptions enum_options;
  enum_options.max_variable_occurrences = options.max_variable_occurrences;
  Statistic all_features(EnumerateFeatureQueries(
      training.database().schema_ptr(), m, enum_options));

  result.features_enumerated = all_features.dimension();

  // Feature evaluation (serial or served) under the budget. An incomplete
  // matrix means the run is undecided — a separator over partially-known
  // feature vectors would be meaningless.
  PartialMatrix partial = all_features.TryMatrix(
      training.database(), options.budget, options.service);
  if (!partial.complete()) {
    result.outcome = partial.outcome;
    return result;
  }
  TrainingCollection collection;
  std::vector<Value> entities = training.Entities();
  FEATSEP_CHECK_EQ(entities.size(), partial.rows.size());
  for (std::size_t i = 0; i < entities.size(); ++i) {
    collection.emplace_back(std::move(partial.rows[i]),
                            training.label(entities[i]));
  }

  SeparatorSearch search = TryFindSeparator(collection, options.budget);
  if (search.outcome != BudgetOutcome::kCompleted) {
    result.outcome = search.outcome;
    return result;
  }
  std::optional<LinearClassifier> classifier = std::move(search.classifier);
  if (!classifier.has_value()) {
    result.separable = false;
    return result;
  }

  SeparatorModel model = PruneZeroWeights(all_features, *classifier);
  FEATSEP_CHECK_EQ(model.TrainingErrors(training), 0u)
      << "generated CQ[m] model misclassifies a training entity";
  result.separable = true;
  result.model = std::move(model);
  return result;
}

CqmSepResult DecideCqmSep(const TrainingDatabase& training, std::size_t m,
                          std::size_t max_variable_occurrences) {
  CqmSepOptions options;
  options.max_variable_occurrences = max_variable_occurrences;
  return DecideCqmSep(training, m, options);
}

}  // namespace featsep
