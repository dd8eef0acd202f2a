#include "core/approx.h"

#include <utility>
#include <vector>

#include "cq/enumeration.h"
#include "linsep/min_error.h"
#include "relational/database_ops.h"
#include "util/check.h"

namespace featsep {

CqmApxSepResult DecideCqmApxSep(const TrainingDatabase& training,
                                std::size_t m, double epsilon,
                                std::size_t max_variable_occurrences) {
  FEATSEP_CHECK(training.IsFullyLabeled());
  FEATSEP_CHECK_GE(epsilon, 0.0);
  FEATSEP_CHECK_LT(epsilon, 1.0);

  EnumerationOptions options;
  options.max_variable_occurrences = max_variable_occurrences;
  Statistic all_features(EnumerateFeatureQueries(
      training.database().schema_ptr(), m, options));
  TrainingCollection collection =
      MakeTrainingCollection(all_features, training);
  MinErrorResult best = MinimizeErrors(collection);

  CqmApxSepResult result;
  result.min_errors = best.errors;
  double budget =
      epsilon * static_cast<double>(training.Entities().size());
  result.separable_with_error = static_cast<double>(best.errors) <= budget;

  result.model = PruneZeroWeights(all_features, best.classifier);
  FEATSEP_CHECK_EQ(result.model->TrainingErrors(training), best.errors);
  return result;
}

std::shared_ptr<TrainingDatabase> ReduceSepToApxSep(
    const TrainingDatabase& training, double epsilon) {
  FEATSEP_CHECK_GE(epsilon, 0.0);
  FEATSEP_CHECK_LT(epsilon, 0.5) << "Prop 7.1 requires epsilon < 1/2";
  std::size_t n = training.Entities().size();
  FEATSEP_CHECK_GT(n, 0u);

  // Smallest even K with K/2 ≤ ε(n+K) < K/2 + 1; exists because the
  // admissible interval for K has length 1/(1/2−ε) ≥ 2.
  std::size_t k = 0;
  bool found = false;
  // K ≤ εn/(1/2−ε) + 2 bounds the search.
  std::size_t bound =
      static_cast<std::size_t>(epsilon * n / (0.5 - epsilon)) + 4;
  for (; k <= bound; k += 2) {
    double budget = epsilon * static_cast<double>(n + k);
    if (static_cast<double>(k) / 2.0 <= budget &&
        budget < static_cast<double>(k) / 2.0 + 1.0) {
      found = true;
      break;
    }
  }
  FEATSEP_CHECK(found) << "no admissible anchor count K for epsilon="
                       << epsilon << ", n=" << n;

  auto db = std::make_shared<Database>(Copy(training.database()));
  RelationId eta = db->schema().entity_relation();
  auto result = std::make_shared<TrainingDatabase>(db);
  for (Value e : training.Entities()) {
    result->SetLabel(e, training.label(e));
  }
  for (std::size_t i = 0; i < k; ++i) {
    Value anchor = db->Intern("apx_anchor_" + std::to_string(i));
    db->AddFact(eta, {anchor});
    result->SetLabel(anchor, i % 2 == 0 ? kPositive : kNegative);
  }
  return result;
}

}  // namespace featsep
