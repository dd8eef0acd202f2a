#include "core/statistic.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "cq/evaluation.h"
#include "serve/eval_service.h"
#include "util/check.h"

namespace featsep {

Statistic::Statistic(std::vector<ConjunctiveQuery> features)
    : features_(std::move(features)) {}

const ConjunctiveQuery& Statistic::feature(std::size_t i) const {
  FEATSEP_CHECK_LT(i, features_.size());
  return features_[i];
}

FeatureVector Statistic::Vector(const Database& db, Value entity) const {
  FeatureVector vector;
  vector.reserve(features_.size());
  for (const ConjunctiveQuery& q : features_) {
    vector.push_back(CqEvaluator(q).SelectsEntity(db, entity) ? 1 : -1);
  }
  return vector;
}

std::vector<FeatureVector> Statistic::Matrix(const Database& db) const {
  std::vector<Value> entities = db.Entities();
  std::vector<FeatureVector> matrix(entities.size());
  for (std::size_t i = 0; i < entities.size(); ++i) {
    matrix[i].reserve(features_.size());
  }
  // Evaluate feature-by-feature so each feature is split and bound to the
  // database once.
  for (const ConjunctiveQuery& q : features_) {
    CqEvaluator evaluator(q);
    CqEvaluator::Binding binding = evaluator.Bind(db);
    for (std::size_t i = 0; i < entities.size(); ++i) {
      matrix[i].push_back(binding.SelectsEntity(entities[i]) ? 1 : -1);
    }
  }
  return matrix;
}

PartialMatrix Statistic::TryMatrix(const Database& db, ExecutionBudget* budget,
                                   serve::EvalService* service) const {
  std::vector<Value> entities = db.Entities();
  PartialMatrix partial;
  partial.rows.assign(entities.size(), FeatureVector(features_.size(), -1));
  partial.valid.assign(entities.size(),
                       std::vector<char>(features_.size(), 0));
  // A zero/expired/cancelled budget at entry: all cells invalid, no kernel
  // work at all.
  if (!RecheckBudget(budget)) {
    partial.outcome = budget->outcome();
    return partial;
  }
  if (service != nullptr) {
    std::vector<std::shared_ptr<const serve::FeatureAnswer>> answers =
        service->TryResolve(features_, db, budget);
    for (std::size_t j = 0; j < features_.size(); ++j) {
      if (answers[j] == nullptr) continue;  // Aborted column stays invalid.
      for (std::size_t i = 0; i < entities.size(); ++i) {
        partial.rows[i][j] = answers[j]->Selects(db, entities[i]) ? 1 : -1;
        partial.valid[i][j] = 1;
      }
    }
    partial.outcome = OutcomeOf(budget);
    return partial;
  }
  for (std::size_t j = 0; j < features_.size(); ++j) {
    CqEvaluator evaluator(features_[j]);
    CqEvaluator::Binding binding = evaluator.Bind(db);
    for (std::size_t i = 0; i < entities.size(); ++i) {
      std::optional<bool> selects =
          binding.TrySelectsEntity(entities[i], budget);
      if (!selects.has_value()) {
        // The budget outcome is sticky, so every remaining cell would be
        // interrupted too; stop here and leave them invalid.
        partial.outcome = OutcomeOf(budget);
        return partial;
      }
      partial.rows[i][j] = *selects ? 1 : -1;
      partial.valid[i][j] = 1;
    }
  }
  partial.outcome = OutcomeOf(budget);
  return partial;
}

std::size_t Statistic::TotalAtoms() const {
  std::size_t total = 0;
  for (const ConjunctiveQuery& q : features_) total += q.NumAtoms(true);
  return total;
}

std::string Statistic::ToString() const {
  std::ostringstream out;
  out << "Statistic[" << features_.size() << "](";
  for (std::size_t i = 0; i < features_.size(); ++i) {
    if (i > 0) out << "; ";
    out << features_[i].ToString();
  }
  out << ")";
  return out.str();
}

Labeling SeparatorModel::Apply(const Database& db) const {
  Labeling labeling;
  std::vector<Value> entities = db.Entities();
  std::vector<FeatureVector> matrix = statistic.Matrix(db);
  for (std::size_t i = 0; i < entities.size(); ++i) {
    labeling.Set(entities[i], classifier.Classify(matrix[i]));
  }
  return labeling;
}

std::size_t SeparatorModel::TrainingErrors(
    const TrainingDatabase& training) const {
  Labeling predicted = Apply(training.database());
  std::size_t errors = 0;
  for (Value e : training.Entities()) {
    if (predicted.Get(e) != training.label(e)) ++errors;
  }
  return errors;
}

SeparatorModel PruneZeroWeights(const Statistic& features,
                                const LinearClassifier& classifier) {
  std::vector<ConjunctiveQuery> used;
  std::vector<Rational> weights;
  const std::size_t carried =
      std::min(features.dimension(), classifier.weights().size());
  for (std::size_t i = 0; i < carried; ++i) {
    if (!classifier.weights()[i].is_zero()) {
      used.push_back(features.feature(i));
      weights.push_back(classifier.weights()[i]);
    }
  }
  return SeparatorModel{
      Statistic(std::move(used)),
      LinearClassifier(classifier.threshold(), std::move(weights))};
}

TrainingCollection MakeTrainingCollection(const Statistic& statistic,
                                          const TrainingDatabase& training) {
  TrainingCollection collection;
  std::vector<Value> entities = training.Entities();
  std::vector<FeatureVector> matrix = statistic.Matrix(training.database());
  for (std::size_t i = 0; i < entities.size(); ++i) {
    collection.emplace_back(std::move(matrix[i]),
                            training.label(entities[i]));
  }
  return collection;
}

}  // namespace featsep
