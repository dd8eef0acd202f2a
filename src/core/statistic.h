#ifndef FEATSEP_CORE_STATISTIC_H_
#define FEATSEP_CORE_STATISTIC_H_

#include <cstddef>
#include <string>
#include <vector>

#include "cq/cq.h"
#include "linsep/linear_classifier.h"
#include "linsep/separability_lp.h"
#include "relational/database.h"
#include "relational/training_database.h"
#include "util/budget.h"

namespace featsep {

namespace serve {
class EvalService;
}  // namespace serve

/// A feature matrix whose computation may have been interrupted by an
/// ExecutionBudget: the shape is always complete, but only cells whose
/// validity bit is set carry definitive answers.
struct PartialMatrix {
  /// kCompleted iff the computation ran to the end; then every cell is
  /// valid and `rows` equals Statistic::Matrix bit for bit.
  BudgetOutcome outcome = BudgetOutcome::kCompleted;
  /// Entity-major rows (db.Entities() order), dimension() columns. Invalid
  /// cells hold the placeholder -1 and must not be read as answers.
  std::vector<FeatureVector> rows;
  /// valid[i][j] != 0 iff rows[i][j] is the definitive Π^D(eᵢ)[j].
  std::vector<std::vector<char>> valid;

  bool complete() const { return outcome == BudgetOutcome::kCompleted; }
};

/// A statistic Π = (q₁, …, qₙ): a sequence of feature queries mapping each
/// entity e of a database D to the vector Π^D(e) ∈ {1, -1}ⁿ of feature
/// indicators (paper, Section 3).
///
/// Vector and Matrix evaluate serially in the calling thread, feature by
/// feature. TryMatrix optionally takes a serve::EvalService — the batched,
/// caching, sharded evaluation path (DESIGN.md §8) — and produces
/// bit-identical results through its cache and the shared pool.
class Statistic {
 public:
  Statistic() = default;
  explicit Statistic(std::vector<ConjunctiveQuery> features);

  std::size_t dimension() const { return features_.size(); }
  const std::vector<ConjunctiveQuery>& features() const { return features_; }
  const ConjunctiveQuery& feature(std::size_t i) const;

  /// Π^D(e) for one entity.
  FeatureVector Vector(const Database& db, Value entity) const;

  /// Π^D(e) for all entities of D, in the order of db.Entities().
  std::vector<FeatureVector> Matrix(const Database& db) const;

  /// Budgeted Matrix: `budget` (nullptr = unbounded) is threaded into every
  /// per-cell homomorphism search and an interrupted computation returns the
  /// best-so-far partial matrix instead of blocking until done. Validity
  /// granularity is per cell on the serial path and per feature column on
  /// the serve path (the service's cached answer sets are all-or-nothing).
  /// A completed call returns exactly Matrix()'s values, all valid.
  PartialMatrix TryMatrix(const Database& db, ExecutionBudget* budget,
                          serve::EvalService* service = nullptr) const;

  /// Total number of atoms across the feature queries (size measure used by
  /// the Theorem 5.7 / 6.7 blowup experiments).
  std::size_t TotalAtoms() const;

  std::string ToString() const;

 private:
  std::vector<ConjunctiveQuery> features_;
};

/// A trained separator: a statistic plus a linear classifier, applicable to
/// any database over the same schema.
struct SeparatorModel {
  Statistic statistic;
  LinearClassifier classifier;

  /// Labels every entity of `db` by Λ(Π^D(e)) — the classification task
  /// (paper, Section 5.3 / L-CLS).
  Labeling Apply(const Database& db) const;

  /// Number of entities of the training database the model mislabels.
  std::size_t TrainingErrors(const TrainingDatabase& training) const;
};

/// The model `classifier` induces over `features`, pruned to the features
/// with a nonzero weight. A weight the classifier does not carry reads as
/// zero: on a training database with no entities the LP solvers return a
/// classifier with no weights, and the pruned model is empty.
SeparatorModel PruneZeroWeights(const Statistic& features,
                                const LinearClassifier& classifier);

/// The training collection (Π^D(e), λ(e)) for all entities of the training
/// database, in the order of Entities().
TrainingCollection MakeTrainingCollection(const Statistic& statistic,
                                          const TrainingDatabase& training);

}  // namespace featsep

#endif  // FEATSEP_CORE_STATISTIC_H_
