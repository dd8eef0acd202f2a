#ifndef FEATSEP_CORE_GHW_SEPARABILITY_H_
#define FEATSEP_CORE_GHW_SEPARABILITY_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "linsep/linear_classifier.h"
#include "relational/database.h"
#include "relational/training_database.h"

namespace featsep {

/// The →_k structure over the entities of a database (paper, Section 5):
/// the preorder e ≤ e' iff (D, e) →_k (D, e') — equivalently, every
/// GHW(k) feature query selecting e also selects e' (Prop 5.2) — with its
/// equivalence classes and a topological sort.
struct GhwEntityStructure {
  std::vector<Value> entities;          ///< η(D) in database order.
  std::vector<std::vector<bool>> leq;   ///< leq[i][j] = (entities[i] ≤ entities[j]).
  std::vector<std::size_t> class_of;    ///< Entity index -> class id.
  std::vector<std::vector<std::size_t>> classes;  ///< Class -> entity idxs.
  /// Class ids in a topological order of the induced partial order: if
  /// class A ≤ class B then A appears before B.
  std::vector<std::size_t> topo_order;

  std::size_t num_classes() const { return classes.size(); }
};

/// Computes the →_k structure. Polynomial for fixed k (Prop 5.1), with one
/// shared cover-game solver across all entity pairs.
GhwEntityStructure ComputeGhwStructure(const Database& db, std::size_t k);

/// Result of GHW(k)-SEP.
struct GhwSepResult {
  bool separable = false;
  /// When inseparable: two differently-labeled, →_k-equivalent entities
  /// (the failure witness of the GHW(k)-separability test, Prop 5.5).
  std::optional<std::pair<Value, Value>> conflict;
};

/// Decides GHW(k)-SEP in polynomial time (Theorem 5.3): accepts iff no
/// →_k-equivalence class mixes labels.
GhwSepResult DecideGhwSep(const TrainingDatabase& training, std::size_t k);

/// Algorithm 1 (paper, Section 5.3): classification by an *implicit*
/// statistic Π = (q_{e₁}, …, q_{e_m}) over the topologically sorted class
/// representatives — the feature queries may be exponentially large
/// (Theorem 5.7) and are never materialized; every indicator
/// 1_{q_{e_i}(D')}(f) is evaluated as the game test (D, e_i) →_k (D', f).
class GhwClassifier {
 public:
  /// Trains on a GHW(k)-separable training database; returns nullopt when
  /// the input is not GHW(k)-separable. Keeps a shared reference to the
  /// training database (needed at classification time).
  static std::optional<GhwClassifier> Train(
      std::shared_ptr<const TrainingDatabase> training, std::size_t k);

  /// Labels every entity of the evaluation database so that some (Π, Λ)
  /// GHW(k)-separates both the training data and the produced labeling
  /// (the L-CLS guarantee, Theorem 5.8).
  Labeling Classify(const Database& eval) const;

  /// Dimension m of the implicit statistic (= number of →_k classes).
  std::size_t dimension() const { return representatives_.size(); }

  /// The class representatives e₁, …, e_m in topological order.
  const std::vector<Value>& representatives() const {
    return representatives_;
  }

  const LinearClassifier& classifier() const { return classifier_; }

  std::size_t k() const { return k_; }

 private:
  // GhwApxClassify trains on the structure its relabeling already computed.
  friend std::optional<Labeling> GhwApxClassify(
      std::shared_ptr<const TrainingDatabase> training, std::size_t k,
      double epsilon, const Database& eval);

  /// Train on `structure`, which must be the →_k structure of
  /// training->database().
  static std::optional<GhwClassifier> TrainOnStructure(
      std::shared_ptr<const TrainingDatabase> training, std::size_t k,
      const GhwEntityStructure& structure);

  GhwClassifier(std::shared_ptr<const TrainingDatabase> training,
                std::size_t k, std::vector<Value> representatives,
                LinearClassifier classifier)
      : training_(std::move(training)),
        k_(k),
        representatives_(std::move(representatives)),
        classifier_(std::move(classifier)) {}

  std::shared_ptr<const TrainingDatabase> training_;
  std::size_t k_;
  std::vector<Value> representatives_;
  LinearClassifier classifier_;
};

/// Result of the Algorithm 2 relabeling (Theorem 7.4).
struct GhwRelabelResult {
  Labeling relabeled;          ///< λ': majority label per →_k class.
  std::size_t disagreement;    ///< |{e : λ(e) ≠ λ'(e)}| — provably minimal.
};

/// Algorithm 2 (paper, Section 7.2): computes the GHW(k)-separable
/// labeling λ' minimizing disagreement with λ, in polynomial time.
GhwRelabelResult GhwOptimalRelabel(const TrainingDatabase& training,
                                   std::size_t k);

/// GHW(k)-ApxSep (Corollary 7.5): is (D, λ) GHW(k)-separable with error ε?
bool DecideGhwApxSep(const TrainingDatabase& training, std::size_t k,
                     double epsilon);

/// GHW(k)-ApxCls (Corollary 7.5): relabels optimally, then classifies the
/// evaluation database per Algorithm 1. Returns nullopt if (D, λ) is not
/// GHW(k)-separable with error ε.
std::optional<Labeling> GhwApxClassify(
    std::shared_ptr<const TrainingDatabase> training, std::size_t k,
    double epsilon, const Database& eval);

}  // namespace featsep

#endif  // FEATSEP_CORE_GHW_SEPARABILITY_H_
