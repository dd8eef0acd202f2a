#include "core/ghw_separability.h"

#include <algorithm>
#include <utility>

#include "covergame/cover_game.h"
#include "linsep/separability_lp.h"
#include "relational/database_ops.h"
#include "util/check.h"

namespace featsep {

GhwEntityStructure ComputeGhwStructure(const Database& db, std::size_t k) {
  GhwEntityStructure structure;
  structure.entities = db.Entities();
  structure.leq = CoverPreorder(db, structure.entities, k);
  std::size_t n = structure.entities.size();

  // Equivalence classes of (≤ ∩ ≥).
  structure.class_of.assign(n, static_cast<std::size_t>(-1));
  for (std::size_t i = 0; i < n; ++i) {
    if (structure.class_of[i] != static_cast<std::size_t>(-1)) continue;
    std::size_t cls = structure.classes.size();
    structure.classes.emplace_back();
    for (std::size_t j = i; j < n; ++j) {
      if (structure.class_of[j] == static_cast<std::size_t>(-1) &&
          structure.leq[i][j] && structure.leq[j][i]) {
        structure.class_of[j] = cls;
        structure.classes[cls].push_back(j);
      }
    }
  }

  // Topological sort of the class partial order (A before B if A ≤ B):
  // Kahn's algorithm over representative comparisons.
  std::size_t c = structure.classes.size();
  auto class_leq = [&](std::size_t a, std::size_t b) {
    return structure.leq[structure.classes[a][0]][structure.classes[b][0]];
  };
  std::vector<std::size_t> indegree(c, 0);
  for (std::size_t a = 0; a < c; ++a) {
    for (std::size_t b = 0; b < c; ++b) {
      if (a != b && class_leq(a, b)) ++indegree[b];
    }
  }
  std::vector<std::size_t> queue;
  for (std::size_t a = 0; a < c; ++a) {
    if (indegree[a] == 0) queue.push_back(a);
  }
  while (!queue.empty()) {
    std::size_t a = queue.back();
    queue.pop_back();
    structure.topo_order.push_back(a);
    for (std::size_t b = 0; b < c; ++b) {
      if (b != a && class_leq(a, b) && --indegree[b] == 0) {
        queue.push_back(b);
      }
    }
  }
  FEATSEP_CHECK_EQ(structure.topo_order.size(), c)
      << "cycle among distinct →_k classes (preorder reasoning broken)";
  return structure;
}

GhwSepResult DecideGhwSep(const TrainingDatabase& training, std::size_t k) {
  FEATSEP_CHECK(training.IsFullyLabeled());
  GhwEntityStructure structure =
      ComputeGhwStructure(training.database(), k);
  GhwSepResult result;
  for (const std::vector<std::size_t>& cls : structure.classes) {
    for (std::size_t i = 1; i < cls.size(); ++i) {
      Value first = structure.entities[cls[0]];
      Value other = structure.entities[cls[i]];
      if (training.label(first) != training.label(other)) {
        result.separable = false;
        result.conflict = std::make_pair(first, other);
        return result;
      }
    }
  }
  result.separable = true;
  return result;
}

std::optional<GhwClassifier> GhwClassifier::Train(
    std::shared_ptr<const TrainingDatabase> training, std::size_t k) {
  FEATSEP_CHECK(training != nullptr);
  GhwEntityStructure structure = ComputeGhwStructure(training->database(), k);
  return TrainOnStructure(std::move(training), k, structure);
}

std::optional<GhwClassifier> GhwClassifier::TrainOnStructure(
    std::shared_ptr<const TrainingDatabase> training, std::size_t k,
    const GhwEntityStructure& structure) {
  FEATSEP_CHECK(training->IsFullyLabeled());

  // Separability check (Prop 5.5) and per-class labels.
  for (const std::vector<std::size_t>& cls : structure.classes) {
    for (std::size_t i = 1; i < cls.size(); ++i) {
      if (training->label(structure.entities[cls[0]]) !=
          training->label(structure.entities[cls[i]])) {
        return std::nullopt;
      }
    }
  }

  // Representatives e₁..e_m in topological order; the implicit feature
  // q_{e_i} selects e iff (D, e_i) →_k (D, e), i.e., iff e_i ≤ e.
  std::vector<Value> representatives;
  std::vector<std::size_t> rep_index;  // Entity index of each representative.
  for (std::size_t cls : structure.topo_order) {
    rep_index.push_back(structure.classes[cls][0]);
    representatives.push_back(structure.entities[structure.classes[cls][0]]);
  }

  // Training vectors from the preorder; one distinct vector per class with
  // the triangular pattern of Lemma 5.4, hence separable by Lemma 5.4.
  TrainingCollection collection;
  for (std::size_t i = 0; i < structure.entities.size(); ++i) {
    FeatureVector vector;
    vector.reserve(representatives.size());
    for (std::size_t j : rep_index) {
      vector.push_back(structure.leq[j][i] ? 1 : -1);
    }
    collection.emplace_back(std::move(vector),
                            training->label(structure.entities[i]));
  }
  std::optional<LinearClassifier> classifier = FindSeparator(collection);
  FEATSEP_CHECK(classifier.has_value())
      << "Lemma 5.4 violated: class-consistent labeling not separable";

  return GhwClassifier(std::move(training), k, std::move(representatives),
                       std::move(*classifier));
}

Labeling GhwClassifier::Classify(const Database& eval) const {
  const Database& train_db = training_->database();
  FEATSEP_CHECK(train_db.schema() == eval.schema())
      << "evaluation database schema differs from the training schema";
  CoverGameSolver solver(train_db, eval, k_);

  Labeling labeling;
  for (Value f : eval.Entities()) {
    FeatureVector vector;
    vector.reserve(representatives_.size());
    for (Value rep : representatives_) {
      // 1_{q_{e_i}(D')}(f) = [(D, e_i) →_k (D', f)]  (Algorithm 1, line 4).
      vector.push_back(solver.Decide({rep}, {f}) ? 1 : -1);
    }
    labeling.Set(f, classifier_.Classify(vector));
  }
  return labeling;
}

namespace {

/// Algorithm 2's relabeling read off a computed →_k structure.
GhwRelabelResult RelabelByClassMajority(const TrainingDatabase& training,
                                        const GhwEntityStructure& structure) {
  GhwRelabelResult result;
  result.disagreement = 0;
  for (const std::vector<std::size_t>& cls : structure.classes) {
    // Majority label of the class (ties go positive: Σλ ≥ 0, Algorithm 2).
    long long sum = 0;
    for (std::size_t i : cls) {
      sum += training.label(structure.entities[i]);
    }
    Label majority = sum >= 0 ? kPositive : kNegative;
    for (std::size_t i : cls) {
      Value e = structure.entities[i];
      result.relabeled.Set(e, majority);
      if (training.label(e) != majority) ++result.disagreement;
    }
  }
  return result;
}

/// Algorithm 2's test: the optimal relabeling changes at most ε·|entities|
/// labels.
bool WithinErrorBudget(const GhwRelabelResult& relabel,
                       const TrainingDatabase& training, double epsilon) {
  FEATSEP_CHECK_GE(epsilon, 0.0);
  FEATSEP_CHECK_LT(epsilon, 1.0);
  double budget =
      epsilon * static_cast<double>(training.Entities().size());
  return static_cast<double>(relabel.disagreement) <= budget;
}

}  // namespace

GhwRelabelResult GhwOptimalRelabel(const TrainingDatabase& training,
                                   std::size_t k) {
  FEATSEP_CHECK(training.IsFullyLabeled());
  return RelabelByClassMajority(training,
                                ComputeGhwStructure(training.database(), k));
}

bool DecideGhwApxSep(const TrainingDatabase& training, std::size_t k,
                     double epsilon) {
  return WithinErrorBudget(GhwOptimalRelabel(training, k), training, epsilon);
}

std::optional<Labeling> GhwApxClassify(
    std::shared_ptr<const TrainingDatabase> training, std::size_t k,
    double epsilon, const Database& eval) {
  FEATSEP_CHECK(training != nullptr);
  FEATSEP_CHECK(training->IsFullyLabeled());
  GhwEntityStructure structure = ComputeGhwStructure(training->database(), k);
  GhwRelabelResult relabel = RelabelByClassMajority(*training, structure);
  if (!WithinErrorBudget(relabel, *training, epsilon)) return std::nullopt;

  // Train on (D, λ'): λ' is GHW(k)-separable by construction (Thm 7.4).
  // Copy preserves value ids, so the labels and the →_k structure, which
  // does not depend on labels, transfer directly.
  auto relabeled = std::make_shared<TrainingDatabase>(
      std::make_shared<Database>(Copy(training->database())));
  for (Value e : training->Entities()) {
    relabeled->SetLabel(e, relabel.relabeled.Get(e));
  }
  std::optional<GhwClassifier> classifier =
      GhwClassifier::TrainOnStructure(relabeled, k, structure);
  FEATSEP_CHECK(classifier.has_value());
  return classifier->Classify(eval);
}

}  // namespace featsep
