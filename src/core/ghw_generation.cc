#include "core/ghw_generation.h"

#include <deque>
#include <utility>

#include "core/ghw_separability.h"
#include "cq/core.h"
#include "cq/evaluation.h"
#include "linsep/separability_lp.h"
#include "util/check.h"

namespace featsep {

namespace {

/// Cap on the atom count of a single unraveling (CHECK beyond).
constexpr std::size_t kMaxUnravelAtoms = 2000000;

}  // namespace

ConjunctiveQuery UnravelingQuery(const Database& db, Value e, std::size_t d) {
  FEATSEP_CHECK(db.InDomain(e) || db.IsEntity(e));
  ConjunctiveQuery q(db.schema_ptr());
  Variable root = q.NewVariable("x");
  q.AddFreeVariable(root);

  struct Node {
    Value value;
    Variable var;
    FactIndex incoming;  // Fact we arrived through; kNoIncoming at root.
    std::size_t depth;
  };
  constexpr FactIndex kNoIncoming = static_cast<FactIndex>(-1);

  std::deque<Node> frontier;
  frontier.push_back({e, root, kNoIncoming, 0});
  std::size_t atoms = 0;
  while (!frontier.empty()) {
    Node node = frontier.front();
    frontier.pop_front();
    if (node.depth >= d) continue;
    for (FactIndex fi : db.FactsContaining(node.value)) {
      if (fi == node.incoming) continue;
      const Fact& fact = db.fact(fi);
      // One copy per anchor position where our value occurs.
      for (std::size_t anchor = 0; anchor < fact.args.size(); ++anchor) {
        if (fact.args[anchor] != node.value) continue;
        std::vector<Variable> args(fact.args.size());
        for (std::size_t pos = 0; pos < fact.args.size(); ++pos) {
          if (pos == anchor) {
            args[pos] = node.var;
          } else {
            Variable fresh = q.NewVariable();
            args[pos] = fresh;
            frontier.push_back(
                {fact.args[pos], fresh, fi, node.depth + 1});
          }
        }
        q.AddAtom(fact.relation, std::move(args));
        FEATSEP_CHECK_LT(++atoms, kMaxUnravelAtoms)
            << "unraveling exceeded " << kMaxUnravelAtoms << " atoms at depth "
            << d;
      }
    }
  }
  return q;
}

std::optional<ConjunctiveQuery> FindDistinguishingAcyclicQuery(
    const Database& db, Value e, Value e_prime,
    const GhwGenerationOptions& options) {
  for (std::size_t d = 0; d <= options.max_unravel_depth; ++d) {
    ConjunctiveQuery q = UnravelingQuery(db, e, d);
    CqEvaluator evaluator(q);
    // Unravelings always select their base point; verify as an invariant.
    FEATSEP_CHECK(evaluator.SelectsEntity(db, e))
        << "unraveling fails to select its base point";
    if (!evaluator.SelectsEntity(db, e_prime)) {
      ConjunctiveQuery minimized = MinimizeCq(q);
      CqEvaluator check(minimized);
      FEATSEP_CHECK(check.SelectsEntity(db, e));
      FEATSEP_CHECK(!check.SelectsEntity(db, e_prime));
      return minimized;
    }
  }
  return std::nullopt;
}

ConjunctiveQuery ConjoinUnary(const std::vector<ConjunctiveQuery>& queries) {
  FEATSEP_CHECK(!queries.empty());
  ConjunctiveQuery result(queries[0].schema_ptr());
  Variable x = result.NewVariable("x");
  result.AddFreeVariable(x);
  for (const ConjunctiveQuery& q : queries) {
    FEATSEP_CHECK(q.IsUnary());
    FEATSEP_CHECK(q.schema() == result.schema());
    std::vector<Variable> rename(q.num_variables(),
                                 static_cast<Variable>(kNoValue));
    rename[q.free_variable()] = x;
    for (const CqAtom& atom : q.atoms()) {
      std::vector<Variable> args;
      args.reserve(atom.args.size());
      for (Variable v : atom.args) {
        if (rename[v] == static_cast<Variable>(kNoValue)) {
          rename[v] = result.NewVariable();
        }
        args.push_back(rename[v]);
      }
      result.AddAtom(atom.relation, std::move(args));
    }
  }
  return result;
}

std::optional<Statistic> GenerateGhw1Statistic(
    const TrainingDatabase& training, const GhwGenerationOptions& options) {
  const Database& db = training.database();
  GhwEntityStructure structure = ComputeGhwStructure(db, 1);

  // Separability precondition (Prop 5.5).
  for (const std::vector<std::size_t>& cls : structure.classes) {
    for (std::size_t i = 1; i < cls.size(); ++i) {
      if (training.label(structure.entities[cls[0]]) !=
          training.label(structure.entities[cls[i]])) {
        return std::nullopt;
      }
    }
  }

  // One feature per class representative, in topological order (Lemma 5.4):
  // q_e := ∧_{e'} q_e^{e'} where q_e^{e'} distinguishes e from e' when
  // possible and is η(x) otherwise.
  std::vector<ConjunctiveQuery> features;
  for (std::size_t cls : structure.topo_order) {
    Value e = structure.entities[structure.classes[cls][0]];
    std::vector<ConjunctiveQuery> conjuncts;
    conjuncts.push_back(ConjunctiveQuery::MakeFeatureQuery(db.schema_ptr()));
    for (std::size_t other : structure.topo_order) {
      if (other == cls) continue;
      Value e_prime = structure.entities[structure.classes[other][0]];
      std::size_t e_idx = structure.classes[cls][0];
      std::size_t other_idx = structure.classes[other][0];
      if (structure.leq[e_idx][other_idx]) continue;  // Indistinguishable.
      std::optional<ConjunctiveQuery> q =
          FindDistinguishingAcyclicQuery(db, e, e_prime, options);
      if (!q.has_value()) return std::nullopt;  // Budget exceeded.
      conjuncts.push_back(std::move(*q));
    }
    features.push_back(ConjoinUnary(conjuncts));
  }

  Statistic statistic(std::move(features));
  // Sanity: the generated statistic must separate the training data.
  TrainingCollection collection =
      MakeTrainingCollection(statistic, training);
  FEATSEP_CHECK(IsLinearlySeparable(collection))
      << "generated GHW(1) statistic fails to separate (Lemma 5.4 broken)";
  return statistic;
}

}  // namespace featsep
