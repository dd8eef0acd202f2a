#ifndef FEATSEP_CQ_DECOMPOSED_EVALUATION_H_
#define FEATSEP_CQ_DECOMPOSED_EVALUATION_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "cq/cq.h"
#include "hypertree/decomposition.h"
#include "relational/database.h"

namespace featsep {

/// Decomposition-guided evaluation of unary CQs of bounded generalized
/// hypertree width — the polynomial-time GHW(k) evaluation the paper's
/// Section 5 relies on ([12]; "the evaluation problem for CQs in GHW(k)
/// can be solved in polynomial time").
///
/// Construction: compute a width-k tree decomposition of the query's
/// existential variables (Chen–Dalmau convention; the free variable x is
/// excluded) and a ≤k-atom cover per bag. Evaluation of q(e) then runs
/// Yannakakis-style: each node materializes the relation of bag
/// assignments consistent with its covering atoms and with every atom
/// whose existential variables fit in the bag (x bound to e), and a
/// bottom-up semijoin sweep decides satisfiability — O(|D|^k · |q|) per
/// entity instead of the backtracking engine's worst-case exponential.
///
/// Note: finding the decomposition is itself exponential in the query
/// (NP-hard for fixed k ≥ 2), but it is computed once per query and the
/// queries are small; evaluation over the (large) data is the polynomial
/// part — exactly the paper's regularization rationale.
class DecomposedEvaluator {
 public:
  /// Builds the evaluation plan. Returns nullopt if ghw(q) > max_width.
  /// The query must be unary.
  static std::optional<DecomposedEvaluator> Create(
      const ConjunctiveQuery& query, std::size_t max_width);

  /// True iff e ∈ q(D).
  bool SelectsEntity(const Database& db, Value entity) const;

  /// q(D) over the database's entities (or all of dom(D) when the query
  /// lacks an η(x) atom), in the candidate order.
  std::vector<Value> Evaluate(const Database& db) const;

  /// The decomposition's width actually used.
  std::size_t width() const { return width_; }

  const ConjunctiveQuery& query() const { return query_; }

 private:
  struct PlanNode {
    std::vector<Variable> bag;          // Existential variables, sorted.
    std::vector<std::size_t> cover;     // Atom indexes covering the bag.
    std::vector<std::size_t> assigned;  // Atom indexes checked at this node.
    std::vector<std::size_t> children;  // Indexes into plan_.
  };

  DecomposedEvaluator(ConjunctiveQuery query, std::size_t width)
      : query_(std::move(query)), width_(width) {}

  /// Materializes the node's relation over `bag` given x = entity;
  /// assignments are vectors aligned with the sorted bag.
  std::vector<std::vector<Value>> NodeRelation(const Database& db,
                                               Value entity,
                                               const PlanNode& node) const;

  /// Bottom-up satisfiability check of the plan tree rooted at `node`.
  bool Satisfiable(const Database& db, Value entity,
                   std::size_t node) const;

  ConjunctiveQuery query_;
  std::size_t width_;
  std::vector<PlanNode> plan_;
  std::size_t root_ = 0;
  /// Atoms whose variables are all free (⊆ {x}): checked directly.
  std::vector<std::size_t> ground_atoms_;
  bool has_entity_atom_ = false;
};

}  // namespace featsep

#endif  // FEATSEP_CQ_DECOMPOSED_EVALUATION_H_
