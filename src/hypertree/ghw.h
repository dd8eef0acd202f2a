#ifndef FEATSEP_HYPERTREE_GHW_H_
#define FEATSEP_HYPERTREE_GHW_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "cq/cq.h"
#include "hypertree/decomposition.h"
#include "hypertree/hypergraph.h"
#include "util/budget.h"

namespace featsep {

/// Outcome of a budgeted ghw decision.
struct GhwDecision {
  /// kCompleted: `decomposition` is definitive (nullopt = ghw > k).
  /// Otherwise the search was interrupted and the question is UNDECIDED.
  BudgetOutcome outcome = BudgetOutcome::kCompleted;
  std::optional<TreeDecomposition> decomposition;
};

/// Budgeted variant of DecideGhwAtMost: `budget` (nullptr = unbounded) is
/// charged per enumerated bag candidate and per bag tried in the
/// subproblem search, and an interrupted search reports the budget outcome
/// instead of an answer.
GhwDecision TryDecideGhwAtMost(const Hypergraph& graph, std::size_t k,
                               ExecutionBudget* budget);

/// Decides whether ghw(graph) ≤ k and, if so, returns a witness tree
/// decomposition of width ≤ k (validated by ValidateDecomposition).
///
/// Algorithm: detkdecomp-style recursive decomposition over edge components
/// with memoization on (component, connector) pairs. Completeness for
/// *generalized* hypertree width is obtained by drawing bags from the full
/// family of subsets of unions of ≤ k edges (the subedge-closure that plain
/// det-k-decomp lacks), which keeps the procedure exact at exponential
/// worst-case cost — appropriate for query-sized hypergraphs. The candidate
/// bag family is capped at 2,000,000 bags, beyond which the procedure
/// CHECK-fails (deciding ghw ≤ k is NP-hard for fixed k ≥ 2 — Gottlob et
/// al. — so blowup on large inputs is inherent; the cap makes it loud).
std::optional<TreeDecomposition> DecideGhwAtMost(const Hypergraph& graph,
                                                 std::size_t k);

/// The exact generalized hypertree width: the least k with ghw(graph) ≤ k
/// (0 for hypergraphs with no nonempty edge).
std::size_t Ghw(const Hypergraph& graph);

/// Builds the hypergraph of a CQ per the paper's Section 5 definition:
/// vertices are the existentially quantified variables, edges are the atom
/// variable sets restricted to those. If `vertex_to_variable` is non-null it
/// receives, for each hypergraph vertex, the corresponding query variable.
Hypergraph QueryHypergraph(const ConjunctiveQuery& query,
                           std::vector<Variable>* vertex_to_variable = nullptr);

/// ghw of a CQ.
std::size_t QueryGhw(const ConjunctiveQuery& query);

/// True iff the CQ belongs to GHW(k).
bool IsInGhw(const ConjunctiveQuery& query, std::size_t k);

}  // namespace featsep

#endif  // FEATSEP_HYPERTREE_GHW_H_
