#ifndef FEATSEP_QBE_QBE_H_
#define FEATSEP_QBE_QBE_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "cq/cq.h"
#include "relational/database.h"
#include "util/budget.h"

namespace featsep {

/// A query-by-example instance (paper, Section 6.1): a database together
/// with unary positive and negative example sets. An L-explanation is a
/// unary query q ∈ L with S⁺ ⊆ q(D) and q(D) ∩ S⁻ = ∅.
struct QbeInstance {
  const Database* db = nullptr;
  std::vector<Value> positives;  ///< S⁺ (must be nonempty).
  std::vector<Value> negatives;  ///< S⁻.
};

/// Options controlling the product-based solvers.
struct QbeOptions {
  /// Bound on each product the positive fold builds (FoldCoredProduct: the
  /// core so far times D); 0 = unbounded, exceeding it CHECK-fails. CQ-QBE
  /// is coNEXPTIME-complete (Theorem 6.1), so real instances need it.
  std::size_t max_product_facts = 2000000;
  /// Worker threads fanning out the independent per-negative homomorphism
  /// checks (SolveCqQbe) and per-candidate evaluations (SolveCqmQbe):
  /// 0 = hardware concurrency, 1 = serial (the historical behavior).
  /// Results are identical for every setting.
  std::size_t num_threads = 0;
  /// Cooperative budget rechecked between the positive fold's products and
  /// threaded into every homomorphism search, cover game, and candidate
  /// screen (the fold's CoreOf steps run unbudgeted); nullptr = unbounded.
  /// Interrupted runs report their outcome in QbeResult::outcome.
  ExecutionBudget* budget = nullptr;
};

/// Result of a QBE solver call.
struct QbeResult {
  bool exists = false;
  /// Witness explanation when one was requested and exists (CQ solvers).
  std::optional<ConjunctiveQuery> explanation;
  /// Facts in the largest product the positive fold built (|D| for one
  /// positive; 0 if the budget stopped the fold). Diagnostics.
  std::size_t product_facts = 0;
  /// kCompleted: `exists`/`explanation` are definitive. When interrupted, a
  /// *negative* answer backed by a verified witness (a homomorphism or a
  /// Duplicator win onto some b ∈ S⁻) is still sound, as is a returned
  /// explanation that screened clean; `exists == false` with no such
  /// witness is UNDECIDED.
  BudgetOutcome outcome = BudgetOutcome::kCompleted;
};

/// CQ-QBE via the product homomorphism method (ten Cate–Dalmau): the
/// canonical explanation is the direct product P = ∏_{e∈S⁺}(D, e); an
/// explanation exists iff (P, ē) ↛ (D, b) for every b ∈ S⁻. P is built as
/// its core, folding the positives two at a time (FoldCoredProduct), and if
/// an explanation exists, `explanation` carries the core's query, the
/// smallest CQ equivalent to P's. CHECK-fails if a fold step exceeds
/// `max_product_facts`.
QbeResult SolveCqQbe(const QbeInstance& instance,
                     const QbeOptions& options = {});

/// GHW(k)-QBE: an explanation of generalized hypertree width ≤ k exists iff
/// (P, ē) ↛_k (D, b) for every b ∈ S⁻ (Proposition 5.2 plus closure of
/// GHW(k) under conjunction) — decided with the existential cover game on
/// the core of P (hom-equivalent to P, so it wins the same games), EXPTIME
/// overall (Theorem 6.1). No explanation query is
/// materialized (they can be exponentially large; see Theorem 5.7).
QbeResult SolveGhwQbe(const QbeInstance& instance, std::size_t k,
                      const QbeOptions& options = {});

/// CQ[m]-QBE by enumeration of all feature queries with at most m atoms
/// (requires an entity schema whose η holds on all of S⁺ ∪ S⁻; the
/// enumerated features contain η(x) per the paper's convention).
/// NP-complete even for m = 1 in the input schema's size (Prop 6.11), so
/// the cost is driven by the schema. Returns the first explanation found
/// (in enumeration order, regardless of `options.num_threads`).
QbeResult SolveCqmQbe(const QbeInstance& instance, std::size_t m,
                      std::size_t max_variable_occurrences = 0,
                      const QbeOptions& options = {});

}  // namespace featsep

#endif  // FEATSEP_QBE_QBE_H_
