#ifndef FEATSEP_QBE_QBE_H_
#define FEATSEP_QBE_QBE_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "cq/cq.h"
#include "relational/database.h"
#include "util/budget.h"

namespace featsep {

namespace serve {
class EvalService;
}  // namespace serve

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
  /// Budget on the direct-product size; 0 = unbounded. CQ-QBE is
  /// coNEXPTIME-complete (Theorem 6.1) and the canonical product has
  /// |D|^{|S⁺|} facts, so real instances need this guard.
  std::size_t max_product_facts = 2000000;
  /// If true, SolveCqQbe minimizes the returned explanation to its core
  /// (exponential extra work, much smaller query).
  bool minimize_explanation = false;
  /// Worker threads fanning out the independent per-negative homomorphism
  /// checks (SolveCqQbe) and per-candidate evaluations (SolveCqmQbe):
  /// 0 = hardware concurrency, 1 = serial (the historical behavior).
  /// Results are identical for every setting.
  std::size_t num_threads = 0;
  /// Workers *inside* each per-negative homomorphism search of SolveCqQbe
  /// (HomOptions::num_threads): 1 = the classic sequential kernel (default),
  /// 0 = hardware concurrency. Useful when S⁻ is small but the product is
  /// hard. Both levels share the one process-wide pool (util/parallel.h),
  /// so nesting does not multiply threads. The decision is identical for
  /// every setting.
  std::size_t hom_threads = 1;
  /// When non-null, SolveCqmQbe screens candidates through the batched
  /// serve layer: each candidate's full answer set is computed once on the
  /// service's sharded pool and cached by (database digest, candidate), so
  /// repeated sweeps over the same database — e.g. QBE with an evolving
  /// example set — reuse prior evaluations instead of re-running the
  /// kernel. The returned explanation is identical (first in enumeration
  /// order); `num_threads` is ignored on this path (the service shards).
  serve::EvalService* service = nullptr;
  /// Cooperative budget threaded into every homomorphism search, cover
  /// game, and candidate screen; nullptr = unbounded. Interrupted runs
  /// report their outcome in QbeResult::outcome.
  ExecutionBudget* budget = nullptr;
  /// SolveCqmQbe resume point: screening starts at this candidate index,
  /// treating all earlier candidates as definitively rejected by a previous
  /// (interrupted) run — pass the prior result's `candidates_screened`.
  /// Resuming an interrupted sweep to completion yields the same answer as
  /// one uninterrupted run.
  std::size_t first_candidate = 0;
};

/// Result of a QBE solver call.
struct QbeResult {
  bool exists = false;
  /// Witness explanation when one was requested and exists (CQ solvers).
  std::optional<ConjunctiveQuery> explanation;
  /// Facts in the materialized canonical product (diagnostics; drives the
  /// Theorem 6.7 blowup measurements).
  std::size_t product_facts = 0;
  /// kCompleted: `exists`/`explanation` are definitive. When interrupted, a
  /// *negative* answer backed by a verified witness (a homomorphism or a
  /// Duplicator win onto some b ∈ S⁻) is still sound, as is a returned
  /// explanation that screened clean; `exists == false` with no such
  /// witness is UNDECIDED.
  BudgetOutcome outcome = BudgetOutcome::kCompleted;
  /// SolveCqmQbe only: length of the definitively-rejected candidate
  /// prefix (in enumeration order, counting from 0 and including any
  /// `first_candidate` head start). Feed back as
  /// QbeOptions::first_candidate to resume an interrupted sweep.
  std::size_t candidates_screened = 0;
};

/// CQ-QBE via the product homomorphism method (ten Cate–Dalmau): the
/// canonical explanation is the direct product P = ∏_{e∈S⁺}(D, e); an
/// explanation exists iff (P, ē) ↛ (D, b) for every b ∈ S⁻. If an
/// explanation exists, `explanation` carries the canonical product query.
/// CHECK-fails if the product exceeds the budget.
QbeResult SolveCqQbe(const QbeInstance& instance,
                     const QbeOptions& options = {});

/// GHW(k)-QBE: an explanation of generalized hypertree width ≤ k exists iff
/// (P, ē) ↛_k (D, b) for every b ∈ S⁻ (Proposition 5.2 plus closure of
/// GHW(k) under conjunction) — decided with the existential cover game on
/// the product, EXPTIME overall (Theorem 6.1). No explanation query is
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
