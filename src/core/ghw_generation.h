#ifndef FEATSEP_CORE_GHW_GENERATION_H_
#define FEATSEP_CORE_GHW_GENERATION_H_

#include <cstddef>
#include <optional>

#include "core/statistic.h"
#include "cq/cq.h"
#include "relational/database.h"
#include "relational/training_database.h"

namespace featsep {

/// Options for the exponential-time GHW(k) feature generation (Prop 5.6).
struct GhwGenerationOptions {
  /// Depth budget for the tree-unraveling search (the per-pair
  /// distinguishing queries grow with this depth; Theorem 5.7 shows they
  /// must be allowed to grow exponentially).
  std::size_t max_unravel_depth = 64;
};

/// Searches for a GHW(1) (acyclic) feature query q with e ∈ q(D) and
/// e' ∉ q(D), via depth-increasing tree unravelings of (D, e). Soundness is
/// unconditional: any returned query is verified to select e and exclude
/// e'. Completeness holds up to the depth budget — by Prop 5.2 a
/// distinguishing acyclic query exists iff NOT (D, e) →₁ (D, e'), and the
/// unravelings of (D, e) are universal among the acyclic queries selecting
/// e, so deep enough unravelings find it (exponentially deep in |D| in the
/// worst case; this is the Prop 5.6 exponential cost made explicit).
/// The returned query is core-minimized (exponential, but it drastically
/// shrinks the output). Returns nullopt if no distinguishing query exists
/// within the budget.
std::optional<ConjunctiveQuery> FindDistinguishingAcyclicQuery(
    const Database& db, Value e, Value e_prime,
    const GhwGenerationOptions& options = {});

/// The depth-d tree unraveling of (D, e) as a unary feature query: the
/// universal acyclic query of radius d selecting e. The unraveling is
/// non-backtracking (it never leaves a node through the fact it arrived
/// by), which keeps the queries smaller and is still complete for the
/// workloads in this repository — see DESIGN.md §3 notes. CHECK-fails
/// beyond 2,000,000 atoms.
ConjunctiveQuery UnravelingQuery(const Database& db, Value e, std::size_t d);

/// Materializes a GHW(1)-separating statistic for a GHW(1)-separable
/// training database, following Lemma 5.4: one feature q_e per
/// →₁-equivalence class, each the conjunction of pairwise distinguishing
/// queries. Exponential time and output size (Prop 5.6 / Theorem 5.7).
/// Returns nullopt if the training database is not GHW(1)-separable or a
/// distinguishing query exceeds the budget.
std::optional<Statistic> GenerateGhw1Statistic(
    const TrainingDatabase& training,
    const GhwGenerationOptions& options = {});

/// Conjunction of unary feature queries: glues the free variables together
/// and unions the atom sets (GHW(k) is closed under this operation —
/// Lemma 5.4).
ConjunctiveQuery ConjoinUnary(const std::vector<ConjunctiveQuery>& queries);

}  // namespace featsep

#endif  // FEATSEP_CORE_GHW_GENERATION_H_
