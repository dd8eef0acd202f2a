#ifndef FEATSEP_CORE_DIMENSION_COLLAPSE_H_
#define FEATSEP_CORE_DIMENSION_COLLAPSE_H_

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "relational/database.h"

namespace featsep {

/// A family of entity subsets of one database, each sorted ascending.
using EntitySetFamily = std::vector<std::vector<Value>>;

/// The CQ-definable entity sets of D: { q(D) : q a unary feature CQ }.
///
/// On a finite database these are computable exactly: every q(D) is an
/// up-set of the hom preorder e ⊑ e' ⟺ (D,e) → (D,e'), and
/// q(D) = q_S(D) for S = q(D) where q_S is the canonical product query of
/// the pointed databases {(D,s) : s ∈ S}. So the nonempty definable sets
/// are exactly { up-closure of ∏_{s∈S}(D,s) : ∅ ≠ S ⊆ η(D) }. The empty
/// set is definable iff some CQ evaluates to ∅ on D; this is detected via
/// unsatisfiable atom patterns (all-equal tuples per relation), which
/// covers the workloads here — see the .cc for the caveat.
///
/// Exponential in |η(D)| (2^n products, each folded two factors at a time
/// and cored after each step, FoldCoredProduct): intended for the small
/// witness databases of Section 8. CHECK-fails beyond `max_product_facts`
/// per fold step.
EntitySetFamily CqDefinableEntitySets(const Database& db,
                                      std::size_t max_product_facts = 500000);

/// The FO-definable entity sets of D: all unions of automorphism orbits of
/// entities (every FO output is orbit-closed; every orbit is FO-definable
/// on a finite structure). Exponential in the orbit count; CHECK-fails
/// beyond 16 orbits.
EntitySetFamily FoDefinableEntitySets(const Database& db);

/// The Theorem 8.4 condition, instantiated on one database: is
/// X := family ∪ { η(D) \ S : S ∈ family } closed under intersection?
/// Returns nullopt when closed; otherwise a witness pair (A, B) from X
/// with A ∩ B ∉ X. A language whose definable-set family fails this on
/// some database cannot have the dimension-collapse property.
std::optional<std::pair<std::vector<Value>, std::vector<Value>>>
FindIntersectionClosureViolation(const EntitySetFamily& family,
                                 const std::vector<Value>& entities);

/// Proposition 8.6 helper: true iff the family is *linear* (totally
/// ordered by inclusion). A language realizing arbitrarily long linear
/// definable-set chains has the unbounded-dimension property.
bool IsLinearFamily(const EntitySetFamily& family);

}  // namespace featsep

#endif  // FEATSEP_CORE_DIMENSION_COLLAPSE_H_
