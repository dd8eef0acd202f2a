#ifndef FEATSEP_CQ_PRODUCT_H_
#define FEATSEP_CQ_PRODUCT_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "relational/database.h"
#include "util/budget.h"

namespace featsep {

/// The direct product of two pointed databases, the canonical object behind
/// query-by-example (ten Cate–Dalmau): a CQ q satisfies
/// (q, x̄) → (A × B, ā⊗b̄) iff (q, x̄) → (A, ā) and (q, x̄) → (B, b̄).
/// Values are pairs of factor values, named "a|b"; facts are the
/// positionwise products of same-relation facts.
struct ProductResult {
  Database db;
  /// The distinguished tuple ā⊗b̄ inside the product.
  std::vector<Value> tuple;
};

/// Computes (a, a_tuple) × (b, b_tuple). The factors must share one schema
/// and the tuples must have equal length. If `max_facts` is nonzero and the
/// product would exceed it, returns std::nullopt.
std::optional<ProductResult> DirectProduct(const Database& a,
                                           const std::vector<Value>& a_tuple,
                                           const Database& b,
                                           const std::vector<Value>& b_tuple,
                                           std::size_t max_facts = 0);

/// The core of ∏_{e∈points} (db, e) with its distinguished element, and the
/// facts of the largest product built on the way (|db| for one point).
struct CoredProduct {
  Database db;
  Value point = kNoValue;
  std::size_t largest_facts = 0;
};

/// Folds (db, e₁), (db, e₂), … two at a time, taking CoreOf (keeping the
/// distinguished element) after each product; one point gives
/// CoreOf(db, {e₁}). A × B is hom-equivalent to core(A) × B, so this is the
/// core of the n-ary product, while each product built is a core times |db|
/// instead of |db|ⁿ. CHECK-fails if a product exceeds `max_facts`
/// (nonzero). Returns std::nullopt iff `budget`, rechecked before the fold
/// and between its steps, ran out; CoreOf itself runs unbudgeted.
std::optional<CoredProduct> FoldCoredProduct(const Database& db,
                                             const std::vector<Value>& points,
                                             std::size_t max_facts,
                                             ExecutionBudget* budget = nullptr);

}  // namespace featsep

#endif  // FEATSEP_CQ_PRODUCT_H_
