#ifndef FEATSEP_CQ_ENUMERATION_H_
#define FEATSEP_CQ_ENUMERATION_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "cq/cq.h"
#include "relational/schema.h"

namespace featsep {

/// Options for feature enumeration.
struct EnumerationOptions {
  /// Maximum number of occurrences of any variable (the paper's p in
  /// CQ[m,p]); 0 means unrestricted.
  std::size_t max_variable_occurrences = 0;
  /// If true, every free-variable-disconnected query is kept (such features
  /// express Boolean conditions about D and are legitimate CQ[m] features).
  bool include_disconnected = true;
};

/// Enumerates the feature queries of CQ[m] over an entity schema: all unary
/// CQs q(x) containing the atom η(x) plus at most `m` further atoms over the
/// schema's relations, up to renaming of variables (each equivalence class
/// of the renaming relation is produced at least once; syntactic duplicates
/// under a canonical variable order are removed). This realizes the
/// statistic Π of Proposition 4.1: (D, λ) is CQ[m]-separable iff it is
/// separable by the statistic consisting of all of these queries.
///
/// The count is bounded by r^m · 2^{p(k)} for r relations of maximal arity
/// k (Prop 4.1) — exponential in m·k, so keep m and the arity small; the
/// enumeration CHECK-fails beyond 5,000,000 queries.
std::vector<ConjunctiveQuery> EnumerateFeatureQueries(
    const std::shared_ptr<const Schema>& schema, std::size_t m,
    const EnumerationOptions& options = {});

/// Number of queries EnumerateFeatureQueries would return (same cost; it
/// enumerates and counts).
std::size_t CountFeatureQueries(const std::shared_ptr<const Schema>& schema,
                                std::size_t m,
                                const EnumerationOptions& options = {});

}  // namespace featsep

#endif  // FEATSEP_CQ_ENUMERATION_H_
