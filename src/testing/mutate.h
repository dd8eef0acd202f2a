#ifndef FEATSEP_TESTING_MUTATE_H_
#define FEATSEP_TESTING_MUTATE_H_

#include "testing/instance.h"
#include "workload/generators.h"

namespace featsep {
namespace testing {

/// Structure-aware mutation for the coverage-guided fuzzer: applies one to
/// three random edits to a copy of `instance`, picked from the generic
/// operators for the fields it carries plus its config row's `mutate_ops`
/// (FuzzConfigSpec) —
///   - databases: add/remove a fact, redirect one argument, merge two
///     constants, introduce a fresh constant;
///   - queries: add/remove an atom, merge two variables, deepen an
///     existential chain R(x, fresh), always keeping the query safe;
///   - schema: widen — append a fresh relation of arity max+1 (≤ 4) and a
///     first fact of it, rebuilding every database/query over the widened
///     schema (relation ids are append-stable);
///   - examples: flip labels, move values between S⁺/S⁻, grow/shrink the
///     frozen set;
///   - scalars: toggle k/m/ℓ, reseed traces, move the fault spec;
///   - LP/features: perturb coefficients and bounds by ±1, add/drop
///     rows/examples/columns, flip feature signs.
///
/// The result is sanitized (SanitizeFuzzInstance), so mutation chains can
/// never escape the reference-oracle budget. Deterministic in (instance,
/// rng state).
FuzzInstance MutateFuzzInstance(const FuzzInstance& instance,
                                WorkloadRng& rng);

}  // namespace testing
}  // namespace featsep

#endif  // FEATSEP_TESTING_MUTATE_H_
