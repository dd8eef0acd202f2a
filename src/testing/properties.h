#ifndef FEATSEP_TESTING_PROPERTIES_H_
#define FEATSEP_TESTING_PROPERTIES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cq/cq.h"
#include "linsep/separability_lp.h"
#include "linsep/simplex.h"
#include "relational/database.h"
#include "relational/training_database.h"
#include "testing/faults.h"

namespace featsep {
namespace testing {

/// Differential/metamorphic property drivers: each check runs the optimized
/// engines against the naive reference oracle (reference_hom.h) and/or a
/// metamorphic law implied by the paper's semantics, returning nullopt on
/// agreement or a violation describing the discrepancy. The fuzz loop
/// (fuzz.h) feeds them random instances and shrinks whatever they reject.

struct PropertyViolation {
  /// Which law failed, e.g. "hom-vs-reference/status".
  std::string property;
  /// Human-readable discrepancy description.
  std::string detail;
};

using PropertyCheck = std::optional<PropertyViolation>;

/// FindHomomorphism vs the reference oracle on (from, to, seed):
///   - decision agreement,
///   - witness validity when the kernel reports kFound,
///   - PreparedHomSearch agreement (status and node count) on the empty
///     seed and then, rewound, on `seed`.
PropertyCheck CheckHomAgainstReference(
    const Database& from, const Database& to,
    const std::vector<std::pair<Value, Value>>& seed = {});

/// Composition closure: whenever the kernel finds witnesses f : a → b and
/// g : b → c, the composite g∘f must be a valid homomorphism a → c, and the
/// kernel must also decide a → c positively.
PropertyCheck CheckHomComposition(const Database& a, const Database& b,
                                  const Database& c);

/// Unary-CQ evaluation: CqEvaluator vs the reference oracle, vs one fresh
/// FindHomomorphism of the full canonical database per dom(D) candidate
/// (the per-entity path the whole-answer-set evaluation replaced), and
/// (when a width-≤`max_width` plan exists) vs the decomposition-guided
/// evaluator.
PropertyCheck CheckEvaluationAgainstReference(const ConjunctiveQuery& query,
                                              const Database& db,
                                              std::size_t max_width = 2);

/// Containment: IsContainedIn vs the reference canonical-database
/// criterion in both directions, reflexivity, and semantic soundness on
/// data (q1 ⊆ q2 implies q1(D) ⊆ q2(D) under the reference evaluator).
PropertyCheck CheckContainmentAgainstReference(const ConjunctiveQuery& q1,
                                               const ConjunctiveQuery& q2,
                                               const Database& db);

/// CoreOf: the core's facts are a subset of the input's, the core is
/// hom-equivalent to the input (pointed at `frozen`, per the reference
/// oracle), and coring is idempotent.
PropertyCheck CheckCoreProperties(const Database& db,
                                  const std::vector<Value>& frozen);

/// GHW laws: the witness decomposition validates at the claimed width,
/// Ghw/IsInGhw agree (tight at g, false at g-1, monotone at g+1), and
/// removing an atom whose existential variables are covered by another
/// atom never increases the width.
PropertyCheck CheckGhwProperties(const ConjunctiveQuery& query);

/// DecideCqSep determinism and correctness: identical results (decision
/// and conflict pair) at 1, 2, and 8 threads, and agreement with the
/// reference pairwise hom-equivalence criterion of Theorem 3.2 — per pair
/// (TryHomEquivalent in both orientations), on the decision, and on the
/// conflict, which must be the first in positive-major order.
PropertyCheck CheckSepThreadDeterminism(const TrainingDatabase& training);

/// QBE laws on (db, S⁺, S⁻) with S⁺ nonempty entities of an entity
/// database:
///   - SolveCqQbe decides identically at 1, 2, and 8 threads;
///   - when an explanation exists it selects every positive and no
///     negative (kernel evaluator), and it is hom-equivalent (reference
///     containment, both ways) to the canonical query of the uncored left
///     fold of binary products ((D, e₁) × (D, e₂)) × …;
///   - SolveGhwQbe at k = 1 and 2 decides as the reference cover game
///     played from that uncored product;
///   - when none exists, dropping S⁻ makes one exist (the canonical
///     product query);
///   - SolveCqmQbe returns the identical decision and explanation at 1,
///     2, and 8 threads, the explanation screens
///     correctly under the *reference* evaluator, and CQ[m]-explainability
///     implies CQ-explainability.
PropertyCheck CheckQbeProperties(const Database& db,
                                 const std::vector<Value>& positives,
                                 const std::vector<Value>& negatives,
                                 std::size_t m);

/// Existential k-cover game laws on (from, to, k), over a bounded sample of
/// pebble pairs from dom(from) × dom(to):
///   - decide-twice idempotence and fresh-vs-shared-solver agreement;
///   - monotonicity: (from, ā) →_{k+1} (to, b̄) implies →_k (more GHW(k)
///     queries to satisfy at higher k);
///   - soundness: a full homomorphism extending ā → b̄ implies →_k for
///     every k (per the reference oracle);
///   - completeness at k = |from|: →_{|from|} coincides with pointed
///     homomorphism (checked only when |from| ≤ 3 — the position set is
///     exponential in k);
///   - CoverPreorder reflexivity, transitivity, and agreement with
///     per-pair CoverGameWins calls;
///   - at k = 1 and 2, every TryDecide answer for one- and two-pebble
///     tuples, and every CoverPreorder cell, equals the unoptimized
///     reference solver's (reference_covergame.h).
PropertyCheck CheckCoverGameProperties(const Database& from,
                                       const Database& to, std::size_t k);

/// Dimension-bounded separability laws (Lemma 6.3) on (training, ℓ) with
/// the CQ-QBE oracle:
///   - monotonicity: Sep[ℓ] implies Sep[ℓ+1];
///   - at ℓ_max = 2^{|η(D)|−1} (checked when |η(D)| ≤ 4), Sep[ℓ_max]
///     coincides with DecideCqSep (Theorem 3.2);
///   - a positive answer's witness is well-formed: at most ℓ feature
///     columns, each passing the QBE oracle, whose induced ±1 vectors
///     linearly separate the labeling per the Fourier–Motzkin reference.
PropertyCheck CheckSepDimProperties(const TrainingDatabase& training,
                                    std::size_t ell);

/// LP-layer differentials against the Fourier–Motzkin reference
/// (reference_lp.h):
///   - FindSeparator/IsLinearlySeparable agree with RefIsLinearlySeparable
///     on `examples`, and a returned classifier commits zero errors;
///   - presolve-vs-full: FindSeparator (which presolves to the distinct
///     rows and columns) agrees with SolveLp on the unreduced separability
///     LP over every example, both classifiers commit zero errors, the
///     presolved one has full arity, and a collection in which one vector
///     carries both labels is decided under a cancelled budget;
///   - SolveLp agrees with RefSolveLpValue on `lp` in status and (when
///     optimal) objective, and the returned point is feasible and attains
///     the objective.
PropertyCheck CheckLinsepProperties(
    const std::vector<std::pair<FeatureVector, Label>>& examples,
    const LpProblem& lp);

/// Fault-injection robustness laws on a labeled training database, with a
/// cancellation/timeout/bad-alloc fault armed at the `trigger_visit`-th
/// visit of FEATSEP_FAULT_POINT(`site`):
///   - a faulted DecideCqSep either completes with the bit-identical
///     uninterrupted answer (the fault never fired), reports the outcome
///     matching the injected kind with any conflict pair verified sound
///     (differently labeled and hom-equivalent), or — kBadAlloc only —
///     propagates std::bad_alloc;
///   - a disarmed rerun after the faulted call is bit-identical to the
///     uninterrupted baseline (interrupt-then-resume determinism);
///   - a faulted served DecideCqmSep never poisons the EvalService cache:
///     re-running through the same service, disarmed, matches the serial
///     truth, and no cache entry was added for an aborted evaluation;
///   - every cell an interrupted Statistic::TryMatrix marks valid equals
///     the uninterrupted Matrix truth;
///   - a budgeted CoverGameSolver at k = 1 over every ordered entity pair
///     reports !ok() with the injected outcome once interrupted, equals
///     the unbudgeted answer when it completes (never after a fired
///     non-cancel fault), and a disarmed rerun matches the unbudgeted
///     answers.
PropertyCheck CheckFaultInjectionProperties(const TrainingDatabase& training,
                                            CoverageSite site, FaultKind kind,
                                            std::uint64_t trigger_visit);

/// Async serve front-end laws on an entity database, against the serial
/// evaluation path as oracle. A seeded random interleaving of `num_ops`
/// Submit (mixed priorities and budgets: unbounded, tiny step limits,
/// already-expired deadlines) / Poll / Cancel / PauseDispatch /
/// ResumeDispatch operations runs against an AsyncEvalService with
/// seed-derived queue capacity, dispatcher count, and shard count; after a
/// full drain:
///   - every non-null answer of every terminal request is bit-identical to
///     the serial path (num_shards = 1, no cache), regardless of the
///     request's terminal state — interruption yields nothing or the truth;
///   - kCompleted requests answer every feature; kRejected requests answer
///     none and carry dispatch sequence 0;
///   - per-class stats balance: submitted = accepted + rejected and
///     accepted = completed + expired + cancelled, each matching the states
///     observed on the handles exactly; the queue high-water mark respects
///     the admission capacity;
///   - a final resolve through the shared backend still matches the serial
///     truth (no interrupted request poisoned the cache).
PropertyCheck CheckServeAsyncProperties(const Database& db,
                                        std::uint64_t interleaving_seed,
                                        std::size_t num_ops);

/// Delta-maintenance laws (DESIGN.md §14) on an entity database: a seeded
/// random trace of `num_ops` insert / remove / forced-no-op / relabel /
/// pure-recheck steps runs against a live stack — a mutating Database, a
/// warm EvalService maintained by IncrementalMaintainer (which patches
/// warm entries in place), and an IncrementalSeparability warm-starting both
/// separability decisions. After EVERY step the live state is cross-checked
/// against a permanently-naive oracle rebuilt from scratch (fresh Database
/// replaying the live fact set, cold single-shard cache-free EvalService,
/// from-scratch FindSeparator and DecideCqSep):
///   - each Delta's old/new digests bracket the mutation, no-ops move
///     nothing, and the incrementally patched digest equals the fresh
///     recompute;
///   - the instant the digest moves, no (old-digest, feature) key is
///     resolvable in any cache tier;
///   - the warm feature matrix is bit-identical to the cold oracle's, with
///     the entity order preserved;
///   - the incremental linear-separability verdict matches the fresh LP
///     (and a returned classifier commits zero errors), and the incremental
///     CQ-SEP verdict matches the fresh sweep, any inseparability witness
///     being genuinely differently-labeled and hom-equivalent.
PropertyCheck CheckIncrementalProperties(const Database& db,
                                         std::uint64_t trace_seed,
                                         std::size_t num_ops);

/// Crash-recovery laws for the durable tier (DESIGN.md §15) on an entity
/// database, under a deterministic fault-injecting filesystem seeded from
/// `fault_seed` (EIO/ENOSPC-style op failures, torn writes that leave a
/// prefix on disk, partial directory scans, and a kill at a seed-chosen
/// I/O point followed by recovery over the same directory):
///   - disk-cache round trips under faults: a Load that reports a hit is
///     bit-identical to what was stored — torn or corrupt entries are
///     dropped, never trusted — and once faults clear every stored key
///     serves its exact answer again;
///   - breaker-gated serving: an EvalService whose disk tier is failing
///     answers every request bit-identical to the serial oracle while the
///     breaker trips open (degrading to LRU + compute), and after the
///     faults clear a probe closes the breaker and the disk tier resumes;
///   - crash mid-publish: killing the environment at an arbitrary op and
///     recovering with a fresh cache over the same directory never yields a
///     half-visible entry — every post-recovery load is a miss or the exact
///     stored answer, and orphaned tmp files are collected;
///   - shard jobs under faults: a coordinator driving a faulted job (with a
///     partially-run worker whose process "died" mid-job) still merges
///     every feature bit-identical to serial — shards that keep failing are
///     quarantined and evaluated in-memory, no shard is lost, and with a
///     fault-free environment nothing is quarantined.
PropertyCheck CheckCrashIoProperties(const Database& db,
                                     std::uint64_t fault_seed,
                                     std::size_t num_ops);

/// MinimizeCq laws: the minimized query has no more atoms, preserves the
/// free tuple, is hom-equivalent to the input (reference Chandra–Merlin
/// containment both ways), and is minimal — no single atom can be removed
/// without losing equivalence.
PropertyCheck CheckMinimizeCq(const ConjunctiveQuery& query);

}  // namespace testing
}  // namespace featsep

#endif  // FEATSEP_TESTING_PROPERTIES_H_
