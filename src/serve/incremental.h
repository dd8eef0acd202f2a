#ifndef FEATSEP_SERVE_INCREMENTAL_H_
#define FEATSEP_SERVE_INCREMENTAL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/separability.h"
#include "cq/cq.h"
#include "cq/evaluation.h"
#include "linsep/linear_classifier.h"
#include "relational/database.h"
#include "relational/training_database.h"
#include "serve/eval_service.h"

namespace featsep {
namespace serve {

/// Counters for delta maintenance; snapshot via
/// IncrementalMaintainer::stats().
struct IncrementalStats {
  std::uint64_t deltas_applied = 0;  ///< Non-no-op deltas processed.
  std::uint64_t noop_deltas = 0;     ///< Duplicate-insert / absent-remove.
  /// Warm entries patched and re-published under the new digest.
  std::uint64_t features_patched = 0;
  /// Entries cold in both tiers — nothing to maintain, next read recomputes.
  std::uint64_t features_skipped = 0;
  /// Kernel probes spent re-evaluating screened-in entities.
  std::uint64_t entities_rechecked = 0;
  /// (feature × entity) cells the screens proved unaffected — the work a
  /// full recompute would have paid and the delta path did not.
  std::uint64_t entities_screened_out = 0;
  /// Cells whose membership actually flipped.
  std::uint64_t cells_changed = 0;
};

/// What one ApplyDelta changed — the unit the incremental separability
/// re-check consumes.
struct DeltaMaintenance {
  std::uint64_t old_digest = 0;
  std::uint64_t new_digest = 0;
  bool entity_set_changed = false;
  /// Names of entities whose feature row may differ from before the delta
  /// (a superset: exact flips for warm features, the screen's
  /// overapproximation for cold ones), plus any entity that entered or left
  /// η(D). Sorted.
  std::vector<std::string> changed_entities;
};

/// The invalidation rule (DESIGN.md §14): a sound overapproximation of the
/// entities of `db_after` whose membership in `query` can differ across
/// `delta`. Three screens compose:
///   - relation: homomorphisms map atoms onto facts of the atoms' relations
///     only, so a non-η delta on a relation `query` never mentions cannot
///     change the answer at all (η deltas are exempt: the served answer is
///     q(D) ∩ η(D), whose η part every feature depends on);
///   - direction: CQ semantics is monotone in facts, so an insert can only
///     newly select entities (previously-selected rows cannot change) and a
///     remove can only deselect previously-selected ones;
///   - neighborhood: when every atom of `query` is connected to its free
///     variable through shared variables, a homomorphism whose image uses
///     the delta's fact has a connected image, so affected entities lie
///     within |atoms| fact-hops of the delta's touched values. The BFS runs
///     over `db_after` seeded with every touched value, which also covers
///     removals (their witnessing homs lived in db_before = db_after plus
///     the removed fact, whose values are all seeds).
/// Queries with atoms disconnected from the free variable (including
/// nullary atoms) skip the neighborhood screen — a detached component acts
/// as a global boolean whose truth can flip every row at once.
/// `previous` may be null — e.g. the feature is cold in every cache tier —
/// which disables the direction screen (no prior answer to compare
/// against) and keeps only the neighborhood bound.
std::vector<Value> AffectedEntities(const Database& db_after,
                                    const Delta& delta,
                                    const ConjunctiveQuery& query,
                                    const FeatureAnswer* previous);

/// Delta maintenance for EvalService (DESIGN.md §14): given the Delta a
/// Database mutation returned, re-keys every warm cached answer for the
/// maintained feature set from the old digest to the new one, so stale
/// entries can never be served and warm entries stay warm across writes.
/// Entries are *patched* in place — only screened-in entities are
/// re-evaluated — and re-published in both tiers. The result is
/// bit-identical to full recompute; the `--config incremental` fuzz driver
/// enforces this against a fresh-database, cold-service oracle at every
/// step.
///
/// Not thread-safe: maintenance is part of the mutation epoch (see the
/// Database mutation contract) — apply the delta, then resume serving.
class IncrementalMaintainer {
 public:
  /// Maintains `service`'s cached answers for `features` — the feature
  /// universe the serving tier evaluates. `service` must outlive this.
  IncrementalMaintainer(EvalService* service,
                        std::vector<ConjunctiveQuery> features);

  const std::vector<ConjunctiveQuery>& features() const { return features_; }

  /// `db_after` is the database AFTER the mutation that produced `delta`.
  /// No-op deltas (duplicate insert, absent remove) return immediately.
  DeltaMaintenance ApplyDelta(const Database& db_after, const Delta& delta);

  IncrementalStats stats() const { return stats_; }

 private:
  EvalService* service_;
  std::vector<ConjunctiveQuery> features_;
  std::vector<std::string> feature_strings_;
  std::vector<std::unique_ptr<CqEvaluator>> evaluators_;
  IncrementalStats stats_;
};

/// Counters for the incremental separability re-check.
struct IncrementalSepStats {
  /// Previous separator verified on the changed rows only — no simplex.
  std::uint64_t lin_warm_hits = 0;
  std::uint64_t lin_resolves = 0;  ///< Fresh simplex solves.
  /// CQ-SEP verdict reused outright (digest and labeling unchanged).
  std::uint64_t cqsep_reuses = 0;
  /// Previous conflict pair re-verified hom-equivalent — a sound
  /// inseparability witness without the full pair sweep.
  std::uint64_t cqsep_witness_hits = 0;
  std::uint64_t cqsep_resolves = 0;  ///< Full DecideCqSep sweeps.
};

/// Incremental separability over a mutating training database: caches the
/// previous call's verdicts and warm-starts both decisions —
///   - linear separability of the feature matrix: when the previous call
///     found a separator, it still correctly classifies every unchanged row
///     (their constraints did not move), so verifying it on the changed
///     rows alone (O(changed · features) rational arithmetic) re-certifies
///     separability without touching the simplex
///     (linsep's TryFindSeparatorWarm);
///   - CQ-SEP: an unchanged (digest, labeling) reuses the verdict; after a
///     change, the previous conflict pair is re-verified first — two
///     differently-labeled entities that are still hom-equivalent are a
///     sound inseparability witness, skipping the full pair sweep.
/// Every verdict equals what a from-scratch decision returns (the fuzz
/// oracle enforces this); only the work differs. Changed rows are
/// self-computed from label diffs and entity-set changes plus the caller's
/// `changed_entities` (from DeltaMaintenance), so a stale caller set can
/// only cost work, not soundness — provided it covers all matrix-row
/// changes, which the maintainer guarantees.
class IncrementalSeparability {
 public:
  explicit IncrementalSeparability(std::vector<ConjunctiveQuery> features);

  struct Verdict {
    bool lin_separable = false;
    std::optional<LinearClassifier> classifier;
    CqSepResult cq_sep;
  };

  /// Decides both separability questions for (db, λ), reusing previous
  /// state where sound. `service` (non-null) supplies the feature matrix —
  /// warm after IncrementalMaintainer::ApplyDelta, so the steady-state cost
  /// of a step is the screens plus the changed rows, not the matrix.
  Verdict Recheck(const TrainingDatabase& training, EvalService* service,
                  const std::vector<std::string>& changed_entities);

  IncrementalSepStats stats() const { return stats_; }

 private:
  std::vector<ConjunctiveQuery> features_;
  bool has_previous_ = false;
  std::uint64_t prev_digest_ = 0;
  std::unordered_map<std::string, Label> prev_labels_;  // By entity name.
  bool prev_lin_separable_ = false;
  std::optional<LinearClassifier> prev_classifier_;
  CqSepResult prev_cq_;
  IncrementalSepStats stats_;
};

}  // namespace serve
}  // namespace featsep

#endif  // FEATSEP_SERVE_INCREMENTAL_H_
