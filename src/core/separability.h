#ifndef FEATSEP_CORE_SEPARABILITY_H_
#define FEATSEP_CORE_SEPARABILITY_H_

#include <cstddef>
#include <optional>
#include <utility>

#include "core/statistic.h"
#include "relational/training_database.h"
#include "util/budget.h"

namespace featsep {

namespace serve {
class EvalService;
}  // namespace serve

/// Result of the general CQ-separability test (paper, Theorem 3.2 /
/// Kimelfeld–Ré): (D, λ) is CQ-separable iff no two differently-labeled
/// entities are homomorphically equivalent as pointed databases.
struct CqSepResult {
  bool separable = false;
  /// When inseparable: a differently-labeled hom-equivalent entity pair.
  std::optional<std::pair<Value, Value>> conflict;
  /// kCompleted: `separable` (and the conflict's first-in-scan-order
  /// position) is definitive. Otherwise the sweep was interrupted: a
  /// present `conflict` is still a *sound* inseparability witness (both
  /// hom directions were verified before the interruption, though it may
  /// not be the first pair in scan order); with no conflict the run is
  /// UNDECIDED and `separable == false` must not be read as an answer.
  BudgetOutcome outcome = BudgetOutcome::kCompleted;
  /// Pairs whose hom-equivalence test ran to a definitive answer.
  std::size_t pairs_checked = 0;
};

/// Options for the CQ-SEP decision procedure.
struct CqSepOptions {
  /// Worker threads fanning out the independent pairwise hom-equivalence
  /// checks: 0 = hardware concurrency, 1 = serial (the historical
  /// behavior). The decision and the reported conflict pair are identical
  /// for every setting — the sweep always reports the first conflicting
  /// pair in (positive-major) scan order.
  std::size_t num_threads = 0;
  /// Workers *inside* each homomorphism search (HomOptions::num_threads):
  /// 1 = the classic sequential kernel (default), 0 = hardware concurrency.
  /// Use > 1 when the sweep is dominated by a few hard pairs rather than by
  /// pair count. Both levels run on the one process-wide pool
  /// (util/parallel.h), so nested workers share its threads instead of
  /// multiplying them. The decision is identical for every setting.
  std::size_t hom_threads = 1;
  /// Cooperative budget threaded into every pairwise hom search; nullptr =
  /// unbounded. Checked at entry (a zero/expired deadline returns
  /// immediately) and per search-tree node, so cancellation latency is
  /// bounded by a constant amount of kernel work.
  ExecutionBudget* budget = nullptr;
};

/// Decides CQ-SEP. coNP-complete (Theorem 3.2): each pairwise test is an
/// NP homomorphism search, exponential in the worst case. The pairwise
/// tests are independent and run on `options.num_threads` threads.
CqSepResult DecideCqSep(const TrainingDatabase& training,
                        const CqSepOptions& options = {});

/// Result of CQ[m]-separability with feature generation (Prop 4.1 / 4.3).
struct CqmSepResult {
  bool separable = false;
  /// When separable: a witnessing model over the enumerated CQ[m] features.
  std::optional<SeparatorModel> model;
  /// Number of feature queries enumerated (the r^m·2^{p(k)} bound of
  /// Prop 4.1 in action).
  std::size_t features_enumerated = 0;
  /// kCompleted: `separable`/`model` are definitive. Otherwise the run was
  /// interrupted (during feature evaluation or the simplex) and is
  /// UNDECIDED: `separable == false` carries no information.
  BudgetOutcome outcome = BudgetOutcome::kCompleted;
};

/// Options for the CQ[m]-SEP decision procedure.
struct CqmSepOptions {
  /// The paper's p parameter: restricts the enumerated features to CQ[m,p]
  /// (Proposition 4.3); 0 = unrestricted.
  std::size_t max_variable_occurrences = 0;
  /// When non-null, the enumerated features are evaluated through the
  /// batched serve layer — sharded over the shared pool and reused from
  /// its cache on repeated (database, m) workloads — instead of the serial
  /// per-feature sweep. The decision and model are bit-identical.
  serve::EvalService* service = nullptr;
  /// Cooperative budget threaded through feature evaluation (serial or
  /// served) and the simplex; nullptr = unbounded.
  ExecutionBudget* budget = nullptr;
};

/// Decides CQ[m]-SEP and, when separable, generates a separating
/// (statistic, classifier) pair — the constructive algorithm behind
/// Proposition 4.1; `options.max_variable_occurrences` = p restricts to
/// CQ[m,p] (Proposition 4.3). When separable, the returned model's
/// statistic is pruned to the features the classifier actually uses
/// (nonzero weight).
CqmSepResult DecideCqmSep(const TrainingDatabase& training, std::size_t m,
                          const CqmSepOptions& options);

/// Back-compat convenience overload.
CqmSepResult DecideCqmSep(const TrainingDatabase& training, std::size_t m,
                          std::size_t max_variable_occurrences = 0);

}  // namespace featsep

#endif  // FEATSEP_CORE_SEPARABILITY_H_
