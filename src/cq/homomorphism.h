#ifndef FEATSEP_CQ_HOMOMORPHISM_H_
#define FEATSEP_CQ_HOMOMORPHISM_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "relational/database.h"
#include "util/budget.h"

namespace featsep {

/// Outcome of a homomorphism search.
enum class HomStatus {
  kFound,      ///< A homomorphism exists; `mapping` is a witness.
  kNone,       ///< No homomorphism exists.
  kExhausted,  ///< Interrupted by the ExecutionBudget — undecided.
};

/// Result of a homomorphism search.
struct HomResult {
  HomStatus status = HomStatus::kNone;
  /// For kFound: image of every value of `from`, indexed by value id
  /// (kNoValue for values outside dom(from)).
  std::vector<Value> mapping;
  /// Search-tree nodes explored (each one charged one budget step).
  std::uint64_t nodes = 0;
  /// Why the search stopped. kCompleted iff `status` is definitive
  /// (kFound/kNone); any other value accompanies kExhausted and names the
  /// tripped limit.
  BudgetOutcome outcome = BudgetOutcome::kCompleted;
};

/// Searches for a homomorphism h from `from` to `to` — a map on dom(from)
/// with R(h(ā)) ∈ to for every fact R(ā) ∈ from — such that h extends the
/// partial map `seed` (pairs of (source value, target value)). Seed sources
/// outside dom(from) are unconstrained and simply copied into the mapping.
///
/// The search is backtracking over bitset domains indexed by dom(to)
/// positions. Domains start from `to`'s cached position bitsets
/// (Database::position_bitsets()): the values at each (relation, position)
/// a variable occupies, and the diagonal for a variable repeated inside a
/// fact. The search then runs fact-granularity forward checking against
/// precomputed (relation, position, value) support bitsets, and
/// minimum-remaining-values variable selection with a degree tie-break. Worst-case exponential (the problem is NP-complete).
///
/// `budget` (nullptr = unbounded) is charged one step per search-tree node.
/// An interrupted search returns kExhausted with the budget's outcome —
/// never a definitive kNone. Callers probing hard instances should pass one
/// (e.g. ExecutionBudget::WithStepLimit to cap the node count).
HomResult FindHomomorphism(
    const Database& from, const Database& to,
    const std::vector<std::pair<Value, Value>>& seed = {},
    ExecutionBudget* budget = nullptr);

/// One homomorphism search from `from` into `to`, prepared once and run for
/// many seeds — the per-entity probes of one query over one database. The
/// first Run builds everything that does not depend on the seed: the
/// source structure and the unary-constrained base domains. Each later Run
/// rewinds to the base domains, re-seeds, and keeps every support bitset
/// built so far, so a seed whose image lies outside its
/// variable's base domain is rejected without a search. Each Run decides
/// exactly what FindHomomorphism(from, to, seed, budget) would,
/// with the same node count. Not thread-safe (one per thread); `from` and
/// `to` must outlive it unmodified.
class PreparedHomSearch {
 public:
  PreparedHomSearch(const Database& from, const Database& to);
  ~PreparedHomSearch();
  PreparedHomSearch(PreparedHomSearch&&) noexcept;
  PreparedHomSearch& operator=(PreparedHomSearch&&) noexcept;

  /// The search for a homomorphism extending `seed`, charged to `budget`
  /// (nullptr = unbounded).
  HomResult Run(const std::vector<std::pair<Value, Value>>& seed,
                ExecutionBudget* budget = nullptr);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Convenience wrapper: true iff a homomorphism extending `seed` exists
/// (an unbudgeted search, so always decided).
bool HomomorphismExists(const Database& from, const Database& to,
                        const std::vector<std::pair<Value, Value>>& seed = {});

/// True iff (from, ā) → (to, b̄) and (to, b̄) → (from, ā): the two pointed
/// databases are homomorphically equivalent. This is the paper's CQ
/// indistinguishability test for entities (Kimelfeld–Ré; see Theorem 3.2).
bool HomEquivalent(const Database& from, const std::vector<Value>& from_tuple,
                   const Database& to, const std::vector<Value>& to_tuple);

/// Budgeted HomEquivalent: nullopt when `budget` interrupted either
/// direction before it was decided (the caller must not read nullopt as
/// "not equivalent"); otherwise the definitive answer. `budget` may be
/// nullptr (then the result is always engaged).
std::optional<bool> TryHomEquivalent(const Database& from,
                                     const std::vector<Value>& from_tuple,
                                     const Database& to,
                                     const std::vector<Value>& to_tuple,
                                     ExecutionBudget* budget);

}  // namespace featsep

#endif  // FEATSEP_CQ_HOMOMORPHISM_H_
