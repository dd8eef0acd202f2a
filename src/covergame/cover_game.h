#ifndef FEATSEP_COVERGAME_COVER_GAME_H_
#define FEATSEP_COVERGAME_COVER_GAME_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "relational/database.h"
#include "util/budget.h"

namespace featsep {

/// Solver for the existential k-cover game of Chen and Dalmau (paper,
/// Section 5): decides the relation (D, ā) →_k (D', b̄), i.e., whether
/// Duplicator has a winning strategy. By Proposition 5.2, this holds iff
/// every CQ of generalized hypertree width ≤ k that selects ā over D also
/// selects b̄ over D' — the engine behind GHW(k)-SEP, GHW(k)-CLS
/// (Algorithm 1) and GHW(k)-ApxSep (Algorithm 2).
///
/// Implementation: positional (history-free) strategies suffice because the
/// winning condition is a safety condition. Game positions are the element
/// sets coverable by at most k facts of D, represented canonically (one
/// position per distinct element set). For each position S the solver
/// enumerates all partial homomorphisms h : S → dom(D') that preserve every
/// fact of D inside S. A greatest fixpoint then deletes every h that
/// Spoiler can defeat: h ∈ F(S) survives iff for every position S' some
/// h' ∈ F(S') agrees with h on S ∩ S'. Duplicator wins iff no position is
/// left empty.
///
/// Everything that does not depend on the pebbles is done once, in the
/// constructor: the positions and their strategies; the hubs, every element
/// set shared by two or more positions, through which overlapping
/// positions constrain each other; and the greatest fixpoint G₀ with no
/// pebbles, kept as bitsets of live strategies per position and of allowed
/// tuples per hub. Pebbling ā → b̄ only adds constraints, so its fixpoint
/// lies inside G₀: TryDecide starts from G₀, filters the positions that
/// meet ā or a fact touching ā (agreement with b̄, preservation of the facts
/// that mix ā with the position), and propagates from the positions that
/// shrank through a worklist, revisiting a position only when a hub inside
/// it lost an allowed tuple.
///
/// Complexity: O(|D|^k) positions with O(|D'|^k) candidate strategies each;
/// polynomial for every fixed k (Proposition 5.1), with the exponent growing
/// in k as the theory predicts.
class CoverGameSolver {
 public:
  /// Prepares positions and candidate strategies for games from `from` to
  /// `to` with cover bound `k` (k ≥ 1). Both databases must outlive the
  /// solver and share a schema. `budget` (nullptr = unbounded) must outlive
  /// the solver too; it is charged per enumerated position/strategy and per
  /// G₀ fixpoint step during construction, and per filtered strategy and
  /// fixpoint step in TryDecide. A budget that trips during construction
  /// leaves the solver permanently interrupted — every TryDecide then
  /// reports the budget outcome.
  CoverGameSolver(const Database& from, const Database& to, std::size_t k,
                  ExecutionBudget* budget = nullptr);
  ~CoverGameSolver();

  /// Decides (from, ā) →_k (to, b̄). The tuples must have equal length;
  /// repeated values in ā must pair with equal values in b̄ (otherwise the
  /// pebbled tuples admit no partial homomorphism and the answer is false).
  /// CHECK-fails if the budget trips; use TryDecide for interruptible runs.
  bool Decide(const std::vector<Value>& a_tuple,
              const std::vector<Value>& b_tuple) const;

  /// Budgeted Decide: `value` is meaningful only when ok() — an interrupted
  /// fixpoint is UNDECIDED, not a loss.
  Budgeted<bool> TryDecide(const std::vector<Value>& a_tuple,
                           const std::vector<Value>& b_tuple) const;

  /// Number of game positions (distinct ≤k-fact-coverable element sets).
  std::size_t num_positions() const { return positions_.size(); }

  /// Total candidate strategies enumerated across positions (before any
  /// per-query filtering); a measure of the game's size.
  std::size_t num_candidate_strategies() const;

 private:
  struct Position {
    std::vector<Value> elements;  // Sorted.
    /// Indexes (into from_) of the facts of `from` whose elements all lie in
    /// `elements` — the facts any strategy at this position must preserve.
    std::vector<FactIndex> covered_facts;
    /// Candidate strategies, each preserving all `covered_facts` and
    /// deduplicated: `num_maps` image vectors aligned with `elements`,
    /// stored back to back in images_ from `first_image`.
    std::size_t first_image = 0;
    std::size_t num_maps = 0;
    /// Where this position's live bits start in a live-set word vector.
    std::size_t first_word = 0;
    /// The hubs inside this position: views_[first_view, end_view).
    std::size_t first_view = 0;
    std::size_t end_view = 0;
  };

  /// A nonempty element set lying inside two or more positions. Its allowed
  /// tuples are those every position holding it still projects a live
  /// strategy to. A strategy survives iff its projection onto every hub
  /// inside its position is allowed, which is the pairwise rule: each
  /// overlap S ∩ S' is a hub, and agreeing on an overlap implies agreeing
  /// on every hub inside it.
  struct Hub {
    std::size_t width = 0;  ///< Number of elements.
    /// Tuples are numbered per hub. A hub is direct when to_'s values
    /// number at most kMaxDirectKeys tuples of its width (always at width
    /// 1): a tuple's id is then its digits in base to_.num_values(), and
    /// num_keys is that count. Otherwise key_table_ numbers the tuples its
    /// positions' strategies project to.
    bool direct = true;
    std::size_t num_keys = 0;
    /// Where its allowed-tuple bits start in an allowed-set word vector.
    std::size_t first_word = 0;
    /// The views of the positions holding it:
    /// hub_views_[first_member, end_member).
    std::size_t first_member = 0;
    std::size_t end_member = 0;
  };

  /// One hub inside one position: view_indices_[first_index, + hub width)
  /// are the indexes of the hub's elements in the position's elements.
  struct View {
    std::uint32_t position = 0;
    std::uint32_t hub = 0;
    std::size_t first_index = 0;
  };

  enum class Propagation { kStable, kLost, kInterrupted };
  struct Fixpoint;
  struct KeyTable;

  void EnumeratePositions();
  void EnumerateMaps(Position* position);
  void BuildHubs();
  void ComputeBaseFreeFixpoint();
  /// Deletes strategies until every live one projects to allowed tuples
  /// only, starting from the positions queued in `fixpoint`.
  Propagation Propagate(Fixpoint* fixpoint) const;
  /// The tuple id strategy `map` of the view's position projects to.
  std::uint32_t Key(const View& view, std::size_t map) const;
  const Value* Image(const Position& position, std::size_t map) const {
    return images_.data() + position.first_image +
           map * position.elements.size();
  }

  const Database& from_;
  const Database& to_;
  std::size_t k_;
  ExecutionBudget* budget_;
  /// Set when the budget trips during construction: the position/strategy
  /// tables are incomplete and no game can be decided from them.
  bool interrupted_ = false;
  std::vector<Position> positions_;
  std::vector<Value> images_;
  /// positions_with_[v]: the positions whose elements contain v.
  std::vector<std::vector<std::uint32_t>> positions_with_;
  std::vector<Hub> hubs_;
  std::vector<View> views_;  // Grouped by position.
  std::vector<std::uint32_t> view_indices_;
  std::vector<std::uint32_t> hub_views_;
  std::unique_ptr<KeyTable> key_table_;
  std::size_t max_keys_ = 0;  // Largest Hub::num_keys.
  /// G₀, the greatest fixpoint with no pebbles: live strategies per
  /// position and allowed tuples per hub.
  std::vector<std::uint64_t> base_free_live_;
  std::vector<std::uint64_t> base_free_allowed_;
  /// G₀ has an empty position, so Duplicator loses every game.
  bool base_free_lost_ = false;
};

/// Convenience wrapper: (from, ā) →_k (to, b̄).
bool CoverGameWins(const Database& from, const std::vector<Value>& a_tuple,
                   const Database& to, const std::vector<Value>& b_tuple,
                   std::size_t k);

/// The full →_k preorder over the given elements of a single database:
/// result[i][j] = ( (db, elements[i]) →_k (db, elements[j]) ).
/// Shares one CoverGameSolver across all pairs.
std::vector<std::vector<bool>> CoverPreorder(
    const Database& db, const std::vector<Value>& elements, std::size_t k);

}  // namespace featsep

#endif  // FEATSEP_COVERGAME_COVER_GAME_H_
