#ifndef FEATSEP_TESTING_REFERENCE_COVERGAME_H_
#define FEATSEP_TESTING_REFERENCE_COVERGAME_H_

#include <cstddef>
#include <vector>

#include "relational/database.h"

namespace featsep {
namespace testing {

/// Deliberately unoptimized reference solver for the existential k-cover
/// game, the oracle the differential fuzz harness checks the production
/// solver (`src/covergame/cover_game.cc`) against. It is the plain
/// round-robin formulation: per query, filter every position's full
/// strategy list by the pebble map ā → b̄, then sweep all ordered position
/// pairs, recomputing each overlap and re-hashing projection keys, until a
/// sweep deletes nothing. No neighbour lists, no base-free fixpoint, no
/// worklist, no budget. DO NOT optimize or share code with the production
/// solver; slowness and independence are the point. Keep oracle instances
/// small (positions are ≤k-fact subsets of `from`).
class RefCoverGameSolver {
 public:
  /// Games from `from` to `to` with cover bound `k` (k ≥ 1). Both
  /// databases must outlive the solver and share a schema.
  RefCoverGameSolver(const Database& from, const Database& to, std::size_t k);

  /// (from, ā) →_k (to, b̄), with CoverGameSolver::Decide's contract on
  /// tuple lengths and repeated pebbles.
  bool Decide(const std::vector<Value>& a_tuple,
              const std::vector<Value>& b_tuple) const;

 private:
  struct Position {
    std::vector<Value> elements;  // Sorted.
    /// Indexes (into from_) of the facts of `from` whose elements all lie in
    /// `elements` — the facts any strategy at this position must preserve.
    std::vector<FactIndex> covered_facts;
    /// Candidate strategies: image vectors aligned with `elements`, each
    /// preserving all `covered_facts`. Deduplicated.
    std::vector<std::vector<Value>> maps;
  };

  void EnumeratePositions();
  void EnumerateMaps(Position* position);

  const Database& from_;
  const Database& to_;
  std::size_t k_;
  std::vector<Position> positions_;
};

/// Reference (from, ā) →_k (to, b̄).
bool RefCoverGameWins(const Database& from, const std::vector<Value>& a_tuple,
                      const Database& to, const std::vector<Value>& b_tuple,
                      std::size_t k);

/// Reference →_k preorder: result[i][j] = ((db, elements[i]) →_k
/// (db, elements[j])), with the diagonal true as in CoverPreorder.
std::vector<std::vector<bool>> RefCoverPreorder(
    const Database& db, const std::vector<Value>& elements, std::size_t k);

}  // namespace testing
}  // namespace featsep

#endif  // FEATSEP_TESTING_REFERENCE_COVERGAME_H_
