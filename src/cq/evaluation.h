#ifndef FEATSEP_CQ_EVALUATION_H_
#define FEATSEP_CQ_EVALUATION_H_

#include <optional>
#include <utility>
#include <vector>

#include "cq/cq.h"
#include "cq/homomorphism.h"
#include "relational/database.h"
#include "util/budget.h"

namespace featsep {

/// Evaluates a CQ over a database via homomorphisms from its canonical
/// database (paper, Section 2). The canonical database is built once and
/// split into the connected components that hold a free variable (the
/// x-component) and the x-free rest. The two parts share no variable, so
/// ā ∈ q(D) iff the rest maps into D and (x-component, x̄) → (D, ā): the
/// rest is decided once per database, not once per tuple. Create one
/// evaluator per (query, workload).
class CqEvaluator {
 public:
  /// The query's schema must equal the schema of the databases it will be
  /// evaluated on (compared structurally).
  explicit CqEvaluator(const ConjunctiveQuery& query);

  const ConjunctiveQuery& query() const { return query_; }

  /// The query bound to one database: the path every probe takes, so a
  /// per-entity loop binds once and probes each entity through the binding.
  /// The x-free rest is decided on the first probe and remembered; when it
  /// fails, every probe answers false without a search. The x-component
  /// search is prepared once (PreparedHomSearch) and re-seeded per probe.
  /// Not thread-safe: bind once per thread. The evaluator and the database
  /// must outlive the binding, and the database must not change under it.
  class Binding {
   public:
    /// Budgeted probe for unary queries: nullopt when `budget` interrupted
    /// the search before it decided (never read nullopt as "not
    /// selected"); otherwise the definitive membership e ∈ q(D). A later
    /// probe redoes whatever an interruption left undecided. nullptr =
    /// unbounded.
    std::optional<bool> TrySelectsEntity(Value entity,
                                         ExecutionBudget* budget);
    /// Unbounded TrySelectsEntity.
    bool SelectsEntity(Value entity);

   private:
    friend class CqEvaluator;
    Binding(const CqEvaluator& evaluator, const Database& db);

    const CqEvaluator* evaluator_;
    const Database* db_;
    /// Whether the x-free rest maps into the database; nullopt until decided.
    std::optional<bool> rest_maps_;
    PreparedHomSearch component_search_;
    std::vector<std::pair<Value, Value>> seed_;
  };

  /// Binds the query to `db`. Cheap: the work starts with the first probe.
  Binding Bind(const Database& db) const;

  /// For unary queries: true iff e ∈ q(D), i.e., (D_q, x) → (D, e).
  bool SelectsEntity(const Database& db, Value entity) const;

  /// One-entity budgeted probe; see Binding::TrySelectsEntity.
  std::optional<bool> TrySelectsEntity(const Database& db, Value entity,
                                       ExecutionBudget* budget) const;

  /// For unary queries: q(D) as a set of entities, in the order of
  /// db.Entities(). If the query lacks an η(x) atom, candidates are all of
  /// dom(D) instead (q(D) ⊆ dom(D)).
  std::vector<Value> Evaluate(const Database& db) const;

 private:
  ConjunctiveQuery query_;
  /// The canonical database split in two. Both parts intern every value of
  /// the full canonical database in the same order, so value ids (and
  /// free_tuple_) mean the same in each.
  Database component_;
  Database rest_;
  std::vector<Value> free_tuple_;
  bool has_entity_atom_ = false;
};

/// One-shot helper.
std::vector<Value> EvaluateUnaryCq(const ConjunctiveQuery& query,
                                   const Database& db);

/// Converts a pointed database (D, ā) into the CQ whose canonical database
/// is D with free variables at ā — the inverse of CanonicalDatabase(). This
/// is how canonical QBE explanations and product queries become CQs.
ConjunctiveQuery CqFromDatabase(const Database& db,
                                const std::vector<Value>& distinguished);

}  // namespace featsep

#endif  // FEATSEP_CQ_EVALUATION_H_
