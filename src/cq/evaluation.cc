#include "cq/evaluation.h"

#include <utility>

#include "util/check.h"

namespace featsep {

CqEvaluator::CqEvaluator(const ConjunctiveQuery& query)
    : query_(query),
      component_(query.schema_ptr()),
      rest_(query.schema_ptr()) {
  auto [canonical, var_to_value] = query_.CanonicalDatabase();
  free_tuple_ = ConjunctiveQuery::FreeTuple(query_, var_to_value);

  // Connected components of the canonical database (union-find over its
  // values); a fact belongs to the x-component iff it reaches a free value.
  std::vector<Value> parent(canonical.num_values());
  for (Value v = 0; v < parent.size(); ++v) parent[v] = v;
  auto find = [&parent](Value v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  for (const Fact& fact : canonical.facts()) {
    for (Value v : fact.args) parent[find(v)] = find(fact.args[0]);
  }
  std::vector<char> free_root(canonical.num_values(), 0);
  for (Value v : free_tuple_) free_root[find(v)] = 1;
  for (Value v = 0; v < canonical.num_values(); ++v) {
    component_.Intern(canonical.value_name(v));
    rest_.Intern(canonical.value_name(v));
  }
  for (const Fact& fact : canonical.facts()) {
    const bool in_component =
        !fact.args.empty() && free_root[find(fact.args[0])] != 0;
    (in_component ? component_ : rest_).AddFact(fact.relation, fact.args);
  }

  if (query_.schema().has_entity_relation() && query_.IsUnary()) {
    RelationId eta = query_.schema().entity_relation();
    Variable x = query_.free_variable();
    for (const CqAtom& atom : query_.atoms()) {
      if (atom.relation == eta && atom.args.size() == 1 &&
          atom.args[0] == x) {
        has_entity_atom_ = true;
        break;
      }
    }
  }
}

CqEvaluator::Binding::Binding(const CqEvaluator& evaluator,
                              const Database& db)
    : evaluator_(&evaluator),
      db_(&db),
      component_search_(evaluator.component_, db) {
  if (evaluator.rest_.facts().empty()) rest_maps_ = true;
}

CqEvaluator::Binding CqEvaluator::Bind(const Database& db) const {
  FEATSEP_CHECK(query_.schema() == db.schema())
      << "query and database schemas differ";
  return Binding(*this, db);
}

std::optional<bool> CqEvaluator::Binding::TrySelectsEntity(
    Value entity, ExecutionBudget* budget) {
  FEATSEP_CHECK(evaluator_->query_.IsUnary());
  if (!rest_maps_.has_value()) {
    HomResult rest = FindHomomorphism(evaluator_->rest_, *db_, {}, budget);
    if (rest.status == HomStatus::kExhausted) return std::nullopt;
    rest_maps_ = rest.status == HomStatus::kFound;
  }
  if (!*rest_maps_) return false;
  seed_.assign(1, {evaluator_->free_tuple_[0], entity});
  HomResult result = component_search_.Run(seed_, budget);
  if (result.status == HomStatus::kExhausted) return std::nullopt;
  return result.status == HomStatus::kFound;
}

bool CqEvaluator::Binding::SelectsEntity(Value entity) {
  std::optional<bool> selects = TrySelectsEntity(entity, nullptr);
  FEATSEP_CHECK(selects.has_value());  // No budget, so never interrupted.
  return *selects;
}

bool CqEvaluator::SelectsEntity(const Database& db, Value entity) const {
  return Bind(db).SelectsEntity(entity);
}

std::optional<bool> CqEvaluator::TrySelectsEntity(
    const Database& db, Value entity, ExecutionBudget* budget) const {
  return Bind(db).TrySelectsEntity(entity, budget);
}

std::vector<Value> CqEvaluator::Evaluate(const Database& db) const {
  FEATSEP_CHECK(query_.IsUnary())
      << "Evaluate supports unary queries only";
  std::vector<Value> candidates =
      has_entity_atom_ ? db.Entities() : db.domain();
  Binding binding = Bind(db);
  std::vector<Value> result;
  for (Value candidate : candidates) {
    if (binding.SelectsEntity(candidate)) result.push_back(candidate);
  }
  return result;
}

std::vector<Value> EvaluateUnaryCq(const ConjunctiveQuery& query,
                                   const Database& db) {
  return CqEvaluator(query).Evaluate(db);
}

ConjunctiveQuery CqFromDatabase(const Database& db,
                                const std::vector<Value>& distinguished) {
  ConjunctiveQuery query(db.schema_ptr());
  // One variable per domain value (plus distinguished values, which are in
  // the domain whenever they appear in facts; tolerate isolated ones too).
  std::vector<Variable> var_of(db.num_values(),
                               static_cast<Variable>(kNoValue));
  auto var_for = [&](Value v) -> Variable {
    if (var_of[v] == static_cast<Variable>(kNoValue)) {
      var_of[v] = query.NewVariable(db.value_name(v));
    }
    return var_of[v];
  };
  for (Value v : distinguished) {
    query.AddFreeVariable(var_for(v));
  }
  for (const Fact& fact : db.facts()) {
    std::vector<Variable> args;
    args.reserve(fact.args.size());
    for (Value v : fact.args) args.push_back(var_for(v));
    query.AddAtom(fact.relation, std::move(args));
  }
  return query;
}

}  // namespace featsep
