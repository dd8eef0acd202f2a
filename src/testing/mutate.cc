#include "testing/mutate.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "relational/schema.h"
#include "testing/shrink.h"

namespace featsep {
namespace testing {

namespace {

/// Rebuilds `db` with every fact passed through `rewrite` (return false to
/// drop a fact). Re-interns every constant name first, so value ids carry
/// over and the instance's value references stay meaningful.
template <typename Rewrite>
Database RewriteFacts(const Database& db, Rewrite rewrite) {
  Database out(db.schema_ptr());
  for (Value v = 0; v < db.num_values(); ++v) out.Intern(db.value_name(v));
  for (std::size_t i = 0; i < db.size(); ++i) {
    Fact fact = db.fact(i);
    if (rewrite(i, &fact)) out.AddFact(fact.relation, std::move(fact.args));
  }
  return out;
}

/// Interns a constant name not yet present in `db`.
Value FreshValue(Database* db) {
  for (std::size_t i = db->num_values();; ++i) {
    std::string name = "m" + std::to_string(i);
    if (db->FindValue(name) == kNoValue) return db->Intern(name);
  }
}

/// A random existing value id, or a freshly interned one when the database
/// has no values (or with `fresh_chance`).
Value PickValue(Database* db, WorkloadRng& rng, double fresh_chance) {
  if (db->num_values() == 0 || rng.Chance(fresh_chance)) {
    return FreshValue(db);
  }
  return static_cast<Value>(rng.Below(db->num_values()));
}

void AddRandomFact(Database* db, WorkloadRng& rng) {
  if (db->schema().size() == 0) return;
  RelationId relation =
      static_cast<RelationId>(rng.Below(db->schema().size()));
  std::vector<Value> args;
  for (std::size_t i = 0; i < db->schema().arity(relation); ++i) {
    args.push_back(PickValue(db, rng, 0.2));
  }
  db->AddFact(relation, std::move(args));
}

void RemoveRandomFact(Database* db, WorkloadRng& rng) {
  if (db->size() == 0) return;
  *db = WithoutFact(*db, rng.Below(db->size()));
}

void MergeRandomValues(Database* db, WorkloadRng& rng) {
  if (db->num_values() < 2) return;
  Value keep = static_cast<Value>(rng.Below(db->num_values()));
  Value gone = static_cast<Value>(rng.Below(db->num_values()));
  if (keep == gone) return;
  *db = RewriteFacts(*db, [&](std::size_t, Fact* fact) {
    for (Value& v : fact->args) {
      if (v == gone) v = keep;
    }
    return true;
  });
}

void RedirectRandomArg(Database* db, WorkloadRng& rng) {
  if (db->size() == 0 || db->num_values() == 0) return;
  std::size_t victim = rng.Below(db->size());
  std::size_t pos = rng.Below(db->fact(victim).args.size());
  Value target = static_cast<Value>(rng.Below(db->num_values()));
  *db = RewriteFacts(*db, [&](std::size_t i, Fact* fact) {
    if (i == victim) fact->args[pos] = target;
    return true;
  });
}

/// Rebuilds `query` over `schema` (same relation ids) with variables passed
/// through `subst`.
ConjunctiveQuery RewriteQuery(const ConjunctiveQuery& query,
                              std::shared_ptr<const Schema> schema,
                              const std::vector<Variable>& subst) {
  ConjunctiveQuery out(std::move(schema));
  for (Variable v = 0; v < query.num_variables(); ++v) {
    out.NewVariable(query.variable_name(v));
  }
  for (const CqAtom& atom : query.atoms()) {
    std::vector<Variable> args;
    for (Variable v : atom.args) args.push_back(subst[v]);
    out.AddAtom(atom.relation, std::move(args));
  }
  for (Variable v : query.free_variables()) out.AddFreeVariable(subst[v]);
  return out;
}

std::vector<Variable> IdentitySubst(const ConjunctiveQuery& query) {
  std::vector<Variable> subst(query.num_variables());
  for (Variable v = 0; v < query.num_variables(); ++v) subst[v] = v;
  return subst;
}

void AddRandomAtom(ConjunctiveQuery* query, WorkloadRng& rng) {
  const Schema& schema = query->schema();
  if (schema.size() == 0) return;
  RelationId relation = static_cast<RelationId>(rng.Below(schema.size()));
  std::vector<Variable> args;
  for (std::size_t i = 0; i < schema.arity(relation); ++i) {
    if (query->num_variables() > 0 && !rng.Chance(0.3)) {
      args.push_back(
          static_cast<Variable>(rng.Below(query->num_variables())));
    } else {
      args.push_back(query->NewVariable());
    }
  }
  query->AddAtom(relation, std::move(args));
}

void RemoveRandomAtom(ConjunctiveQuery* query, WorkloadRng& rng) {
  if (query->atoms().size() < 2) return;
  ConjunctiveQuery candidate =
      WithoutAtom(*query, rng.Below(query->atoms().size()));
  if (QueryIsSafe(candidate)) *query = std::move(candidate);
}

void MergeRandomVariables(ConjunctiveQuery* query, WorkloadRng& rng) {
  if (query->num_variables() < 2) return;
  Variable keep = static_cast<Variable>(rng.Below(query->num_variables()));
  Variable gone = static_cast<Variable>(rng.Below(query->num_variables()));
  const std::vector<Variable>& free = query->free_variables();
  // Never merge a free variable away; collapsing *onto* one is fine.
  if (std::find(free.begin(), free.end(), gone) != free.end()) {
    std::swap(keep, gone);
  }
  if (keep == gone ||
      std::find(free.begin(), free.end(), gone) != free.end()) {
    return;
  }
  std::vector<Variable> subst = IdentitySubst(*query);
  subst[gone] = keep;
  ConjunctiveQuery candidate =
      RewriteQuery(*query, query->schema_ptr(), subst);
  if (QueryIsSafe(candidate)) *query = std::move(candidate);
}

void DeepenChain(ConjunctiveQuery* query, WorkloadRng& rng) {
  const Schema& schema = query->schema();
  RelationId relation = kNoRelation;
  for (RelationId r = 0; r < schema.size(); ++r) {
    if (schema.arity(r) >= 2 &&
        (relation == kNoRelation || rng.Chance(0.5))) {
      relation = r;
    }
  }
  if (relation == kNoRelation || query->num_variables() == 0) return;
  std::vector<Variable> args;
  args.push_back(static_cast<Variable>(rng.Below(query->num_variables())));
  for (std::size_t i = 1; i < schema.arity(relation); ++i) {
    args.push_back(query->NewVariable());
  }
  query->AddAtom(relation, std::move(args));
}

/// Appends a fresh relation of arity max+1 (≤ 4) and rebuilds every
/// database and query of the instance over the widened schema — appended
/// relations keep all existing relation ids valid. The mutated target
/// database receives a first fact of the new relation.
void WidenSchema(FuzzInstance* instance, WorkloadRng& rng) {
  if (!instance->db_a.has_value()) return;
  const Schema& old_schema = instance->db_a->schema();
  std::size_t arity = std::min<std::size_t>(old_schema.max_arity() + 1, 4);
  if (arity == 0) arity = 1;
  Schema widened = old_schema;
  std::string name;
  for (std::size_t i = widened.size();; ++i) {
    name = "W" + std::to_string(i);
    if (widened.FindRelation(name) == kNoRelation) break;
  }
  RelationId fresh = widened.AddRelation(name, arity);
  std::shared_ptr<const Schema> schema = MakeSharedSchema(std::move(widened));

  auto rebuild_db = [&](std::optional<Database>* db) {
    if (!db->has_value()) return;
    Database out(schema);
    for (Value v = 0; v < (*db)->num_values(); ++v) {
      out.Intern((*db)->value_name(v));
    }
    for (const Fact& fact : (*db)->facts()) out.AddFact(fact.relation, fact.args);
    *db = std::move(out);
  };
  rebuild_db(&instance->db_a);
  rebuild_db(&instance->db_b);
  rebuild_db(&instance->db_c);
  if (instance->query.has_value()) {
    instance->query =
        RewriteQuery(*instance->query, schema, IdentitySubst(*instance->query));
  }
  if (instance->query2.has_value()) {
    instance->query2 = RewriteQuery(*instance->query2, schema,
                                    IdentitySubst(*instance->query2));
  }
  instance->schema = schema;

  std::vector<Value> args;
  for (std::size_t i = 0; i < arity; ++i) {
    args.push_back(PickValue(&*instance->db_a, rng, 0.2));
  }
  instance->db_a->AddFact(fresh, std::move(args));
}

}  // namespace

FuzzInstance MutateFuzzInstance(const FuzzInstance& original,
                                WorkloadRng& rng) {
  FuzzInstance instance = original;
  std::size_t edits = rng.Range(1, 3);
  for (std::size_t edit = 0; edit < edits; ++edit) {
    // Operators applicable to the instance's current shape. Rebuilt every
    // round: an edit can change which operators make sense.
    MutateOps ops;
    auto db_ops = [&](std::optional<Database>* db) {
      if (!db->has_value()) return;
      Database* target = &**db;
      ops.push_back([target, &rng] { AddRandomFact(target, rng); });
      ops.push_back([target, &rng] { RemoveRandomFact(target, rng); });
      ops.push_back([target, &rng] { MergeRandomValues(target, rng); });
      ops.push_back([target, &rng] { RedirectRandomArg(target, rng); });
    };
    db_ops(&instance.db_a);
    db_ops(&instance.db_b);
    db_ops(&instance.db_c);
    auto query_ops = [&](std::optional<ConjunctiveQuery>* query) {
      if (!query->has_value()) return;
      ConjunctiveQuery* target = &**query;
      ops.push_back([target, &rng] { AddRandomAtom(target, rng); });
      ops.push_back([target, &rng] { RemoveRandomAtom(target, rng); });
      ops.push_back([target, &rng] { MergeRandomVariables(target, rng); });
      ops.push_back([target, &rng] { DeepenChain(target, rng); });
    };
    query_ops(&instance.query);
    query_ops(&instance.query2);
    if (instance.db_a.has_value()) {
      ops.push_back([&] { WidenSchema(&instance, rng); });
    }
    if (!instance.labels.empty()) {
      ops.push_back([&] {
        auto& [value, label] = instance.labels[rng.Below(
            instance.labels.size())];
        label = -label;
      });
    }
    if (auto config_ops = FuzzConfigSpecOf(instance.config).mutate_ops) {
      config_ops(&instance, rng, &ops);
    }
    if (ops.empty()) break;
    ops[rng.Below(ops.size())]();
  }
  SanitizeFuzzInstance(&instance);
  return instance;
}

}  // namespace testing
}  // namespace featsep
