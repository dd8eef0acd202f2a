#include "relational/database_ops.h"

#include <string>

#include "util/check.h"

namespace featsep {

namespace {

/// Re-interns every value name of `db` in id order, so value ids coincide
/// between `db` and the returned (fact-less) database.
Database EmptyWithSameValues(const Database& db) {
  Database result(db.schema_ptr());
  for (Value v = 0; v < db.num_values(); ++v) {
    Value copy = result.Intern(db.value_name(v));
    FEATSEP_CHECK_EQ(copy, v);
  }
  return result;
}

}  // namespace

Database InducedSubdatabase(const Database& db,
                            const std::unordered_set<Value>& values) {
  Database result = EmptyWithSameValues(db);
  for (const Fact& fact : db.facts()) {
    bool inside = true;
    for (Value v : fact.args) {
      if (values.count(v) == 0) {
        inside = false;
        break;
      }
    }
    if (inside) result.AddFact(fact.relation, fact.args);
  }
  return result;
}

Database MapDatabase(const Database& db, const std::vector<Value>& mapping) {
  Database result = EmptyWithSameValues(db);
  for (const Fact& fact : db.facts()) {
    std::vector<Value> args;
    args.reserve(fact.args.size());
    for (Value v : fact.args) {
      FEATSEP_CHECK_LT(v, mapping.size());
      FEATSEP_CHECK_NE(mapping[v], kNoValue)
          << "MapDatabase: value " << db.value_name(v) << " has no image";
      args.push_back(mapping[v]);
    }
    result.AddFact(fact.relation, std::move(args));
  }
  return result;
}

Database DisjointUnion(const Database& a, const Database& b,
                       const std::string& b_suffix,
                       std::vector<Value>* b_value_map) {
  FEATSEP_CHECK(a.schema() == b.schema())
      << "DisjointUnion requires equal schemas";
  Database result(a.schema_ptr());
  for (Value v = 0; v < a.num_values(); ++v) {
    Value copy = result.Intern(a.value_name(v));
    FEATSEP_CHECK_EQ(copy, v);
  }
  std::vector<Value> b_map(b.num_values(), kNoValue);
  for (Value v = 0; v < b.num_values(); ++v) {
    std::string name = b.value_name(v);
    if (result.FindValue(name) != kNoValue) name += b_suffix;
    // Keep appending the suffix until fresh (handles pathological inputs).
    while (result.FindValue(name) != kNoValue) name += b_suffix;
    b_map[v] = result.Intern(name);
  }
  for (const Fact& fact : a.facts()) {
    result.AddFact(fact.relation, fact.args);
  }
  for (const Fact& fact : b.facts()) {
    std::vector<Value> args;
    args.reserve(fact.args.size());
    for (Value v : fact.args) args.push_back(b_map[v]);
    result.AddFact(fact.relation, std::move(args));
  }
  if (b_value_map != nullptr) *b_value_map = std::move(b_map);
  return result;
}

}  // namespace featsep
