#ifndef FEATSEP_TESTS_TEST_UTIL_H_
#define FEATSEP_TESTS_TEST_UTIL_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "cq/cq.h"
#include "relational/database.h"
#include "relational/schema.h"
#include "relational/training_database.h"
#include "util/budget.h"

namespace featsep {
namespace testing {

/// Entity schema with unary Eta and binary E (a labeled digraph world).
inline std::shared_ptr<const Schema> GraphSchema() {
  Schema schema;
  RelationId eta = schema.AddRelation("Eta", 1);
  schema.AddRelation("E", 2);
  schema.set_entity_relation(eta);
  return std::make_shared<const Schema>(std::move(schema));
}

/// Entity schema with unary Eta, unary R, unary S (Example 6.2's schema).
inline std::shared_ptr<const Schema> UnarySchema() {
  Schema schema;
  RelationId eta = schema.AddRelation("Eta", 1);
  schema.AddRelation("R", 1);
  schema.AddRelation("S", 1);
  schema.set_entity_relation(eta);
  return std::make_shared<const Schema>(std::move(schema));
}

/// Adds Eta(name) and returns the value.
inline Value AddEntity(Database& db, const std::string& name) {
  Value v = db.Intern(name);
  db.AddFact(db.schema().entity_relation(), {v});
  return v;
}

/// Adds E(a, b) to a GraphSchema database.
inline void AddEdge(Database& db, const std::string& a,
                    const std::string& b) {
  db.AddFact("E", {a, b});
}

/// Builds a directed path a0 -> a1 -> ... -> a_n (n edges) with the given
/// prefix; returns the interned node values.
inline std::vector<Value> AddPath(Database& db, const std::string& prefix,
                                  std::size_t edges) {
  std::vector<Value> nodes;
  for (std::size_t i = 0; i <= edges; ++i) {
    nodes.push_back(db.Intern(prefix + std::to_string(i)));
  }
  for (std::size_t i = 0; i < edges; ++i) {
    db.AddFact(db.schema().FindRelation("E"), {nodes[i], nodes[i + 1]});
  }
  return nodes;
}

/// Builds a directed cycle of the given length; returns the node values.
inline std::vector<Value> AddCycle(Database& db, const std::string& prefix,
                                   std::size_t length) {
  std::vector<Value> nodes;
  for (std::size_t i = 0; i < length; ++i) {
    nodes.push_back(db.Intern(prefix + std::to_string(i)));
  }
  RelationId e = db.schema().FindRelation("E");
  for (std::size_t i = 0; i < length; ++i) {
    db.AddFact(e, {nodes[i], nodes[(i + 1) % length]});
  }
  return nodes;
}

/// Adds a bidirected clique on `n` fresh values; returns the node values.
inline std::vector<Value> AddClique(Database& db, const std::string& prefix,
                                    std::size_t n) {
  std::vector<Value> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(db.Intern(prefix + std::to_string(i)));
  }
  RelationId e = db.schema().FindRelation("E");
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) db.AddFact(e, {nodes[i], nodes[j]});
    }
  }
  return nodes;
}

/// Out-edge and in-edge feature queries over GraphSchema.
inline std::vector<ConjunctiveQuery> OutInFeatures() {
  auto schema = GraphSchema();
  ConjunctiveQuery out = ConjunctiveQuery::MakeFeatureQuery(schema);
  out.AddAtom(schema->FindRelation("E"),
              {out.free_variable(), out.NewVariable("y")});
  ConjunctiveQuery in = ConjunctiveQuery::MakeFeatureQuery(schema);
  in.AddAtom(schema->FindRelation("E"),
             {in.NewVariable("z"), in.free_variable()});
  return {out, in};
}

/// Three entities over GraphSchema: "both" has an out- and an in-edge,
/// "out" only an out-edge, "none" neither — every OutInFeatures() sign
/// pattern except in-only.
inline Database MakeWorld() {
  Database db(GraphSchema());
  AddEntity(db, "both");
  AddEntity(db, "none");
  AddEntity(db, "out");
  AddEdge(db, "both", "t");
  AddEdge(db, "u", "both");
  AddEdge(db, "out", "t");
  return db;
}

/// Same facts as MakeWorld() inserted in a different order with extra
/// interning, so value ids and entity order differ but content is equal.
inline Database MakeWorldReordered() {
  Database db(GraphSchema());
  db.Intern("zzz");  // Interned but never in a fact: not content.
  AddEdge(db, "out", "t");
  AddEdge(db, "u", "both");
  AddEntity(db, "out");
  AddEntity(db, "none");
  AddEdge(db, "both", "t");
  AddEntity(db, "both");
  return db;
}

/// A from-scratch rebuild of `db` with identical interning and fact order:
/// equal content and value ids, completely cold caches.
inline Database Rebuild(const Database& db) {
  Database fresh(db.schema_ptr());
  for (std::size_t v = 0; v < db.num_values(); ++v) {
    fresh.Intern(db.value_name(static_cast<Value>(v)));
  }
  for (const Fact& fact : db.facts()) {
    fresh.AddFact(fact.relation, fact.args);
  }
  return fresh;
}

/// Two entities, one edge, opposite labels: trivially separable, small
/// enough that every procedure finishes instantly when unbudgeted.
inline TrainingDatabase SmallTraining() {
  auto db = std::make_shared<Database>(GraphSchema());
  Value a = AddEntity(*db, "a");
  Value b = AddEntity(*db, "b");
  AddEdge(*db, "a", "b");
  TrainingDatabase training(db);
  training.SetLabel(a, 1);
  training.SetLabel(b, -1);
  return training;
}

/// A budget whose deadline already passed when the procedure starts.
inline ExecutionBudget ExpiredBudget() {
  return ExecutionBudget::WithDeadline(ExecutionBudget::Clock::now());
}

/// Busy-waits about 2 µs: the work of one item in a test that bounds how
/// many items of a parallel batch run after one of them throws. With items
/// this slow the bound tests the batch's abort flag, not the scheduler:
/// three siblings need about 33 ms to run half of a 100,000-item batch,
/// longer than a loaded `ctest -j` keeps the throwing thread preempted,
/// while items of one fetch-add ran the whole batch in one time slice.
inline void SlowItem() {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(2);
  while (std::chrono::steady_clock::now() < until) {
  }
}

/// Throws `error` and catches it on the calling thread. The first throw in
/// a process pays the unwinder's one-time setup, which is slow in a
/// sanitizer build. A test that bounds how many items a parallel batch
/// runs after one of them throws calls this before the batch, so the
/// throw it measures is not that slow first one.
template <typename Error>
void WarmUnwinder(const Error& error) {
  try {
    throw error;
  } catch (const Error&) {
  }
}

}  // namespace testing
}  // namespace featsep

#endif  // FEATSEP_TESTS_TEST_UTIL_H_
