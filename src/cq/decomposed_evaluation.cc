#include "cq/decomposed_evaluation.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "hypertree/ghw.h"
#include "util/check.h"
#include "util/hash.h"

namespace featsep {

std::optional<DecomposedEvaluator> DecomposedEvaluator::Create(
    const ConjunctiveQuery& query, std::size_t max_width) {
  FEATSEP_CHECK(query.IsUnary())
      << "DecomposedEvaluator supports unary feature queries";

  std::vector<Variable> vertex_to_variable;
  Hypergraph hypergraph = QueryHypergraph(query, &vertex_to_variable);
  std::optional<TreeDecomposition> td = DecideGhwAtMost(hypergraph, max_width);
  if (!td.has_value()) return std::nullopt;

  DecomposedEvaluator evaluator(query, 0);
  Variable x = query.free_variable();

  // Mirror the decomposition tree as plan nodes.
  evaluator.plan_.resize(td->nodes.size());
  evaluator.root_ = td->root;
  for (std::size_t i = 0; i < td->nodes.size(); ++i) {
    PlanNode& node = evaluator.plan_[i];
    node.children = td->nodes[i].children;
    for (HVertex v : td->nodes[i].bag) {
      node.bag.push_back(vertex_to_variable[v]);
    }
    std::sort(node.bag.begin(), node.bag.end());
    std::optional<std::vector<HEdge>> cover =
        hypergraph.FindMinimumEdgeCover(td->nodes[i].bag);
    FEATSEP_CHECK(cover.has_value()) << "decomposition bag not coverable";
    FEATSEP_CHECK_LE(cover->size(), max_width);
    node.cover.assign(cover->begin(), cover->end());
    evaluator.width_ = std::max(evaluator.width_, cover->size());
  }

  // Assign every atom to a node whose bag contains its existential
  // variables; atoms over {x} alone are ground checks.
  RelationId eta = query.schema().has_entity_relation()
                       ? query.schema().entity_relation()
                       : kNoRelation;
  for (std::size_t a = 0; a < query.atoms().size(); ++a) {
    const CqAtom& atom = query.atoms()[a];
    std::vector<Variable> existential;
    for (Variable v : atom.args) {
      if (v != x) existential.push_back(v);
    }
    std::sort(existential.begin(), existential.end());
    existential.erase(std::unique(existential.begin(), existential.end()),
                      existential.end());
    if (existential.empty()) {
      evaluator.ground_atoms_.push_back(a);
      if (atom.relation == eta && atom.args.size() == 1 &&
          atom.args[0] == x) {
        evaluator.has_entity_atom_ = true;
      }
      continue;
    }
    bool placed = false;
    for (PlanNode& node : evaluator.plan_) {
      if (std::includes(node.bag.begin(), node.bag.end(),
                        existential.begin(), existential.end())) {
        node.assigned.push_back(a);
        placed = true;
        break;
      }
    }
    FEATSEP_CHECK(placed) << "atom not covered by any decomposition bag";
  }
  return evaluator;
}

std::vector<std::vector<Value>> DecomposedEvaluator::NodeRelation(
    const Database& db, Value entity, const PlanNode& node) const {
  Variable x = query_.free_variable();
  std::vector<std::vector<Value>> relation;
  if (node.bag.empty()) {
    relation.push_back({});
    return relation;
  }

  auto bag_index = [&](Variable v) -> std::size_t {
    auto it = std::lower_bound(node.bag.begin(), node.bag.end(), v);
    if (it == node.bag.end() || *it != v) return static_cast<std::size_t>(-1);
    return static_cast<std::size_t>(it - node.bag.begin());
  };

  std::vector<Value> assignment(node.bag.size(), kNoValue);
  std::unordered_set<std::vector<Value>, VectorHash<Value>> dedup;

  // Backtracking over the covering atoms, choosing a database fact each;
  // only bag variables and x constrain the choice (out-of-bag positions
  // are projected away — see the soundness note in the header).
  auto recurse = [&](auto&& self, std::size_t cover_pos) -> void {
    if (cover_pos == node.cover.size()) {
      // Filter by the atoms assigned to this node.
      for (std::size_t a : node.assigned) {
        const CqAtom& atom = query_.atoms()[a];
        std::vector<Value> args;
        args.reserve(atom.args.size());
        for (Variable v : atom.args) {
          if (v == x) {
            args.push_back(entity);
          } else {
            std::size_t idx = bag_index(v);
            FEATSEP_CHECK_NE(idx, static_cast<std::size_t>(-1));
            args.push_back(assignment[idx]);
          }
        }
        if (!db.ContainsFact(Fact{atom.relation, std::move(args)})) return;
      }
      if (dedup.insert(assignment).second) relation.push_back(assignment);
      return;
    }
    const CqAtom& atom = query_.atoms()[node.cover[cover_pos]];
    for (FactIndex fi : db.FactsOf(atom.relation)) {
      const Fact& fact = db.fact(fi);
      std::vector<std::pair<std::size_t, Value>> bound;
      bool ok = true;
      for (std::size_t pos = 0; ok && pos < atom.args.size(); ++pos) {
        Variable v = atom.args[pos];
        if (v == x) {
          ok = fact.args[pos] == entity;
          continue;
        }
        std::size_t idx = bag_index(v);
        if (idx == static_cast<std::size_t>(-1)) continue;  // Out of bag.
        if (assignment[idx] == kNoValue) {
          assignment[idx] = fact.args[pos];
          bound.emplace_back(idx, fact.args[pos]);
        } else if (assignment[idx] != fact.args[pos]) {
          ok = false;
        }
      }
      if (ok) self(self, cover_pos + 1);
      for (const auto& [idx, value] : bound) {
        (void)value;
        assignment[idx] = kNoValue;
      }
    }
  };
  recurse(recurse, 0);
  return relation;
}

namespace {

/// Positions of `shared` (sorted) within sorted `bag`.
std::vector<std::size_t> SharedIndexes(const std::vector<Variable>& shared,
                                       const std::vector<Variable>& bag) {
  std::vector<std::size_t> indexes;
  for (Variable v : shared) {
    auto it = std::lower_bound(bag.begin(), bag.end(), v);
    FEATSEP_CHECK(it != bag.end() && *it == v);
    indexes.push_back(static_cast<std::size_t>(it - bag.begin()));
  }
  return indexes;
}

}  // namespace

bool DecomposedEvaluator::Satisfiable(const Database& db, Value entity,
                                      std::size_t node_index) const {
  // Bottom-up semijoin reduction; a node is satisfiable if its relation,
  // semijoined against every child's reduced relation, stays nonempty.
  struct ReduceResult {
    bool ok;
    std::vector<std::vector<Value>> relation;
  };
  auto reduce = [&](auto&& self, std::size_t index) -> ReduceResult {
    const PlanNode& node = plan_[index];
    std::vector<std::vector<Value>> relation =
        NodeRelation(db, entity, node);
    if (relation.empty()) return {false, {}};
    for (std::size_t child_index : node.children) {
      ReduceResult child = self(self, child_index);
      if (!child.ok) return {false, {}};
      const PlanNode& child_node = plan_[child_index];
      std::vector<Variable> shared;
      std::set_intersection(node.bag.begin(), node.bag.end(),
                            child_node.bag.begin(), child_node.bag.end(),
                            std::back_inserter(shared));
      if (shared.empty()) continue;  // Child nonempty is all we need.
      std::vector<std::size_t> own_idx = SharedIndexes(shared, node.bag);
      std::vector<std::size_t> child_idx =
          SharedIndexes(shared, child_node.bag);
      std::unordered_set<std::vector<Value>, VectorHash<Value>> keys;
      for (const std::vector<Value>& tuple : child.relation) {
        std::vector<Value> key;
        key.reserve(child_idx.size());
        for (std::size_t i : child_idx) key.push_back(tuple[i]);
        keys.insert(std::move(key));
      }
      std::erase_if(relation, [&](const std::vector<Value>& tuple) {
        std::vector<Value> key;
        key.reserve(own_idx.size());
        for (std::size_t i : own_idx) key.push_back(tuple[i]);
        return keys.count(key) == 0;
      });
      if (relation.empty()) return {false, {}};
    }
    return {true, std::move(relation)};
  };
  return reduce(reduce, node_index).ok;
}

bool DecomposedEvaluator::SelectsEntity(const Database& db,
                                        Value entity) const {
  FEATSEP_CHECK(query_.schema() == db.schema());
  Variable x = query_.free_variable();
  // Ground atoms (variables ⊆ {x}).
  for (std::size_t a : ground_atoms_) {
    const CqAtom& atom = query_.atoms()[a];
    std::vector<Value> args(atom.args.size(), entity);
    (void)x;
    if (!db.ContainsFact(Fact{atom.relation, std::move(args)})) return false;
  }
  return Satisfiable(db, entity, root_);
}

std::vector<Value> DecomposedEvaluator::Evaluate(const Database& db) const {
  std::vector<Value> candidates =
      has_entity_atom_ ? db.Entities() : db.domain();
  std::vector<Value> selected;
  for (Value candidate : candidates) {
    if (SelectsEntity(db, candidate)) selected.push_back(candidate);
  }
  return selected;
}

}  // namespace featsep
