#include "core/dimension_collapse.h"

#include <algorithm>
#include <set>

#include "cq/homomorphism.h"
#include "cq/product.h"
#include "fo/iso.h"
#include "util/check.h"

namespace featsep {

namespace {

std::vector<Value> SortedComplement(const std::vector<Value>& set,
                                    const std::vector<Value>& universe) {
  std::vector<Value> out;
  for (Value e : universe) {
    if (!std::binary_search(set.begin(), set.end(), e)) out.push_back(e);
  }
  return out;
}

}  // namespace

EntitySetFamily CqDefinableEntitySets(const Database& db,
                                      std::size_t max_product_facts) {
  std::vector<Value> entities = db.Entities();
  std::sort(entities.begin(), entities.end());
  std::size_t n = entities.size();
  FEATSEP_CHECK_LE(n, 16u)
      << "CqDefinableEntitySets enumerates 2^|entities| products";

  std::set<std::vector<Value>> sets;

  // Nonempty definable sets: up-closures of products of entity subsets,
  // each built as its core.
  for (std::uint64_t mask = 1; mask < (1ULL << n); ++mask) {
    std::vector<Value> points;
    for (std::size_t i = 0; i < n; ++i) {
      if ((mask >> i) & 1) points.push_back(entities[i]);
    }
    CoredProduct product = *FoldCoredProduct(db, points, max_product_facts);
    std::vector<Value> definable;
    for (Value e : entities) {
      if (HomomorphismExists(product.db, db, {{product.point, e}})) {
        definable.push_back(e);
      }
    }
    sets.insert(std::move(definable));
  }

  // The empty set is definable iff some CQ has empty output. Sufficient
  // detection used here: a relation with no all-equal fact R(y,…,y) makes
  // q(x) = η(x) ∧ R(y,…,y) empty. (Complete detection would decide whether
  // D is hom-universal for its schema; the witness databases of Section 8
  // are covered by this test.)
  for (RelationId r = 0; r < db.schema().size(); ++r) {
    bool has_all_equal = false;
    for (FactIndex fi : db.FactsOf(r)) {
      const Fact& fact = db.fact(fi);
      has_all_equal = std::all_of(
          fact.args.begin(), fact.args.end(),
          [&](Value v) { return v == fact.args[0]; });
      if (has_all_equal) break;
    }
    if (!has_all_equal) {
      sets.insert(std::vector<Value>{});
      break;
    }
  }

  return EntitySetFamily(sets.begin(), sets.end());
}

EntitySetFamily FoDefinableEntitySets(const Database& db) {
  std::vector<Value> entities = db.Entities();
  std::sort(entities.begin(), entities.end());

  // Automorphism orbits via pairwise pointed-isomorphism tests.
  std::vector<std::vector<Value>> orbits;
  std::vector<bool> assigned(entities.size(), false);
  for (std::size_t i = 0; i < entities.size(); ++i) {
    if (assigned[i]) continue;
    std::vector<Value> orbit = {entities[i]};
    assigned[i] = true;
    for (std::size_t j = i + 1; j < entities.size(); ++j) {
      if (!assigned[j] &&
          AreIsomorphic(db, {entities[i]}, db, {entities[j]})) {
        orbit.push_back(entities[j]);
        assigned[j] = true;
      }
    }
    orbits.push_back(std::move(orbit));
  }

  FEATSEP_CHECK_LE(orbits.size(), 16u)
      << "FoDefinableEntitySets enumerates 2^|orbits| unions";
  EntitySetFamily family;
  for (std::uint64_t mask = 0; mask < (1ULL << orbits.size()); ++mask) {
    std::vector<Value> set;
    for (std::size_t i = 0; i < orbits.size(); ++i) {
      if ((mask >> i) & 1) {
        set.insert(set.end(), orbits[i].begin(), orbits[i].end());
      }
    }
    std::sort(set.begin(), set.end());
    family.push_back(std::move(set));
  }
  return family;
}

std::optional<std::pair<std::vector<Value>, std::vector<Value>>>
FindIntersectionClosureViolation(const EntitySetFamily& family,
                                 const std::vector<Value>& entities) {
  std::vector<Value> universe = entities;
  std::sort(universe.begin(), universe.end());

  std::set<std::vector<Value>> closed;
  for (const std::vector<Value>& set : family) {
    std::vector<Value> sorted = set;
    std::sort(sorted.begin(), sorted.end());
    closed.insert(SortedComplement(sorted, universe));
    closed.insert(std::move(sorted));
  }

  std::vector<std::vector<Value>> members(closed.begin(), closed.end());
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (std::size_t j = i + 1; j < members.size(); ++j) {
      std::vector<Value> intersection;
      std::set_intersection(members[i].begin(), members[i].end(),
                            members[j].begin(), members[j].end(),
                            std::back_inserter(intersection));
      if (closed.count(intersection) == 0) {
        return std::make_pair(members[i], members[j]);
      }
    }
  }
  return std::nullopt;
}

bool IsLinearFamily(const EntitySetFamily& family) {
  for (std::size_t i = 0; i < family.size(); ++i) {
    for (std::size_t j = i + 1; j < family.size(); ++j) {
      std::vector<Value> a = family[i];
      std::vector<Value> b = family[j];
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      bool a_in_b = std::includes(b.begin(), b.end(), a.begin(), a.end());
      bool b_in_a = std::includes(a.begin(), a.end(), b.begin(), b.end());
      if (!a_in_b && !b_in_a) return false;
    }
  }
  return true;
}

}  // namespace featsep
