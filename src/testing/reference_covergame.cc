#include "testing/reference_covergame.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "util/check.h"
#include "util/hash.h"

namespace featsep {
namespace testing {

namespace {

/// Sorted intersection of two sorted vectors.
std::vector<Value> Intersect(const std::vector<Value>& a,
                             const std::vector<Value>& b) {
  std::vector<Value> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// Positions (indices) of the elements of `subset` within sorted `set`.
std::vector<std::size_t> IndicesIn(const std::vector<Value>& subset,
                                   const std::vector<Value>& set) {
  std::vector<std::size_t> indices;
  indices.reserve(subset.size());
  for (Value v : subset) {
    auto it = std::lower_bound(set.begin(), set.end(), v);
    FEATSEP_CHECK(it != set.end() && *it == v);
    indices.push_back(static_cast<std::size_t>(it - set.begin()));
  }
  return indices;
}

}  // namespace

RefCoverGameSolver::RefCoverGameSolver(const Database& from,
                                       const Database& to, std::size_t k)
    : from_(from), to_(to), k_(k) {
  FEATSEP_CHECK_GE(k, 1u) << "cover game requires k >= 1";
  FEATSEP_CHECK(from.schema() == to.schema())
      << "cover game requires equal schemas";
  EnumeratePositions();
  for (Position& position : positions_) EnumerateMaps(&position);
}

void RefCoverGameSolver::EnumeratePositions() {
  // Enumerate all subsets of at most k facts; canonicalize by element set.
  std::unordered_set<std::vector<Value>, VectorHash<Value>> seen;
  std::vector<FactIndex> chosen;

  auto add_position = [&](const std::vector<Value>& elements) {
    if (!seen.insert(elements).second) return;
    Position position;
    position.elements = elements;
    // Facts of `from_` whose elements all lie in `elements`.
    std::unordered_set<FactIndex> covered;
    for (Value v : elements) {
      for (FactIndex fi : from_.FactsContaining(v)) {
        if (covered.count(fi) > 0) continue;
        const Fact& fact = from_.fact(fi);
        bool inside = true;
        for (Value arg : fact.args) {
          if (!std::binary_search(elements.begin(), elements.end(), arg)) {
            inside = false;
            break;
          }
        }
        if (inside) covered.insert(fi);
      }
    }
    position.covered_facts.assign(covered.begin(), covered.end());
    std::sort(position.covered_facts.begin(), position.covered_facts.end());
    positions_.push_back(std::move(position));
  };

  // The empty position (Spoiler holding no pebbles).
  add_position({});

  // Recursive enumeration of fact subsets of size 1..k.
  auto recurse = [&](auto&& self, FactIndex next) -> void {
    if (!chosen.empty()) {
      std::vector<Value> elements;
      for (FactIndex fi : chosen) {
        for (Value v : from_.fact(fi).args) elements.push_back(v);
      }
      std::sort(elements.begin(), elements.end());
      elements.erase(std::unique(elements.begin(), elements.end()),
                     elements.end());
      add_position(elements);
    }
    if (chosen.size() == k_) return;
    for (FactIndex fi = next; fi < from_.size(); ++fi) {
      chosen.push_back(fi);
      self(self, fi + 1);
      chosen.pop_back();
    }
  };
  recurse(recurse, 0);
}

void RefCoverGameSolver::EnumerateMaps(Position* position) {
  const std::vector<Value>& elements = position->elements;
  if (elements.empty()) {
    position->maps.push_back({});
    return;
  }

  // Backtracking over the covered facts, choosing an image fact in `to_`
  // for each; the element map must stay consistent. Every element of the
  // position occurs in some covered fact (positions are unions of facts),
  // so a full choice determines the whole map.
  std::unordered_map<Value, std::size_t> index_of;
  for (std::size_t i = 0; i < elements.size(); ++i) index_of[elements[i]] = i;

  std::vector<Value> image(elements.size(), kNoValue);
  std::unordered_set<std::vector<Value>, VectorHash<Value>> dedup;

  auto recurse = [&](auto&& self, std::size_t fact_pos) -> void {
    if (fact_pos == position->covered_facts.size()) {
      // All elements are determined (every element is in a covered fact).
      if (dedup.insert(image).second) {
        position->maps.push_back(image);
      }
      return;
    }
    const Fact& fact = from_.fact(position->covered_facts[fact_pos]);
    for (FactIndex ti : to_.FactsOf(fact.relation)) {
      const Fact& target = to_.fact(ti);
      // Try to unify: each source arg must map to the target arg.
      std::vector<std::pair<std::size_t, Value>> assigned;
      bool ok = true;
      for (std::size_t pos = 0; pos < fact.args.size(); ++pos) {
        std::size_t idx = index_of.at(fact.args[pos]);
        if (image[idx] == kNoValue) {
          image[idx] = target.args[pos];
          assigned.emplace_back(idx, target.args[pos]);
        } else if (image[idx] != target.args[pos]) {
          ok = false;
          break;
        }
      }
      if (ok) self(self, fact_pos + 1);
      for (const auto& [idx, value] : assigned) {
        (void)value;
        image[idx] = kNoValue;
      }
    }
  };
  recurse(recurse, 0);
}

bool RefCoverGameSolver::Decide(const std::vector<Value>& a_tuple,
                                const std::vector<Value>& b_tuple) const {
  FEATSEP_CHECK_EQ(a_tuple.size(), b_tuple.size());
  // Base map ā → b̄; must be functional.
  std::unordered_map<Value, Value> base;
  for (std::size_t i = 0; i < a_tuple.size(); ++i) {
    auto [it, inserted] = base.emplace(a_tuple[i], b_tuple[i]);
    if (!inserted && it->second != b_tuple[i]) {
      return false;
    }
  }

  // Facts touching ā (candidates for the mixed / pure-ā checks).
  std::unordered_set<FactIndex> touching_a;
  for (const auto& [a, b] : base) {
    (void)b;
    if (a < from_.num_values()) {
      for (FactIndex fi : from_.FactsContaining(a)) touching_a.insert(fi);
    }
  }

  // Pure-ā facts must be preserved by the base map alone.
  for (FactIndex fi : touching_a) {
    const Fact& fact = from_.fact(fi);
    bool pure = true;
    std::vector<Value> args;
    args.reserve(fact.args.size());
    for (Value v : fact.args) {
      auto it = base.find(v);
      if (it == base.end()) {
        pure = false;
        break;
      }
      args.push_back(it->second);
    }
    if (pure && !to_.ContainsFact(Fact{fact.relation, std::move(args)})) {
      return false;
    }
  }

  // Per-position filtered strategy sets.
  std::vector<std::vector<std::vector<Value>>> live(positions_.size());
  for (std::size_t p = 0; p < positions_.size(); ++p) {
    const Position& position = positions_[p];
    const std::vector<Value>& elements = position.elements;

    // Mixed facts: touch ā, lie inside S ∪ set(ā), and use ≥1 element of
    // S \ set(ā) (pure-ā facts were already checked above).
    std::vector<FactIndex> mixed;
    for (FactIndex fi : touching_a) {
      const Fact& fact = from_.fact(fi);
      bool inside = true;
      bool uses_s_only_element = false;
      for (Value v : fact.args) {
        bool in_a = base.count(v) > 0;
        bool in_s = std::binary_search(elements.begin(), elements.end(), v);
        if (!in_a && !in_s) {
          inside = false;
          break;
        }
        if (!in_a && in_s) uses_s_only_element = true;
      }
      if (inside && uses_s_only_element) mixed.push_back(fi);
    }

    for (const std::vector<Value>& map : position.maps) {
      // (a) Agreement with the base map on S ∩ set(ā).
      bool ok = true;
      for (std::size_t i = 0; ok && i < elements.size(); ++i) {
        auto it = base.find(elements[i]);
        if (it != base.end() && it->second != map[i]) ok = false;
      }
      // (b) Preservation of mixed facts under base ∪ map.
      for (std::size_t m = 0; ok && m < mixed.size(); ++m) {
        const Fact& fact = from_.fact(mixed[m]);
        std::vector<Value> args;
        args.reserve(fact.args.size());
        for (Value v : fact.args) {
          auto it = base.find(v);
          if (it != base.end()) {
            args.push_back(it->second);
          } else {
            auto pos = std::lower_bound(elements.begin(), elements.end(), v);
            args.push_back(map[static_cast<std::size_t>(
                pos - elements.begin())]);
          }
        }
        if (!to_.ContainsFact(Fact{fact.relation, std::move(args)})) {
          ok = false;
        }
      }
      if (ok) live[p].push_back(map);
    }
    if (live[p].empty()) {
      return false;
    }
  }

  // Greatest fixpoint: delete h ∈ live[i] unless, for every position j,
  // some h' ∈ live[j] agrees with h on S_i ∩ S_j.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < positions_.size(); ++i) {
      for (std::size_t j = 0; j < positions_.size(); ++j) {
        if (i == j) continue;
        std::vector<Value> overlap =
            Intersect(positions_[i].elements, positions_[j].elements);
        if (overlap.empty()) continue;  // live[j] nonempty suffices.
        std::vector<std::size_t> idx_i =
            IndicesIn(overlap, positions_[i].elements);
        std::vector<std::size_t> idx_j =
            IndicesIn(overlap, positions_[j].elements);

        std::unordered_set<std::vector<Value>, VectorHash<Value>> keys;
        keys.reserve(live[j].size());
        for (const std::vector<Value>& h : live[j]) {
          std::vector<Value> key;
          key.reserve(idx_j.size());
          for (std::size_t idx : idx_j) key.push_back(h[idx]);
          keys.insert(std::move(key));
        }

        std::size_t before = live[i].size();
        std::erase_if(live[i], [&](const std::vector<Value>& h) {
          std::vector<Value> key;
          key.reserve(idx_i.size());
          for (std::size_t idx : idx_i) key.push_back(h[idx]);
          return keys.count(key) == 0;
        });
        if (live[i].size() != before) {
          changed = true;
          if (live[i].empty()) {
            return false;
          }
        }
      }
    }
  }
  return true;
}

bool RefCoverGameWins(const Database& from, const std::vector<Value>& a_tuple,
                      const Database& to, const std::vector<Value>& b_tuple,
                      std::size_t k) {
  RefCoverGameSolver solver(from, to, k);
  return solver.Decide(a_tuple, b_tuple);
}

std::vector<std::vector<bool>> RefCoverPreorder(
    const Database& db, const std::vector<Value>& elements, std::size_t k) {
  RefCoverGameSolver solver(db, db, k);
  std::size_t n = elements.size();
  std::vector<std::vector<bool>> result(n, std::vector<bool>(n, false));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      result[i][j] =
          i == j || solver.Decide({elements[i]}, {elements[j]});
    }
  }
  return result;
}

}  // namespace testing
}  // namespace featsep
