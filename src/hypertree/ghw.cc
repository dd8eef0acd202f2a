#include "hypertree/ghw.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "testing/coverage.h"
#include "testing/faults.h"
#include "util/budget.h"
#include "util/check.h"
#include "util/hash.h"

namespace featsep {

namespace {

/// Cap on the candidate bag family size (see DecideGhwAtMost).
constexpr std::size_t kMaxBags = 2000000;

/// Key of a (component, connector) subproblem for memoization.
struct SubproblemKey {
  std::vector<HEdge> component;   // Sorted.
  std::vector<HVertex> connector;  // Sorted.

  friend bool operator==(const SubproblemKey& a, const SubproblemKey& b) {
    return a.component == b.component && a.connector == b.connector;
  }
};

struct SubproblemKeyHash {
  std::size_t operator()(const SubproblemKey& key) const {
    std::size_t seed = HashRange(key.component.begin(), key.component.end());
    HashCombine(seed,
                HashRange(key.connector.begin(), key.connector.end()));
    return seed;
  }
};

/// The decision engine for one (graph, k) instance.
class GhwSearch {
 public:
  GhwSearch(const Hypergraph& graph, std::size_t k, ExecutionBudget* budget)
      : graph_(graph), k_(k), budget_(budget) {
    EnumerateBags();
  }

  std::optional<TreeDecomposition> Run();

  bool interrupted() const { return interrupted_; }

 private:
  /// Result of a solved subproblem: the chosen bag and child subproblems,
  /// or nullopt if unsolvable.
  struct Choice {
    std::vector<HVertex> bag;
    std::vector<SubproblemKey> children;
  };

  void EnumerateBags();
  bool Solve(const SubproblemKey& key);
  /// Appends the decomposition subtree for a solved subproblem to `td`,
  /// returning the index of its root node.
  std::size_t Emit(const SubproblemKey& key, TreeDecomposition* td) const;

  const Hypergraph& graph_;
  std::size_t k_;
  ExecutionBudget* budget_;
  /// Once set, any "unsolvable" answer below is tainted and the whole run
  /// must be reported as undecided (the memo may hold in-flight nullopts).
  bool interrupted_ = false;
  std::vector<std::vector<HVertex>> bags_;  // Sorted vertex sets; deduped.
  std::unordered_map<SubproblemKey, std::optional<Choice>, SubproblemKeyHash>
      memo_;
};

void GhwSearch::EnumerateBags() {
  // All subsets of unions of at most k edges. Any such subset has edge
  // cover number ≤ k by construction; conversely, every bag of a width-k
  // decomposition is a subset of the union of its ≤ k covering edges, so
  // the family is complete.
  std::unordered_set<std::vector<HVertex>, VectorHash<HVertex>> seen;
  std::vector<HEdge> chosen;

  auto add_subsets = [&](const std::vector<HVertex>& base) {
    FEATSEP_CHECK_LE(base.size(), 63u) << "bag union too large to enumerate";
    std::uint64_t limit = 1ULL << base.size();
    for (std::uint64_t mask = 0; mask < limit; ++mask) {
      if (!ChargeBudget(budget_)) {
        interrupted_ = true;
        return;
      }
      std::vector<HVertex> subset;
      for (std::size_t i = 0; i < base.size(); ++i) {
        if ((mask >> i) & 1) subset.push_back(base[i]);
      }
      if (seen.insert(subset).second) {
        FEATSEP_CHECK_LE(seen.size(), kMaxBags)
            << "ghw candidate bag family exceeds " << kMaxBags << " bags";
        bags_.push_back(std::move(subset));
      }
    }
  };

  auto recurse = [&](auto&& self, HEdge next) -> void {
    if (interrupted_) return;
    if (!chosen.empty()) add_subsets(graph_.VerticesOf(chosen));
    if (chosen.size() == k_ || interrupted_) return;
    for (HEdge e = next; e < graph_.num_edges(); ++e) {
      chosen.push_back(e);
      self(self, e + 1);
      chosen.pop_back();
    }
  };
  add_subsets({});  // The empty bag.
  recurse(recurse, 0);
}

bool GhwSearch::Solve(const SubproblemKey& key) {
  auto it = memo_.find(key);
  if (it != memo_.end()) {
    FEATSEP_COVERAGE(kGhwMemoHit);
    return it->second.has_value();
  }
  // Mark as unsolvable while in flight; components strictly shrink so no
  // true recursion on the same key occurs, but this keeps lookups total.
  memo_.emplace(key, std::nullopt);

  for (const std::vector<HVertex>& bag : bags_) {
    if (interrupted_) return false;
    if (!ChargeBudget(budget_)) {
      interrupted_ = true;
      return false;
    }
    // Connector must be inside the bag (connectedness with the parent).
    if (!std::includes(bag.begin(), bag.end(), key.connector.begin(),
                       key.connector.end())) {
      FEATSEP_COVERAGE(kGhwBagConnectorReject);
      continue;
    }
    // Edges of the component fully inside the bag are covered here.
    std::vector<HEdge> remaining;
    for (HEdge e : key.component) {
      const std::vector<HVertex>& vs = graph_.edge(e);
      if (!std::includes(bag.begin(), bag.end(), vs.begin(), vs.end())) {
        remaining.push_back(e);
      }
    }
    std::vector<std::vector<HEdge>> components =
        graph_.EdgeComponents(remaining, bag);
    // Progress requirement (termination): every child must be strictly
    // smaller than the current component.
    if (remaining.size() == key.component.size() && components.size() == 1) {
      FEATSEP_COVERAGE(kGhwBagProgressReject);
      continue;
    }

    bool all_solved = true;
    std::vector<SubproblemKey> children;
    for (std::vector<HEdge>& component : components) {
      std::vector<HVertex> vars = graph_.VerticesOf(component);
      std::vector<HVertex> connector;
      std::set_intersection(vars.begin(), vars.end(), bag.begin(), bag.end(),
                            std::back_inserter(connector));
      SubproblemKey child{std::move(component), std::move(connector)};
      if (!Solve(child)) {
        FEATSEP_COVERAGE(kGhwChildUnsolved);
        all_solved = false;
        break;
      }
      children.push_back(std::move(child));
    }
    if (all_solved) {
      FEATSEP_COVERAGE(kGhwSubproblemSolved);
      FEATSEP_FAULT_POINT(kGhwSubproblemSolved);
      memo_[key] = Choice{bag, std::move(children)};
      return true;
    }
  }
  FEATSEP_COVERAGE(kGhwSubproblemFailed);
  return false;
}

std::size_t GhwSearch::Emit(const SubproblemKey& key,
                            TreeDecomposition* td) const {
  const std::optional<Choice>& choice = memo_.at(key);
  FEATSEP_CHECK(choice.has_value());
  std::size_t index = td->nodes.size();
  td->nodes.push_back(TreeDecomposition::Node{choice->bag, {}});
  for (const SubproblemKey& child : choice->children) {
    std::size_t child_index = Emit(child, td);
    td->nodes[index].children.push_back(child_index);
  }
  return index;
}

std::optional<TreeDecomposition> GhwSearch::Run() {
  std::vector<HEdge> all_edges;
  for (HEdge e = 0; e < graph_.num_edges(); ++e) {
    if (!graph_.edge(e).empty()) all_edges.push_back(e);
  }
  TreeDecomposition td;
  if (all_edges.empty()) {
    td.nodes.push_back(TreeDecomposition::Node{{}, {}});
    td.root = 0;
    return td;
  }

  std::vector<std::vector<HEdge>> components =
      graph_.EdgeComponents(all_edges, {});
  std::vector<SubproblemKey> roots;
  for (std::vector<HEdge>& component : components) {
    SubproblemKey key{std::move(component), {}};
    if (!Solve(key)) return std::nullopt;
    roots.push_back(std::move(key));
  }

  // Synthetic empty-bag root joining the per-component subtrees (valid: the
  // empty bag has cover number 0, and distinct components share no vertex).
  td.nodes.push_back(TreeDecomposition::Node{{}, {}});
  td.root = 0;
  for (const SubproblemKey& key : roots) {
    std::size_t child = Emit(key, &td);
    td.nodes[td.root].children.push_back(child);
  }
  return td;
}

}  // namespace

GhwDecision TryDecideGhwAtMost(const Hypergraph& graph, std::size_t k,
                               ExecutionBudget* budget) {
  GhwDecision decision;
  // A zero/expired/cancelled budget at entry: no bag enumeration at all.
  if (!RecheckBudget(budget)) {
    decision.outcome = budget->outcome();
    return decision;
  }
  GhwSearch search(graph, k, budget);
  if (search.interrupted()) {
    decision.outcome = OutcomeOf(budget);
    return decision;
  }
  std::optional<TreeDecomposition> td = search.Run();
  if (search.interrupted()) {
    // An interrupted search may have recorded tainted "unsolvable" memo
    // entries; its answer carries no information.
    decision.outcome = OutcomeOf(budget);
    return decision;
  }
  decision.decomposition = std::move(td);
  return decision;
}

std::optional<TreeDecomposition> DecideGhwAtMost(const Hypergraph& graph,
                                                 std::size_t k) {
  GhwDecision decision = TryDecideGhwAtMost(graph, k, nullptr);
  // No budget, so never interrupted.
  FEATSEP_CHECK(decision.outcome == BudgetOutcome::kCompleted);
  return std::move(decision.decomposition);
}

std::size_t Ghw(const Hypergraph& graph) {
  for (std::size_t k = 0; k <= graph.num_edges(); ++k) {
    if (DecideGhwAtMost(graph, k).has_value()) return k;
  }
  FEATSEP_CHECK(false) << "ghw exceeds the number of edges (impossible)";
  return graph.num_edges();
}

Hypergraph QueryHypergraph(const ConjunctiveQuery& query,
                           std::vector<Variable>* vertex_to_variable) {
  // Existential variables get dense vertex indices.
  std::vector<bool> is_free(query.num_variables(), false);
  for (Variable v : query.free_variables()) is_free[v] = true;

  std::vector<std::size_t> vertex_of(query.num_variables(),
                                     static_cast<std::size_t>(-1));
  Hypergraph graph;
  std::vector<Variable> mapping;
  for (Variable v = 0; v < query.num_variables(); ++v) {
    if (is_free[v]) continue;
    vertex_of[v] = graph.AddVertex();
    mapping.push_back(v);
  }
  for (const CqAtom& atom : query.atoms()) {
    std::vector<HVertex> edge;
    for (Variable v : atom.args) {
      if (!is_free[v]) edge.push_back(vertex_of[v]);
    }
    graph.AddEdge(std::move(edge));
  }
  if (vertex_to_variable != nullptr) *vertex_to_variable = std::move(mapping);
  return graph;
}

std::size_t QueryGhw(const ConjunctiveQuery& query) {
  return Ghw(QueryHypergraph(query));
}

bool IsInGhw(const ConjunctiveQuery& query, std::size_t k) {
  return DecideGhwAtMost(QueryHypergraph(query), k).has_value();
}

}  // namespace featsep
