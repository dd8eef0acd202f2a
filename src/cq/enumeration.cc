#include "cq/enumeration.h"

#include <utility>

#include "util/check.h"

namespace featsep {

namespace {

/// Hard cap on the number of generated queries (see EnumerateFeatureQueries).
constexpr std::size_t kMaxQueries = 5000000;

/// Atom under construction: relation id + argument variable ids, ordered
/// lexicographically to canonicalize atom-list permutations.
struct ProtoAtom {
  RelationId relation;
  std::vector<std::size_t> args;

  friend bool operator<(const ProtoAtom& a, const ProtoAtom& b) {
    if (a.relation != b.relation) return a.relation < b.relation;
    return a.args < b.args;
  }
};

class Enumerator {
 public:
  Enumerator(std::shared_ptr<const Schema> schema, std::size_t m,
             const EnumerationOptions& options)
      : schema_(std::move(schema)), m_(m), options_(options) {
    FEATSEP_CHECK(schema_->has_entity_relation())
        << "feature enumeration requires an entity schema";
  }

  std::vector<ConjunctiveQuery> Run() {
    occurrences_.assign(1 + m_ * schema_->max_arity(), 0);
    Emit();                 // The bare query q(x) :- Eta(x).
    ExtendAtoms();
    return std::move(results_);
  }

 private:
  /// Appends the query built from the current `atoms_` to the results.
  void Emit() {
    ConjunctiveQuery q = ConjunctiveQuery::MakeFeatureQuery(schema_);
    // Variable 0 is the free x created by MakeFeatureQuery.
    std::vector<Variable> vars = {q.free_variable()};
    for (std::size_t v = 1; v < next_var_; ++v) {
      vars.push_back(q.NewVariable("y" + std::to_string(v)));
    }
    for (const ProtoAtom& atom : atoms_) {
      std::vector<Variable> args;
      args.reserve(atom.args.size());
      for (std::size_t a : atom.args) args.push_back(vars[a]);
      q.AddAtom(atom.relation, std::move(args));
    }
    FEATSEP_CHECK_LT(results_.size(), kMaxQueries)
        << "CQ[m] enumeration exceeded " << kMaxQueries << " queries";
    results_.push_back(std::move(q));
  }

  /// Recursively appends further atoms (each lexicographically greater than
  /// the previous one), emitting every intermediate query.
  void ExtendAtoms() {
    if (atoms_.size() == m_) return;
    for (RelationId rel = 0; rel < schema_->size(); ++rel) {
      current_.relation = rel;
      current_.args.clear();
      FillArgs(rel, schema_->arity(rel));
    }
  }

  /// Fills the next argument slot of `current_` with every admissible
  /// variable; on completion checks canonical order and recurses.
  void FillArgs(RelationId rel, std::size_t remaining) {
    if (remaining == 0) {
      if (!atoms_.empty() && !(atoms_.back() < current_)) return;
      // η(x) is already present in every feature query; generating it as an
      // extra atom would duplicate existing queries under set semantics.
      if (current_.relation == schema_->entity_relation() &&
          current_.args == std::vector<std::size_t>{0}) {
        return;
      }
      atoms_.push_back(current_);
      std::size_t saved_next = next_var_;
      // Commit first-use ordering: args may have introduced new variables.
      Emit();
      ProtoAtom saved_current = current_;
      ExtendAtoms();
      current_ = std::move(saved_current);
      atoms_.pop_back();
      next_var_ = saved_next;
      return;
    }
    // Candidates: every existing variable, or the single next fresh one.
    std::size_t limit = next_var_ + 1;
    for (std::size_t v = 0; v < limit && v < occurrences_.size(); ++v) {
      if (options_.max_variable_occurrences != 0 &&
          occurrences_[v] >= options_.max_variable_occurrences) {
        continue;
      }
      bool fresh = v == next_var_;
      if (fresh) ++next_var_;
      ++occurrences_[v];
      current_.args.push_back(v);
      FillArgs(rel, remaining - 1);
      current_.args.pop_back();
      --occurrences_[v];
      if (fresh) --next_var_;
    }
  }

  std::shared_ptr<const Schema> schema_;
  std::size_t m_;
  EnumerationOptions options_;

  std::vector<ProtoAtom> atoms_;
  ProtoAtom current_;
  std::size_t next_var_ = 1;  // Variable 0 is the free variable x.
  std::vector<std::size_t> occurrences_;
  std::vector<ConjunctiveQuery> results_;
};

}  // namespace

std::vector<ConjunctiveQuery> EnumerateFeatureQueries(
    const std::shared_ptr<const Schema>& schema, std::size_t m,
    const EnumerationOptions& options) {
  Enumerator enumerator(schema, m, options);
  std::vector<ConjunctiveQuery> queries = enumerator.Run();
  if (!options.include_disconnected) {
    // Keep only queries whose atoms are all reachable from x through shared
    // variables.
    std::vector<ConjunctiveQuery> connected;
    for (ConjunctiveQuery& q : queries) {
      std::vector<bool> reachable(q.num_variables(), false);
      reachable[q.free_variable()] = true;
      bool changed = true;
      while (changed) {
        changed = false;
        for (const CqAtom& atom : q.atoms()) {
          bool touches = false;
          for (Variable v : atom.args) touches = touches || reachable[v];
          if (!touches) continue;
          for (Variable v : atom.args) {
            if (!reachable[v]) {
              reachable[v] = true;
              changed = true;
            }
          }
        }
      }
      bool all = true;
      for (Variable v = 0; v < q.num_variables(); ++v) {
        all = all && reachable[v];
      }
      if (all) connected.push_back(std::move(q));
    }
    return connected;
  }
  return queries;
}

std::size_t CountFeatureQueries(const std::shared_ptr<const Schema>& schema,
                                std::size_t m,
                                const EnumerationOptions& options) {
  return EnumerateFeatureQueries(schema, m, options).size();
}

}  // namespace featsep
