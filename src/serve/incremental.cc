#include "serve/incremental.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "cq/homomorphism.h"
#include "linsep/separability_lp.h"
#include "util/check.h"

namespace featsep {
namespace serve {

namespace {

/// True iff every atom of `q` is connected to the free variable through
/// shared variables — the precondition of the neighborhood screen. A free
/// variable occurring in no atom, or any detached atom (nullary atoms
/// always are), makes the query's truth at an entity sensitive to facts
/// arbitrarily far away.
bool ConnectedToFreeVariable(const ConjunctiveQuery& q) {
  const std::vector<CqAtom>& atoms = q.atoms();
  if (atoms.empty()) return true;  // Nothing whose truth could flip.
  const Variable x = q.free_variable();
  auto contains = [](const CqAtom& atom, Variable v) {
    return std::find(atom.args.begin(), atom.args.end(), v) != atom.args.end();
  };
  auto share_variable = [](const CqAtom& a, const CqAtom& b) {
    for (Variable v : a.args) {
      if (std::find(b.args.begin(), b.args.end(), v) != b.args.end()) {
        return true;
      }
    }
    return false;
  };
  std::vector<char> visited(atoms.size(), 0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    if (contains(atoms[i], x)) {
      visited[i] = 1;
      stack.push_back(i);
    }
  }
  if (stack.empty()) return false;  // x unconstrained: global flips possible.
  while (!stack.empty()) {
    std::size_t a = stack.back();
    stack.pop_back();
    for (std::size_t b = 0; b < atoms.size(); ++b) {
      if (!visited[b] && share_variable(atoms[a], atoms[b])) {
        visited[b] = 1;
        stack.push_back(b);
      }
    }
  }
  return std::all_of(visited.begin(), visited.end(),
                     [](char v) { return v != 0; });
}

}  // namespace

std::vector<Value> AffectedEntities(const Database& db_after,
                                    const Delta& delta,
                                    const ConjunctiveQuery& query,
                                    const FeatureAnswer* previous) {
  // Relation screen: a homomorphism q → D only ever maps atoms onto facts
  // of the atoms' relations, so a delta on a relation q never mentions
  // leaves q(D) untouched. η(e) deltas are exempt — the answer is
  // q(D) ∩ η(D), whose η part every feature depends on.
  if (!delta.entity_fact) {
    const std::vector<CqAtom>& atoms = query.atoms();
    const bool mentioned =
        std::any_of(atoms.begin(), atoms.end(), [&](const CqAtom& atom) {
          return atom.relation == delta.relation;
        });
    if (!mentioned) return {};
  }

  const std::vector<Value> entities = db_after.Entities();
  const bool insert = delta.kind == Delta::Kind::kInsert;
  // Direction screen: inserts only ever select, removes only ever deselect.
  // The previous answer is probed by name — a brand-new entity is simply
  // "previously unselected". Without a previous answer every entity can
  // flip as far as this screen knows.
  auto can_flip = [&](Value e) {
    if (previous == nullptr) return true;
    const bool was = previous->SelectsName(db_after.value_name(e));
    return insert ? !was : was;
  };

  std::vector<Value> affected;
  if (!ConnectedToFreeVariable(query)) {
    for (Value e : entities) {
      if (can_flip(e)) affected.push_back(e);
    }
    return affected;
  }

  // Neighborhood screen: BFS over fact-hops from the delta's touched
  // values. A flip at entity e needs a hom whose image contains the
  // delta's fact; with every atom connected to x, that image is a
  // connected set of at most |atoms| facts, so e lies within |atoms| hops.
  const std::size_t radius = query.atoms().size();
  std::unordered_set<Value> reached(delta.touched.begin(),
                                    delta.touched.end());
  std::vector<Value> frontier(delta.touched.begin(), delta.touched.end());
  for (std::size_t step = 0; step < radius && !frontier.empty(); ++step) {
    std::vector<Value> next;
    for (Value v : frontier) {
      if (v >= db_after.num_values()) continue;
      for (FactIndex fi : db_after.FactsContaining(v)) {
        for (Value u : db_after.fact(fi).args) {
          if (reached.insert(u).second) next.push_back(u);
        }
      }
    }
    frontier = std::move(next);
  }
  for (Value e : entities) {
    if (reached.count(e) > 0 && can_flip(e)) affected.push_back(e);
  }
  return affected;
}

IncrementalMaintainer::IncrementalMaintainer(
    EvalService* service, std::vector<ConjunctiveQuery> features)
    : service_(service), features_(std::move(features)) {
  FEATSEP_CHECK(service_ != nullptr);
  feature_strings_.reserve(features_.size());
  evaluators_.reserve(features_.size());
  for (const ConjunctiveQuery& feature : features_) {
    feature_strings_.push_back(feature.ToString());
    evaluators_.push_back(std::make_unique<CqEvaluator>(feature));
  }
}

DeltaMaintenance IncrementalMaintainer::ApplyDelta(const Database& db_after,
                                                   const Delta& delta) {
  DeltaMaintenance out;
  out.old_digest = delta.old_digest;
  out.new_digest = delta.new_digest;
  if (!delta.applied) {
    ++stats_.noop_deltas;
    return out;
  }
  ++stats_.deltas_applied;
  out.entity_set_changed = delta.entity_fact;

  std::unordered_set<std::string> changed;
  // An η(e) delta changes e's row existence itself.
  if (delta.entity_fact) changed.insert(db_after.value_name(delta.args[0]));

  const std::vector<Value> entities = db_after.Entities();
  for (std::size_t i = 0; i < features_.size(); ++i) {
    const std::string& fstr = feature_strings_[i];
    std::shared_ptr<const FeatureAnswer> previous =
        service_->PeekCached(delta.old_digest, fstr);
    if (previous == nullptr) {
      // Cold in both tiers: nothing stale can ever be served, and the next
      // read computes fresh under the new digest. The feature's rows may
      // still have moved, though, so report the screen's superset (sans
      // direction — there is no previous answer) to keep downstream
      // warm-start consumers sound.
      for (Value e :
           AffectedEntities(db_after, delta, features_[i], nullptr)) {
        changed.insert(db_after.value_name(e));
      }
      ++stats_.features_skipped;
      continue;
    }
    const std::vector<Value> suspects =
        AffectedEntities(db_after, delta, features_[i], previous.get());
    stats_.entities_screened_out += entities.size() - suspects.size();
    std::unordered_set<std::string> names = previous->names();
    if (delta.entity_fact && delta.kind == Delta::Kind::kRemove) {
      // The entity left η(D); its answer-set membership goes with it.
      names.erase(db_after.value_name(delta.args[0]));
    }
    CqEvaluator::Binding binding = evaluators_[i]->Bind(db_after);
    for (Value e : suspects) {
      const std::string& name = db_after.value_name(e);
      const bool was = previous->SelectsName(name);
      const bool now = binding.SelectsEntity(e);
      ++stats_.entities_rechecked;
      if (now != was) {
        ++stats_.cells_changed;
        changed.insert(name);
      }
      if (now) {
        names.insert(name);
      } else {
        names.erase(name);
      }
    }
    service_->Republish(delta.old_digest, delta.new_digest, fstr,
                        std::make_shared<const FeatureAnswer>(std::move(names)));
    ++stats_.features_patched;
  }

  out.changed_entities.assign(changed.begin(), changed.end());
  std::sort(out.changed_entities.begin(), out.changed_entities.end());
  return out;
}

IncrementalSeparability::IncrementalSeparability(
    std::vector<ConjunctiveQuery> features)
    : features_(std::move(features)) {}

IncrementalSeparability::Verdict IncrementalSeparability::Recheck(
    const TrainingDatabase& training, EvalService* service,
    const std::vector<std::string>& changed_entities) {
  FEATSEP_CHECK(service != nullptr);
  FEATSEP_CHECK(training.IsFullyLabeled());
  const Database& db = training.database();
  const std::vector<Value> entities = db.Entities();
  const std::vector<FeatureVector> rows = service->Matrix(features_, db);

  // The changed-row set the warm start may trust: the caller's names (from
  // DeltaMaintenance) plus everything this class can see shifted itself —
  // relabeled entities and entities absent from the previous call.
  std::unordered_set<std::string> changed(changed_entities.begin(),
                                          changed_entities.end());
  std::unordered_map<std::string, Label> labels;
  labels.reserve(entities.size());
  for (Value e : entities) {
    const std::string& name = db.value_name(e);
    const Label label = training.label(e);
    labels.emplace(name, label);
    auto it = prev_labels_.find(name);
    if (it == prev_labels_.end() || it->second != label) changed.insert(name);
  }

  TrainingCollection collection;
  collection.reserve(entities.size());
  std::vector<std::size_t> changed_rows;
  for (std::size_t i = 0; i < entities.size(); ++i) {
    collection.emplace_back(rows[i], training.label(entities[i]));
    if (changed.count(db.value_name(entities[i])) > 0) {
      changed_rows.push_back(i);
    }
  }

  Verdict verdict;
  // Linear separability: warm-start only from a previous *separable*
  // verdict — examples leaving or a previously-infeasible system can both
  // turn inseparable into separable, so "still infeasible" never transfers.
  if (has_previous_ && prev_lin_separable_ && prev_classifier_.has_value() &&
      changed_rows.size() < collection.size()) {
    SeparatorSearch search = TryFindSeparatorWarm(collection, *prev_classifier_,
                                                  changed_rows, nullptr);
    verdict.lin_separable = search.classifier.has_value();
    verdict.classifier = std::move(search.classifier);
    if (verdict.lin_separable &&
        verdict.classifier->weights() == prev_classifier_->weights() &&
        verdict.classifier->threshold() == prev_classifier_->threshold()) {
      ++stats_.lin_warm_hits;
    } else {
      ++stats_.lin_resolves;
    }
  } else {
    std::optional<LinearClassifier> classifier = FindSeparator(collection);
    verdict.lin_separable = classifier.has_value();
    verdict.classifier = std::move(classifier);
    ++stats_.lin_resolves;
  }

  // CQ-SEP: reuse, witness-recheck, or full sweep — in that order.
  const std::uint64_t digest = db.ContentDigest();
  if (has_previous_ && digest == prev_digest_ && labels == prev_labels_ &&
      prev_cq_.outcome == BudgetOutcome::kCompleted) {
    verdict.cq_sep = prev_cq_;
    ++stats_.cqsep_reuses;
  } else {
    bool witnessed = false;
    if (has_previous_ && !prev_cq_.separable && prev_cq_.conflict.has_value()) {
      Value p = prev_cq_.conflict->first;
      Value n = prev_cq_.conflict->second;
      const Labeling& labeling = training.labeling();
      if (db.IsEntity(p) && db.IsEntity(n) && labeling.Has(p) &&
          labeling.Has(n) && labeling.Get(p) != labeling.Get(n)) {
        // Re-orient so the reported pair stays (positive, negative).
        if (labeling.Get(p) < 0) std::swap(p, n);
        if (HomEquivalent(db, {p}, db, {n})) {
          // Still a differently-labeled hom-equivalent pair: sound
          // inseparability, no sweep. (The pair may differ from the full
          // sweep's first-in-scan-order conflict; the verdict never does.)
          verdict.cq_sep.separable = false;
          verdict.cq_sep.conflict = std::make_pair(p, n);
          verdict.cq_sep.pairs_checked = 1;
          witnessed = true;
          ++stats_.cqsep_witness_hits;
        }
      }
    }
    if (!witnessed) {
      verdict.cq_sep = DecideCqSep(training);
      ++stats_.cqsep_resolves;
    }
  }

  has_previous_ = true;
  prev_digest_ = digest;
  prev_labels_ = std::move(labels);
  prev_lin_separable_ = verdict.lin_separable;
  prev_classifier_ = verdict.classifier;
  prev_cq_ = verdict.cq_sep;
  return verdict;
}

}  // namespace serve
}  // namespace featsep
