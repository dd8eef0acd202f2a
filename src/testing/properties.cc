#include "testing/properties.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <filesystem>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <unordered_map>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "core/dimension_bounded.h"
#include "core/separability.h"
#include "core/statistic.h"
#include "covergame/cover_game.h"
#include "cq/containment.h"
#include "cq/core.h"
#include "cq/decomposed_evaluation.h"
#include "cq/enumeration.h"
#include "cq/evaluation.h"
#include "cq/homomorphism.h"
#include "hypertree/decomposition.h"
#include "hypertree/ghw.h"
#include "io/writer.h"
#include "qbe/qbe.h"
#include "serve/async_service.h"
#include "serve/eval_service.h"
#include "serve/incremental.h"
#include "serve/shard_protocol.h"
#include "workload/generators.h"
#include "testing/reference_ghw.h"
#include "testing/reference_hom.h"
#include "testing/reference_lp.h"
#include "testing/shrink.h"
#include "util/check.h"

namespace featsep {
namespace testing {

namespace {

PropertyViolation Violation(std::string property, std::string detail) {
  return PropertyViolation{std::move(property), std::move(detail)};
}

std::string DescribeHomPair(const Database& from, const Database& to) {
  std::ostringstream out;
  out << "from:\n" << WriteDatabase(from) << "to:\n" << WriteDatabase(to);
  return out.str();
}

std::string DescribeValues(const Database& db,
                           const std::vector<Value>& values) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out << ", ";
    out << db.value_name(values[i]);
  }
  out << "]";
  return out.str();
}

}  // namespace

PropertyCheck CheckHomAgainstReference(
    const Database& from, const Database& to,
    const std::vector<std::pair<Value, Value>>& seed) {
  HomResult fast = FindHomomorphism(from, to, seed);
  if (fast.status == HomStatus::kExhausted) {
    return Violation("hom-vs-reference/status",
                     "kernel reported kExhausted with no node budget\n" +
                         DescribeHomPair(from, to));
  }
  std::optional<std::vector<Value>> ref = RefFindHomomorphism(from, to, seed);
  bool fast_found = fast.status == HomStatus::kFound;
  if (fast_found != ref.has_value()) {
    std::ostringstream detail;
    detail << "kernel says " << (fast_found ? "FOUND" : "NONE")
           << ", reference says " << (ref.has_value() ? "FOUND" : "NONE")
           << "\n"
           << DescribeHomPair(from, to);
    return Violation("hom-vs-reference/status", detail.str());
  }
  if (fast_found) {
    if (!RefIsHomomorphism(from, to, fast.mapping)) {
      return Violation("hom-vs-reference/witness",
                       "kernel witness is not a homomorphism\n" +
                           DescribeHomPair(from, to));
    }
    for (const auto& [source, image] : seed) {
      if (source < fast.mapping.size() && from.InDomain(source) &&
          fast.mapping[source] != image) {
        return Violation("hom-vs-reference/seed",
                         "kernel witness ignores a seed pair\n" +
                             DescribeHomPair(from, to));
      }
    }
  }

  HomOptions no_fc;
  no_fc.forward_checking = false;
  HomResult unpruned = FindHomomorphism(from, to, seed, no_fc);
  if ((unpruned.status == HomStatus::kFound) != fast_found) {
    return Violation("hom-vs-reference/forward-checking",
                     "decision differs with forward checking off\n" +
                         DescribeHomPair(from, to));
  }

  if (ref.has_value()) {
    // Seeding the reference witness as a value-ordering hint must affect
    // exploration order only, never the decision or witness validity.
    HomOptions preferred;
    for (Value v : from.domain()) {
      preferred.prefer.emplace_back(v, (*ref)[v]);
    }
    HomResult hinted = FindHomomorphism(from, to, seed, preferred);
    if (hinted.status != HomStatus::kFound ||
        !RefIsHomomorphism(from, to, hinted.mapping)) {
      return Violation("hom-vs-reference/prefer",
                       "witness-seeded prefer changed the decision or "
                       "produced an invalid witness\n" +
                           DescribeHomPair(from, to));
    }
  }

  // The deterministic single-worker restart mode: same decision, and two
  // identically-seeded runs must reproduce each other bit for bit.
  HomOptions restarting;
  restarting.sequential_restarts = true;
  restarting.restart_base = 8;  // Small, so real searches actually restart.
  restarting.rng_seed = 1;
  HomResult restarted = FindHomomorphism(from, to, seed, restarting);
  if ((restarted.status == HomStatus::kFound) != fast_found) {
    return Violation("hom-vs-reference/restarts",
                     "decision differs under sequential restart search\n" +
                         DescribeHomPair(from, to));
  }
  if (restarted.status == HomStatus::kFound &&
      !RefIsHomomorphism(from, to, restarted.mapping)) {
    return Violation("hom-vs-reference/restarts",
                     "restart search produced an invalid witness\n" +
                         DescribeHomPair(from, to));
  }
  HomResult replayed = FindHomomorphism(from, to, seed, restarting);
  if (replayed.status != restarted.status ||
      replayed.nodes != restarted.nodes ||
      replayed.restarts != restarted.restarts ||
      replayed.nogoods_recorded != restarted.nogoods_recorded) {
    return Violation("hom-vs-reference/restart-determinism",
                     "two identically-seeded restart runs diverged\n" +
                         DescribeHomPair(from, to));
  }

  // Parallel workers with and without nogood sharing: the decision is
  // schedule-independent and every witness must verify (the witness itself
  // may legitimately differ between runs).
  for (std::size_t threads : {2u, 8u}) {
    for (bool nogoods : {true, false}) {
      HomOptions parallel;
      parallel.num_threads = threads;
      parallel.use_nogoods = nogoods;
      parallel.restart_base = 8;
      parallel.rng_seed = 3;
      HomResult result = FindHomomorphism(from, to, seed, parallel);
      if ((result.status == HomStatus::kFound) != fast_found) {
        std::ostringstream detail;
        detail << "decision differs at " << threads << " threads (nogoods "
               << (nogoods ? "on" : "off") << ")\n"
               << DescribeHomPair(from, to);
        return Violation("hom-vs-reference/parallel", detail.str());
      }
      if (result.status == HomStatus::kFound &&
          !RefIsHomomorphism(from, to, result.mapping)) {
        std::ostringstream detail;
        detail << "invalid parallel witness at " << threads
               << " threads (nogoods " << (nogoods ? "on" : "off") << ")\n"
               << DescribeHomPair(from, to);
        return Violation("hom-vs-reference/parallel", detail.str());
      }
    }
  }
  return std::nullopt;
}

PropertyCheck CheckHomComposition(const Database& a, const Database& b,
                                  const Database& c) {
  HomResult f = FindHomomorphism(a, b);
  HomResult g = FindHomomorphism(b, c);
  if (f.status != HomStatus::kFound || g.status != HomStatus::kFound) {
    return std::nullopt;  // Vacuous for this triple.
  }
  std::vector<Value> composite(a.num_values(), kNoValue);
  for (Value v : a.domain()) {
    composite[v] = g.mapping[f.mapping[v]];
  }
  if (!RefIsHomomorphism(a, c, composite)) {
    return Violation("hom-composition/witness",
                     "g∘f is not a homomorphism a → c\n" +
                         DescribeHomPair(a, c));
  }
  if (!HomomorphismExists(a, c)) {
    return Violation("hom-composition/closure",
                     "a → b and b → c but kernel denies a → c\n" +
                         DescribeHomPair(a, c));
  }
  return std::nullopt;
}

PropertyCheck CheckEvaluationAgainstReference(const ConjunctiveQuery& query,
                                              const Database& db,
                                              std::size_t max_width) {
  std::vector<Value> fast = CqEvaluator(query).Evaluate(db);
  std::vector<Value> ref = RefEvaluateUnaryCq(query, db);
  if (fast != ref) {
    std::ostringstream detail;
    detail << query.ToString() << "\nkernel q(D) = " << DescribeValues(db, fast)
           << ", reference q(D) = " << DescribeValues(db, ref) << "\nD:\n"
           << WriteDatabase(db);
    return Violation("eval-vs-reference", detail.str());
  }
  std::optional<DecomposedEvaluator> plan =
      DecomposedEvaluator::Create(query, max_width);
  if (plan.has_value()) {
    std::vector<Value> decomposed = plan->Evaluate(db);
    if (decomposed != ref) {
      std::ostringstream detail;
      detail << query.ToString() << " (width " << plan->width()
             << ")\ndecomposed q(D) = " << DescribeValues(db, decomposed)
             << ", reference q(D) = " << DescribeValues(db, ref) << "\nD:\n"
             << WriteDatabase(db);
      return Violation("decomposed-eval-vs-reference", detail.str());
    }
  }
  return std::nullopt;
}

PropertyCheck CheckContainmentAgainstReference(const ConjunctiveQuery& q1,
                                               const ConjunctiveQuery& q2,
                                               const Database& db) {
  if (!IsContainedIn(q1, q1) || !IsContainedIn(q2, q2)) {
    return Violation("containment/reflexivity",
                     "q ⊈ q for " + q1.ToString() + " or " + q2.ToString());
  }
  bool fast12 = IsContainedIn(q1, q2);
  bool ref12 = RefIsContainedIn(q1, q2);
  bool fast21 = IsContainedIn(q2, q1);
  bool ref21 = RefIsContainedIn(q2, q1);
  if (fast12 != ref12 || fast21 != ref21) {
    std::ostringstream detail;
    detail << "q1 = " << q1.ToString() << "\nq2 = " << q2.ToString()
           << "\nkernel (q1⊆q2, q2⊆q1) = (" << fast12 << ", " << fast21
           << "), reference = (" << ref12 << ", " << ref21 << ")";
    return Violation("containment-vs-reference", detail.str());
  }
  if (fast12) {
    // Semantic soundness on data: q1 ⊆ q2 implies q1(D) ⊆ q2(D).
    std::vector<Value> eval1 = RefEvaluateUnaryCq(q1, db);
    std::vector<Value> eval2 = RefEvaluateUnaryCq(q2, db);
    for (Value e : eval1) {
      if (std::find(eval2.begin(), eval2.end(), e) == eval2.end()) {
        std::ostringstream detail;
        detail << "q1 ⊆ q2 but " << db.value_name(e)
               << " ∈ q1(D) \\ q2(D)\nq1 = " << q1.ToString()
               << "\nq2 = " << q2.ToString() << "\nD:\n" << WriteDatabase(db);
        return Violation("containment/semantics", detail.str());
      }
    }
  }
  return std::nullopt;
}

PropertyCheck CheckCoreProperties(const Database& db,
                                  const std::vector<Value>& frozen) {
  Database core = CoreOf(db, frozen);
  for (const Fact& fact : core.facts()) {
    if (!db.ContainsFact(fact)) {
      return Violation("core/subset",
                       "core contains a fact absent from the input\n" +
                           DescribeHomPair(db, core));
    }
  }
  if (!RefHomEquivalent(db, frozen, core, frozen)) {
    return Violation("core/hom-equivalence",
                     "core not hom-equivalent to its input (frozen " +
                         DescribeValues(db, frozen) + ")\n" +
                         DescribeHomPair(db, core));
  }
  Database core2 = CoreOf(core, frozen);
  bool same = core2.size() == core.size();
  if (same) {
    for (const Fact& fact : core2.facts()) {
      if (!core.ContainsFact(fact)) {
        same = false;
        break;
      }
    }
  }
  if (!same) {
    return Violation("core/idempotence",
                     "coring the core changed it\n" +
                         DescribeHomPair(core, core2));
  }
  return std::nullopt;
}

PropertyCheck CheckGhwProperties(const ConjunctiveQuery& query) {
  Hypergraph graph = QueryHypergraph(query);
  std::size_t width = QueryGhw(query);
  if (width >= 1) {
    std::optional<TreeDecomposition> td = DecideGhwAtMost(graph, width);
    if (!td.has_value()) {
      return Violation("ghw/witness",
                       "Ghw = " + std::to_string(width) +
                           " but DecideGhwAtMost(width) found nothing: " +
                           query.ToString());
    }
    std::string error;
    if (!ValidateDecomposition(graph, *td, width, &error)) {
      return Violation("ghw/witness-validity",
                       error + " for " + query.ToString());
    }
    // Cross-check the validator itself against the brute-force reference:
    // both must accept the witness at `width`, and (tightness permitting)
    // both must reject it at `width - 1`.
    std::string ref_error;
    if (!RefValidateDecomposition(graph, *td, width, &ref_error)) {
      return Violation("ghw/witness-validity-vs-reference",
                       "ValidateDecomposition accepts but the reference "
                       "rejects: " + ref_error + " for " + query.ToString());
    }
    if (width >= 2) {
      bool fast_below = ValidateDecomposition(graph, *td, width - 1);
      bool ref_below = RefValidateDecomposition(graph, *td, width - 1);
      if (fast_below != ref_below) {
        return Violation("ghw/validator-vs-reference",
                         "validators disagree on the witness at width - 1 "
                         "for " + query.ToString());
      }
    }
    if (width >= 2 && DecideGhwAtMost(graph, width - 1).has_value()) {
      return Violation("ghw/tightness",
                       "DecideGhwAtMost succeeded below Ghw for " +
                           query.ToString());
    }
  }
  if (!IsInGhw(query, width + 1)) {
    return Violation("ghw/monotonicity",
                     "q ∈ GHW(k) but q ∉ GHW(k+1) for " + query.ToString());
  }

  // Removing an atom whose existential variables are covered by another
  // atom's cannot increase the width: any bag cover using the removed
  // atom's edge can use the subsuming atom's edge instead.
  const std::vector<Variable>& free = query.free_variables();
  auto existential_vars = [&](const CqAtom& atom) {
    std::vector<Variable> vars;
    for (Variable v : atom.args) {
      if (std::find(free.begin(), free.end(), v) == free.end() &&
          std::find(vars.begin(), vars.end(), v) == vars.end()) {
        vars.push_back(v);
      }
    }
    std::sort(vars.begin(), vars.end());
    return vars;
  };
  const std::vector<CqAtom>& atoms = query.atoms();
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    std::vector<Variable> vi = existential_vars(atoms[i]);
    for (std::size_t j = 0; j < atoms.size(); ++j) {
      if (i == j) continue;
      std::vector<Variable> vj = existential_vars(atoms[j]);
      if (!std::includes(vj.begin(), vj.end(), vi.begin(), vi.end())) {
        continue;
      }
      ConjunctiveQuery reduced = WithoutAtom(query, i);
      std::size_t reduced_width = QueryGhw(reduced);
      if (reduced_width > width) {
        return Violation(
            "ghw/subsumed-atom-removal",
            "removing a subsumed atom raised ghw from " +
                std::to_string(width) + " to " +
                std::to_string(reduced_width) + " for " + query.ToString());
      }
      break;  // One subsumed pair per atom i is enough.
    }
  }
  return std::nullopt;
}

PropertyCheck CheckSepThreadDeterminism(const TrainingDatabase& training) {
  // The last leg nests parallel hom searches inside the parallel sweep.
  CqSepResult results[4];
  const std::size_t thread_counts[4] = {1, 2, 8, 4};
  const std::size_t hom_thread_counts[4] = {1, 1, 1, 4};
  for (int i = 0; i < 4; ++i) {
    CqSepOptions options;
    options.num_threads = thread_counts[i];
    options.hom_threads = hom_thread_counts[i];
    results[i] = DecideCqSep(training, options);
  }
  for (int i = 1; i < 4; ++i) {
    if (results[i].separable != results[0].separable ||
        results[i].conflict != results[0].conflict) {
      std::ostringstream detail;
      detail << "DecideCqSep differs between 1 and " << thread_counts[i]
             << "x" << hom_thread_counts[i] << " threads\n"
             << WriteTrainingDatabase(training);
      return Violation("sep/thread-determinism", detail.str());
    }
  }

  // Theorem 3.2 oracle: separable iff no differently-labeled pair of
  // entities is hom-equivalent as pointed databases.
  const Database& db = training.database();
  bool ref_separable = true;
  for (Value p : training.PositiveExamples()) {
    for (Value n : training.NegativeExamples()) {
      if (RefHomEquivalent(db, {p}, db, {n})) {
        ref_separable = false;
        break;
      }
    }
    if (!ref_separable) break;
  }
  if (results[0].separable != ref_separable) {
    std::ostringstream detail;
    detail << "DecideCqSep says " << results[0].separable
           << ", reference pairwise sweep says " << ref_separable << "\n"
           << WriteTrainingDatabase(training);
    return Violation("sep-vs-reference", detail.str());
  }
  if (!results[0].separable) {
    if (!results[0].conflict.has_value()) {
      return Violation("sep/conflict-missing",
                       "inseparable without a conflict pair\n" +
                           WriteTrainingDatabase(training));
    }
    auto [x, y] = *results[0].conflict;
    if (training.label(x) == training.label(y) ||
        !RefHomEquivalent(db, {x}, db, {y})) {
      return Violation("sep/conflict-invalid",
                       "reported conflict pair is not a differently-labeled "
                       "hom-equivalent pair\n" +
                           WriteTrainingDatabase(training));
    }
  }
  return std::nullopt;
}

PropertyCheck CheckQbeProperties(const Database& db,
                                 const std::vector<Value>& positives,
                                 const std::vector<Value>& negatives,
                                 std::size_t m) {
  QbeInstance instance;
  instance.db = &db;
  instance.positives = positives;
  instance.negatives = negatives;
  auto describe = [&] {
    std::ostringstream out;
    out << "S+ = " << DescribeValues(db, positives)
        << ", S- = " << DescribeValues(db, negatives) << ", m = " << m
        << "\nD:\n" << WriteDatabase(db);
    return out.str();
  };

  // SolveCqQbe: 1/2/8-thread determinism of decision and explanation, plus
  // a 4x4 leg that nests parallel hom searches inside the negative scan.
  QbeResult results[4];
  const std::size_t thread_counts[4] = {1, 2, 8, 4};
  const std::size_t hom_thread_counts[4] = {1, 1, 1, 4};
  for (int i = 0; i < 4; ++i) {
    QbeOptions options;
    options.num_threads = thread_counts[i];
    options.hom_threads = hom_thread_counts[i];
    results[i] = SolveCqQbe(instance, options);
  }
  for (int i = 1; i < 4; ++i) {
    if (results[i].exists != results[0].exists ||
        results[i].explanation.has_value() !=
            results[0].explanation.has_value() ||
        (results[i].explanation.has_value() &&
         results[i].explanation->ToString() !=
             results[0].explanation->ToString())) {
      return Violation("qbe/thread-determinism",
                       "SolveCqQbe differs between 1 and " +
                           std::to_string(thread_counts[i]) + "x" +
                           std::to_string(hom_thread_counts[i]) +
                           " threads\n" + describe());
    }
  }
  const QbeResult& cq = results[0];

  // Screening law for the explanation, canonical and minimized alike:
  // selects every positive, no negative.
  QbeOptions minimize;
  minimize.minimize_explanation = true;
  QbeResult minimized = SolveCqQbe(instance, minimize);
  if (minimized.exists != cq.exists) {
    return Violation("qbe/minimize-decision",
                     "minimize_explanation changed the decision\n" +
                         describe());
  }
  for (const QbeResult* result :
       {&cq, static_cast<const QbeResult*>(&minimized)}) {
    if (!result->exists) continue;
    if (!result->explanation.has_value()) {
      return Violation("qbe/explanation-missing",
                       "explanation exists but none returned\n" + describe());
    }
    CqEvaluator evaluator(*result->explanation);
    for (Value e : positives) {
      if (!evaluator.Selects(db, {e})) {
        return Violation("qbe/explanation-screens",
                         "explanation misses positive " + db.value_name(e) +
                             "\n" + describe());
      }
    }
    for (Value b : negatives) {
      if (evaluator.Selects(db, {b})) {
        return Violation("qbe/explanation-screens",
                         "explanation selects negative " + db.value_name(b) +
                             "\n" + describe());
      }
    }
  }

  // Without negatives the canonical product query always explains.
  if (!cq.exists) {
    QbeInstance unconstrained = instance;
    unconstrained.negatives.clear();
    if (!SolveCqQbe(unconstrained).exists) {
      return Violation("qbe/negatives-removed",
                       "no explanation even with S- empty\n" + describe());
    }
  }

  // SolveCqmQbe: the serve path (cold cache, then warm) must reproduce the
  // unserved sweep bit-for-bit.
  QbeResult serial = SolveCqmQbe(instance, m);
  serve::ServeOptions serve_options;
  serve_options.num_shards = 2;
  serve::EvalService service(serve_options);
  QbeOptions with_service;
  with_service.service = &service;
  QbeResult served_cold = SolveCqmQbe(instance, m, 0, with_service);
  QbeResult served_warm = SolveCqmQbe(instance, m, 0, with_service);
  for (const auto& [label, served] :
       {std::pair<const char*, const QbeResult*>{"cold", &served_cold},
        std::pair<const char*, const QbeResult*>{"warm", &served_warm}}) {
    if (served->exists != serial.exists ||
        served->explanation.has_value() != serial.explanation.has_value() ||
        (served->explanation.has_value() &&
         served->explanation->ToString() !=
             serial.explanation->ToString())) {
      return Violation("qbe/serve-vs-serial",
                       std::string("SolveCqmQbe via EvalService (") + label +
                           " cache) differs from the unserved sweep\n" +
                           describe());
    }
  }

  if (serial.exists) {
    // The CQ[m] explanation screens under the *reference* evaluator...
    FEATSEP_CHECK(serial.explanation.has_value());
    std::vector<Value> answer = RefEvaluateUnaryCq(*serial.explanation, db);
    for (Value e : positives) {
      if (std::find(answer.begin(), answer.end(), e) == answer.end()) {
        return Violation("qbe/cqm-screens",
                         "CQ[m] explanation misses positive " +
                             db.value_name(e) + "\n" + describe());
      }
    }
    for (Value b : negatives) {
      if (std::find(answer.begin(), answer.end(), b) != answer.end()) {
        return Violation("qbe/cqm-screens",
                         "CQ[m] explanation selects negative " +
                             db.value_name(b) + "\n" + describe());
      }
    }
    // ... and CQ[m]-explainability implies CQ-explainability (CQ[m] ⊆ CQ).
    if (!cq.exists) {
      return Violation("qbe/cqm-implies-cq",
                       "a CQ[m] explanation exists but SolveCqQbe says no "
                       "CQ explanation does\n" + describe());
    }
  }
  return std::nullopt;
}

PropertyCheck CheckCoverGameProperties(const Database& from,
                                       const Database& to, std::size_t k) {
  FEATSEP_CHECK_GE(k, 1u);
  auto describe = [&](Value a, Value b) {
    std::ostringstream out;
    out << "pebbles " << from.value_name(a) << " -> " << to.value_name(b)
        << " at k=" << k << "\n" << DescribeHomPair(from, to);
    return out.str();
  };

  CoverGameSolver solver_k(from, to, k);
  CoverGameSolver solver_k1(from, to, k + 1);
  // Completeness check only when the position set of k = |from| stays tiny.
  std::optional<CoverGameSolver> solver_full;
  if (from.size() >= 1 && from.size() <= 3) {
    solver_full.emplace(from, to, from.size());
  }

  std::vector<Value> a_sample = from.domain();
  if (a_sample.size() > 3) a_sample.resize(3);
  std::vector<Value> b_sample = to.domain();
  if (b_sample.size() > 3) b_sample.resize(3);

  for (Value a : a_sample) {
    for (Value b : b_sample) {
      bool wins = solver_k.Decide({a}, {b});
      if (solver_k.Decide({a}, {b}) != wins) {
        return Violation("covergame/idempotent",
                         "Decide changed its answer on a second call\n" +
                             describe(a, b));
      }
      if (CoverGameWins(from, {a}, to, {b}, k) != wins) {
        return Violation("covergame/solver-reuse",
                         "a fresh solver disagrees with the shared one\n" +
                             describe(a, b));
      }
      if (solver_k1.Decide({a}, {b}) && !wins) {
        return Violation(
            "covergame/monotone-k",
            "(from, a) ->_{k+1} (to, b) holds but ->_k fails\n" +
                describe(a, b));
      }
      bool hom = RefHomomorphismExists(from, to, {{a, b}});
      if (hom && !wins) {
        return Violation(
            "covergame/hom-implies-win",
            "a full homomorphism extends the pebbles but Duplicator "
            "loses\n" + describe(a, b));
      }
      if (solver_full.has_value() && solver_full->Decide({a}, {b}) != hom) {
        return Violation(
            "covergame/full-k-is-hom",
            "->_{|from|} disagrees with pointed homomorphism existence\n" +
                describe(a, b));
      }
    }
  }

  // Two-pebble soundness: repeated or paired pebbles behave like a seed.
  if (a_sample.size() >= 2 && b_sample.size() >= 2) {
    std::vector<Value> a2 = {a_sample[0], a_sample[1]};
    std::vector<Value> b2 = {b_sample[0], b_sample[1]};
    if (RefHomomorphismExists(from, to, {{a2[0], b2[0]}, {a2[1], b2[1]}}) &&
        !solver_k.Decide(a2, b2)) {
      return Violation("covergame/hom-implies-win",
                       "a full homomorphism extends a pebble pair but "
                       "Duplicator loses\n" + DescribeHomPair(from, to));
    }
  }

  // Preorder laws over `from` alone.
  std::vector<Value> elements = from.domain();
  if (elements.size() > 4) elements.resize(4);
  if (!elements.empty()) {
    std::vector<std::vector<bool>> preorder =
        CoverPreorder(from, elements, k);
    std::size_t n = elements.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (!preorder[i][i]) {
        return Violation("covergame/preorder-reflexive",
                         "element " + from.value_name(elements[i]) +
                             " does not cover itself\n" +
                             WriteDatabase(from));
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t l = 0; l < n; ++l) {
          if (preorder[i][j] && preorder[j][l] && !preorder[i][l]) {
            return Violation(
                "covergame/preorder-transitive",
                "->_k fails to compose through " +
                    from.value_name(elements[j]) + "\n" +
                    WriteDatabase(from));
          }
        }
      }
    }
    if (n >= 2 &&
        preorder[0][1] != CoverGameWins(from, {elements[0]}, from,
                                        {elements[1]}, k)) {
      return Violation("covergame/preorder-agrees",
                       "CoverPreorder disagrees with CoverGameWins\n" +
                           WriteDatabase(from));
    }
  }
  return std::nullopt;
}

PropertyCheck CheckSepDimProperties(const TrainingDatabase& training,
                                    std::size_t ell) {
  FEATSEP_CHECK_GE(ell, 1u);
  QbeOracle oracle = MakeCqQbeOracle();
  std::vector<Value> entities = training.Entities();
  auto describe = [&]() {
    std::ostringstream out;
    out << "ell=" << ell << "\n" << WriteTrainingDatabase(training);
    return out.str();
  };

  SepDimResult at_ell = DecideSepDim(training, ell, oracle);
  SepDimResult at_ell1 = DecideSepDim(training, ell + 1, oracle);
  if (at_ell.separable && !at_ell1.separable) {
    return Violation("dimension/monotone-ell",
                     "Sep[ell] holds but Sep[ell+1] fails\n" + describe());
  }

  if (!entities.empty() && entities.size() <= 4) {
    std::size_t ell_max = static_cast<std::size_t>(1)
                          << (entities.size() - 1);
    SepDimResult at_max = DecideSepDim(training, ell_max, oracle);
    bool cq_sep = DecideCqSep(training).separable;
    if (at_max.separable != cq_sep) {
      return Violation(
          "dimension/full-ell-is-cqsep",
          "Sep[2^{n-1}] disagrees with DecideCqSep (Theorem 3.2)\n" +
              describe());
    }
  }

  if (at_ell.separable) {
    if (at_ell.feature_positive_sets.size() > ell) {
      return Violation("dimension/witness-size",
                       "witness uses more than ell feature columns\n" +
                           describe());
    }
    std::vector<std::pair<FeatureVector, Label>> induced;
    for (Value e : entities) {
      FeatureVector features;
      for (const std::vector<Value>& positive_set :
           at_ell.feature_positive_sets) {
        bool in = std::find(positive_set.begin(), positive_set.end(), e) !=
                  positive_set.end();
        features.push_back(in ? 1 : -1);
      }
      induced.emplace_back(std::move(features), training.label(e));
    }
    if (!RefIsLinearlySeparable(induced)) {
      return Violation("dimension/witness-separates",
                       "the witness columns' induced vectors are not "
                       "linearly separable (FM reference)\n" + describe());
    }
    for (const std::vector<Value>& positive_set :
         at_ell.feature_positive_sets) {
      std::vector<Value> negatives;
      for (Value e : entities) {
        if (std::find(positive_set.begin(), positive_set.end(), e) ==
            positive_set.end()) {
          negatives.push_back(e);
        }
      }
      if (positive_set.empty()) continue;  // Constant column: no QBE query.
      QbeInstance instance;
      instance.db = &training.database();
      instance.positives = positive_set;
      instance.negatives = std::move(negatives);
      if (!oracle(instance)) {
        return Violation("dimension/witness-explainable",
                         "a witness bipartition fails the QBE oracle\n" +
                             describe());
      }
    }
  }
  return std::nullopt;
}

PropertyCheck CheckLinsepProperties(
    const std::vector<std::pair<FeatureVector, Label>>& examples,
    const LpProblem& lp) {
  auto describe_examples = [&]() {
    std::ostringstream out;
    for (const auto& [features, label] : examples) {
      for (int f : features) out << (f > 0 ? "+1 " : "-1 ");
      out << ": " << (label > 0 ? "+1" : "-1") << "\n";
    }
    return out.str();
  };

  bool ref_separable = RefIsLinearlySeparable(examples);
  std::optional<LinearClassifier> separator = FindSeparator(examples);
  if (separator.has_value() != ref_separable) {
    return Violation("linsep/separable-vs-fm",
                     std::string("FindSeparator says ") +
                         (separator.has_value() ? "separable" :
                                                  "inseparable") +
                         ", Fourier-Motzkin says the opposite\n" +
                         describe_examples());
  }
  if (IsLinearlySeparable(examples) != ref_separable) {
    return Violation("linsep/decide-vs-fm",
                     "IsLinearlySeparable disagrees with Fourier-Motzkin\n" +
                         describe_examples());
  }
  if (separator.has_value() && separator->CountErrors(examples) != 0) {
    return Violation("linsep/separator-errors",
                     "returned classifier misclassifies a training "
                     "example\n" + describe_examples());
  }

  auto describe_lp = [&]() {
    std::ostringstream out;
    for (std::size_t i = 0; i < lp.a.size(); ++i) {
      for (const Rational& c : lp.a[i]) out << c << " ";
      out << "<= " << lp.b[i] << "\n";
    }
    out << "max:";
    for (const Rational& c : lp.c) out << " " << c;
    out << "\n";
    return out.str();
  };

  if (!lp.c.empty()) {
    LpSolution solution = SolveLp(lp);
    RefLpOutcome reference = RefSolveLpValue(lp);
    if (solution.status != reference.status) {
      return Violation("linsep/lp-status", "SolveLp status disagrees with "
                       "the Fourier-Motzkin reference\n" + describe_lp());
    }
    if (solution.status == LpStatus::kOptimal) {
      if (solution.objective != reference.objective) {
        std::ostringstream out;
        out << "objectives differ: simplex " << solution.objective
            << " vs reference " << reference.objective << "\n"
            << describe_lp();
        return Violation("linsep/lp-objective", out.str());
      }
      Rational attained;
      for (std::size_t j = 0; j < lp.c.size(); ++j) {
        if (solution.x[j].sign() < 0) {
          return Violation("linsep/lp-feasible",
                           "optimal point has a negative coordinate\n" +
                               describe_lp());
        }
        attained += lp.c[j] * solution.x[j];
      }
      if (attained != solution.objective) {
        return Violation("linsep/lp-attains",
                         "c.x does not equal the reported objective\n" +
                             describe_lp());
      }
      for (std::size_t i = 0; i < lp.a.size(); ++i) {
        Rational row;
        for (std::size_t j = 0; j < lp.c.size(); ++j) {
          row += lp.a[i][j] * solution.x[j];
        }
        if (lp.b[i] < row) {
          return Violation("linsep/lp-feasible",
                           "optimal point violates a constraint\n" +
                               describe_lp());
        }
      }
    }
  }
  return std::nullopt;
}

PropertyCheck CheckMinimizeCq(const ConjunctiveQuery& query) {
  ConjunctiveQuery minimized = MinimizeCq(query);
  auto describe = [&]() {
    return "query: " + query.ToString() +
           "\nminimized: " + minimized.ToString() + "\n";
  };

  if (minimized.atoms().size() > query.atoms().size()) {
    return Violation("minimize-cq/no-growth",
                     "minimization added atoms\n" + describe());
  }
  if (minimized.free_variables().size() != query.free_variables().size()) {
    return Violation("minimize-cq/free-tuple",
                     "minimization changed the free tuple length\n" +
                         describe());
  }
  if (!RefIsContainedIn(query, minimized) ||
      !RefIsContainedIn(minimized, query)) {
    return Violation("minimize-cq/equivalent",
                     "MinimizeCq(q) is not equivalent to q\n" + describe());
  }

  // Minimality: dropping any atom must strictly weaken the query. Removing
  // atoms only enlarges answers, so candidate ⊆ minimized is the whole
  // equivalence; skip candidates whose free variables no longer occur
  // (unsafe queries are outside the law's domain).
  for (std::size_t i = 0; i < minimized.atoms().size(); ++i) {
    ConjunctiveQuery candidate = WithoutAtom(minimized, i);
    if (candidate.atoms().empty()) continue;
    bool free_used = true;
    for (Variable v : candidate.free_variables()) {
      bool occurs = false;
      for (const CqAtom& atom : candidate.atoms()) {
        if (std::find(atom.args.begin(), atom.args.end(), v) !=
            atom.args.end()) {
          occurs = true;
          break;
        }
      }
      if (!occurs) {
        free_used = false;
        break;
      }
    }
    if (!free_used) continue;
    if (RefIsContainedIn(candidate, minimized)) {
      std::ostringstream out;
      out << "atom " << i << " of the minimized query is removable\n"
          << describe();
      return Violation("minimize-cq/minimal", out.str());
    }
  }
  return std::nullopt;
}

namespace {

/// The budget outcome an injected fault must latch when it interrupts a run.
/// kBadAlloc never trips the budget — it unwinds as an exception instead.
BudgetOutcome ExpectedFaultOutcome(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCancel: return BudgetOutcome::kCancelled;
    case FaultKind::kTimeout: return BudgetOutcome::kTimedOut;
    case FaultKind::kBadAlloc: return BudgetOutcome::kCompleted;
  }
  return BudgetOutcome::kCompleted;
}

std::string DescribeFault(const TrainingDatabase& training, CoverageSite site,
                          FaultKind kind, std::uint64_t trigger_visit) {
  std::ostringstream out;
  out << "fault: " << FaultKindName(kind) << " at "
      << CoverageSiteName(site) << " visit " << trigger_visit << "\n"
      << "training database:\n" << WriteDatabase(training.database());
  return out.str();
}

}  // namespace

PropertyCheck CheckFaultInjectionProperties(const TrainingDatabase& training,
                                            CoverageSite site, FaultKind kind,
                                            std::uint64_t trigger_visit) {
  const Database& db = training.database();
  auto describe = [&] {
    return DescribeFault(training, site, kind, trigger_visit);
  };
  FaultSpec spec;
  spec.site = site;
  spec.kind = kind;
  spec.trigger_visit = trigger_visit;

  // --- CQ-SEP under fault -------------------------------------------------
  // Ground truth first: decision and conflict pair are deterministic across
  // thread counts (pairs_checked is not — parallel early exit).
  CqSepResult baseline = DecideCqSep(training);
  {
    ExecutionBudget budget;  // Unbounded: only the fault can trip it.
    CqSepOptions options;
    options.budget = &budget;
    bool bad_alloc = false;
    CqSepResult armed;
    {
      ScopedFault fault(spec, &budget);
      try {
        armed = DecideCqSep(training, options);
      } catch (const std::bad_alloc&) {
        bad_alloc = true;
      }
    }
    if (bad_alloc && kind != FaultKind::kBadAlloc) {
      return Violation("faults/sep-spurious-bad-alloc",
                       "std::bad_alloc escaped without a bad-alloc fault\n" +
                           describe());
    }
    if (!bad_alloc) {
      if (armed.outcome == BudgetOutcome::kCompleted) {
        // Completed with a fired timeout/bad-alloc is impossible (they latch
        // or unwind immediately); a fired cancel can be outrun when it lands
        // on the final kernel event, in which case the run is simply the
        // full uninterrupted computation. Either way the answer must match
        // the baseline bit for bit.
        if (kind != FaultKind::kCancel && FaultFireCount() != 0) {
          return Violation("faults/sep-fired-but-completed",
                           "fault fired yet the run reported kCompleted\n" +
                               describe());
        }
        if (armed.separable != baseline.separable ||
            armed.conflict != baseline.conflict) {
          return Violation("faults/sep-completed-mismatch",
                           "completed faulted run differs from baseline\n" +
                               describe());
        }
      } else {
        if (armed.outcome != ExpectedFaultOutcome(kind)) {
          std::ostringstream out;
          out << "interrupted outcome " << BudgetOutcomeName(armed.outcome)
              << " does not match the injected fault\n" << describe();
          return Violation("faults/sep-outcome-kind", out.str());
        }
        if (armed.separable) {
          return Violation("faults/sep-interrupted-separable",
                           "interrupted run claimed separable == true\n" +
                               describe());
        }
        if (armed.conflict.has_value()) {
          // An interrupted run may report a conflict only when it is a sound
          // inseparability witness.
          auto [a, b] = *armed.conflict;
          if (training.label(a) == training.label(b) ||
              !HomEquivalent(db, {a}, db, {b})) {
            return Violation("faults/sep-unsound-conflict",
                             "interrupted run reported an unsound conflict "
                             "pair\n" + describe());
          }
        }
      }
    }
    // Interrupt-then-resume determinism: with the fault disarmed, a fresh
    // run must be bit-identical to the baseline — the injection left no
    // residual state anywhere.
    CqSepResult rerun = DecideCqSep(training);
    if (rerun.separable != baseline.separable ||
        rerun.conflict != baseline.conflict ||
        rerun.outcome != BudgetOutcome::kCompleted) {
      return Violation("faults/sep-resume",
                       "disarmed rerun differs from the uninterrupted "
                       "baseline\n" + describe());
    }
  }

  // --- Served CQ[m]-SEP: a faulted batch must never poison the cache ------
  CqmSepResult m_baseline = DecideCqmSep(training, 1);
  {
    serve::ServeOptions serve_options;
    serve_options.num_shards = 2;
    serve::EvalService service(serve_options);
    ExecutionBudget budget;
    CqmSepOptions options;
    options.service = &service;
    options.budget = &budget;
    bool bad_alloc = false;
    CqmSepResult armed;
    {
      ScopedFault fault(spec, &budget);
      try {
        armed = DecideCqmSep(training, 1, options);
      } catch (const std::bad_alloc&) {
        bad_alloc = true;
      }
    }
    if (bad_alloc && kind != FaultKind::kBadAlloc) {
      return Violation("faults/cqm-spurious-bad-alloc",
                       "std::bad_alloc escaped without a bad-alloc fault\n" +
                           describe());
    }
    if (!bad_alloc && armed.outcome == BudgetOutcome::kCompleted &&
        armed.separable != m_baseline.separable) {
      return Violation("faults/cqm-completed-mismatch",
                       "completed faulted CQ[m] run differs from baseline\n" +
                           describe());
    }
    // Same service, disarmed: any cache entries the faulted batch left
    // behind must be complete and correct, so the warm run reproduces the
    // serial truth exactly.
    CqmSepOptions served;
    served.service = &service;
    CqmSepResult warm = DecideCqmSep(training, 1, served);
    if (warm.outcome != BudgetOutcome::kCompleted ||
        warm.separable != m_baseline.separable ||
        warm.features_enumerated != m_baseline.features_enumerated) {
      return Violation("faults/cache-poisoned",
                       "post-fault warm run through the same service "
                       "differs from the serial truth\n" + describe());
    }
  }

  // --- Partial-matrix validity --------------------------------------------
  // Every cell an interrupted TryMatrix marks valid must equal the
  // uninterrupted truth; a completed TryMatrix must equal it everywhere.
  {
    std::vector<ConjunctiveQuery> features =
        EnumerateFeatureQueries(db.schema_ptr(), 1);
    Statistic statistic(std::move(features));
    std::vector<FeatureVector> truth = statistic.Matrix(db);
    ExecutionBudget budget;
    bool bad_alloc = false;
    PartialMatrix partial;
    {
      ScopedFault fault(spec, &budget);
      try {
        partial = statistic.TryMatrix(db, &budget);
      } catch (const std::bad_alloc&) {
        bad_alloc = true;
      }
    }
    if (!bad_alloc) {
      if (partial.complete() &&
          (partial.rows != truth ||
           (kind != FaultKind::kCancel && FaultFireCount() != 0))) {
        return Violation("faults/matrix-completed-mismatch",
                         "completed TryMatrix differs from Matrix\n" +
                             describe());
      }
      for (std::size_t i = 0; i < partial.rows.size(); ++i) {
        for (std::size_t j = 0; j < partial.rows[i].size(); ++j) {
          if (partial.valid[i][j] && partial.rows[i][j] != truth[i][j]) {
            std::ostringstream out;
            out << "TryMatrix cell (" << i << ", " << j
                << ") is marked valid but wrong\n" << describe();
            return Violation("faults/matrix-invalid-cell", out.str());
          }
        }
      }
    }
  }
  return std::nullopt;
}

PropertyCheck CheckServeAsyncProperties(const Database& db,
                                        std::uint64_t interleaving_seed,
                                        std::size_t num_ops) {
  using serve::AsyncEvalService;
  using serve::RequestHandle;
  using serve::RequestPriority;
  using serve::RequestResult;
  using serve::RequestState;

  if (!db.schema().has_entity_relation()) return std::nullopt;
  std::vector<ConjunctiveQuery> features =
      EnumerateFeatureQueries(db.schema_ptr(), 1);
  if (features.empty()) return std::nullopt;
  if (features.size() > 12) {
    features.erase(features.begin() + 12, features.end());  // Bound work.
  }

  // The oracle: the serial evaluation path, one shard, no cache.
  serve::ServeOptions serial_options;
  serial_options.num_shards = 1;
  serial_options.cache_capacity = 0;
  serve::EvalService serial(serial_options);
  std::vector<std::shared_ptr<const serve::FeatureAnswer>> truth =
      serial.TryResolve(features, db, nullptr);

  auto matches_truth = [&](const serve::FeatureAnswer& answer,
                           std::size_t feature) {
    if (answer.size() != truth[feature]->size()) return false;
    for (Value e : db.Entities()) {
      if (answer.Selects(db, e) != truth[feature]->Selects(db, e)) {
        return false;
      }
    }
    return true;
  };
  auto describe = [&](std::uint64_t id, std::size_t feature,
                      const char* state) {
    std::ostringstream out;
    out << "request " << id << " (" << state << "), feature "
        << features[feature].ToString() << ", seed " << interleaving_seed
        << ", ops " << num_ops;
    return out.str();
  };

  WorkloadRng rng(interleaving_seed ^ 0xa5e53e59a11dULL);
  serve::AsyncServeOptions options;
  options.queue_capacity = rng.Range(1, 4);
  options.num_dispatchers = rng.Range(1, 2);
  options.serve.num_shards = rng.Range(1, 2);
  options.serve.entity_block = rng.Chance(0.5) ? 1 : 64;
  if (rng.Chance(0.2)) options.serve.cache_capacity = 0;
  auto shared_db = std::make_shared<const Database>(db);

  struct Submitted {
    RequestHandle handle;
    std::vector<std::size_t> subset;  ///< Feature indices this request asked.
  };
  std::vector<Submitted> submitted;

  AsyncEvalService service(options);
  for (std::size_t op = 0; op < num_ops; ++op) {
    const std::size_t pick = rng.Below(100);
    if (pick < 50 || submitted.empty()) {
      // Submit a random nonempty feature subset under a random priority and
      // budget: mostly unbounded, sometimes a tiny deterministic step limit
      // or an already-expired deadline.
      std::vector<std::size_t> subset;
      std::vector<ConjunctiveQuery> request_features;
      for (std::size_t i = 0; i < features.size(); ++i) {
        if (rng.Chance(0.5)) {
          subset.push_back(i);
          request_features.push_back(features[i]);
        }
      }
      if (subset.empty()) {
        subset.push_back(0);
        request_features.push_back(features[0]);
      }
      serve::SubmitOptions submit;
      submit.priority = rng.Chance(0.5) ? RequestPriority::kInteractive
                                        : RequestPriority::kBatch;
      const std::size_t budget_kind = rng.Below(10);
      if (budget_kind < 2) {
        submit.step_limit = 1 + rng.Below(60);
      } else if (budget_kind < 4) {
        submit.timeout = ExecutionBudget::Clock::duration::zero();
      }
      submitted.push_back({service.Submit(std::move(request_features),
                                          shared_db, submit),
                           std::move(subset)});
    } else if (pick < 70) {
      submitted[rng.Below(submitted.size())].handle.Poll();
    } else if (pick < 85) {
      submitted[rng.Below(submitted.size())].handle.Cancel();
    } else if (pick < 93) {
      service.PauseDispatch();
    } else {
      service.ResumeDispatch();
    }
  }

  // Drain: resume (Wait on a paused queue would hang) and settle everything.
  service.ResumeDispatch();
  for (const Submitted& entry : submitted) entry.handle.Wait();

  std::array<std::array<std::uint64_t, 4>, serve::kNumRequestPriorities>
      observed{};  // [class][completed, expired, cancelled, rejected]
  for (const Submitted& entry : submitted) {
    std::optional<RequestResult> polled = entry.handle.Poll();
    if (!polled.has_value()) {
      return Violation("serve/drain-incomplete",
                       "handle not terminal after Wait returned");
    }
    const RequestResult& result = *polled;
    const char* state = RequestStateName(result.state);
    const std::size_t cls = static_cast<std::size_t>(entry.handle.priority());
    switch (result.state) {
      case RequestState::kCompleted: observed[cls][0]++; break;
      case RequestState::kExpired: observed[cls][1]++; break;
      case RequestState::kCancelled: observed[cls][2]++; break;
      case RequestState::kRejected: observed[cls][3]++; break;
      default:
        return Violation("serve/non-terminal-state",
                         describe(entry.handle.id(), 0, state));
    }
    if (result.answers.size() != entry.subset.size()) {
      return Violation("serve/answer-arity",
                       describe(entry.handle.id(), 0, state));
    }
    for (std::size_t j = 0; j < entry.subset.size(); ++j) {
      if (result.answers[j] == nullptr) {
        if (result.state == RequestState::kCompleted) {
          return Violation(
              "serve/completed-with-hole",
              describe(entry.handle.id(), entry.subset[j], state));
        }
        continue;
      }
      if (result.state == RequestState::kRejected) {
        return Violation("serve/rejected-with-answer",
                         describe(entry.handle.id(), entry.subset[j], state));
      }
      // The determinism contract: any non-null answer, in any terminal
      // state, is bit-identical to the serial path.
      if (!matches_truth(*result.answers[j], entry.subset[j])) {
        return Violation("serve/async-vs-serial",
                         describe(entry.handle.id(), entry.subset[j], state));
      }
    }
    if (result.state == RequestState::kRejected && result.sequence != 0) {
      return Violation("serve/rejected-dispatched",
                       describe(entry.handle.id(), 0, state));
    }
  }

  const serve::AsyncServeStats stats = service.stats();
  for (std::size_t cls = 0; cls < serve::kNumRequestPriorities; ++cls) {
    const serve::RequestClassStats& counters = stats.classes[cls];
    std::ostringstream detail;
    detail << serve::RequestPriorityName(static_cast<RequestPriority>(cls))
           << ": submitted " << counters.submitted << " accepted "
           << counters.accepted << " rejected " << counters.rejected
           << " completed " << counters.completed << " expired "
           << counters.expired << " cancelled " << counters.cancelled
           << " observed " << observed[cls][0] << "/" << observed[cls][1]
           << "/" << observed[cls][2] << "/" << observed[cls][3] << ", seed "
           << interleaving_seed;
    if (counters.submitted != counters.accepted + counters.rejected ||
        counters.accepted !=
            counters.completed + counters.expired + counters.cancelled) {
      return Violation("serve/stats-unbalanced", detail.str());
    }
    if (counters.completed != observed[cls][0] ||
        counters.expired != observed[cls][1] ||
        counters.cancelled != observed[cls][2] ||
        counters.rejected != observed[cls][3]) {
      return Violation("serve/stats-vs-handles", detail.str());
    }
    if (counters.queue_high_water > options.queue_capacity) {
      return Violation("serve/high-water-over-capacity", detail.str());
    }
  }

  // No interrupted request may have poisoned the shared cache: a final
  // resolve through the same backend still produces the serial truth.
  std::vector<std::shared_ptr<const serve::FeatureAnswer>> final_answers =
      service.backend().TryResolve(features, db, nullptr);
  for (std::size_t i = 0; i < features.size(); ++i) {
    if (final_answers[i] == nullptr || !matches_truth(*final_answers[i], i)) {
      return Violation("serve/cache-poisoned", describe(0, i, "final"));
    }
  }
  return std::nullopt;
}

PropertyCheck CheckIncrementalProperties(const Database& db,
                                         std::uint64_t trace_seed,
                                         std::size_t num_ops) {
  if (!db.schema().has_entity_relation()) return std::nullopt;
  std::vector<ConjunctiveQuery> features =
      EnumerateFeatureQueries(db.schema_ptr(), 1);
  if (features.empty()) return std::nullopt;
  if (features.size() > 8) {
    features.erase(features.begin() + 8, features.end());  // Bound work.
  }

  WorkloadRng rng(trace_seed ^ 0x1cc5e5a7a11dULL);

  // The live stack under test: one mutating database, one warm service the
  // maintainer re-keys across every mutation, one warm-started separability
  // decider. The drop policy rides the seed so both maintenance modes fuzz.
  Database live = db;
  serve::ServeOptions live_options;
  live_options.num_shards = 1;
  live_options.cache_capacity = 64;
  live_options.incremental = rng.Chance(0.75);
  serve::EvalService service(live_options);
  serve::IncrementalMaintainer maintainer(&service, features);
  serve::IncrementalSeparability isep(features);

  // Labels keyed by entity NAME: names survive the oracle's re-interning
  // and entity churn, value ids do not.
  std::unordered_map<std::string, Label> labels;
  for (Value e : live.Entities()) {
    labels.emplace(live.value_name(e),
                   rng.Chance(0.5) ? kPositive : kNegative);
  }

  const Schema& schema = live.schema();
  std::size_t fresh = 0;
  auto describe = [&](std::size_t op, const char* what) {
    std::ostringstream out;
    out << "op " << op << " (" << what << "), seed " << trace_seed << ", ops "
        << num_ops << "\ndb:\n" << WriteDatabase(live);
    return out.str();
  };

  service.Matrix(features, live);  // Warm the state the maintainer patches.

  for (std::size_t op = 0; op < num_ops; ++op) {
    const std::uint64_t digest_before = live.ContentDigest();
    std::optional<Delta> delta;
    const char* what = "recheck";
    const std::size_t pick = rng.Below(100);
    if (pick < 45) {
      // Insert a random fact; occasional fresh constants widen the domain.
      RelationId rel = static_cast<RelationId>(rng.Below(schema.size()));
      std::vector<Value> args;
      for (std::size_t i = 0; i < schema.arity(rel); ++i) {
        if (live.num_values() == 0 || rng.Chance(0.15)) {
          args.push_back(live.Intern("w" + std::to_string(fresh++)));
        } else {
          args.push_back(static_cast<Value>(rng.Below(live.num_values())));
        }
      }
      delta = live.InsertFact(rel, std::move(args));
      what = "insert";
    } else if (pick < 70 && live.size() > 0) {
      // Copy first: RemoveFact invalidates references into facts_.
      const Fact fact = live.fact(rng.Below(live.size()));
      delta = live.RemoveFact(fact.relation, fact.args);
      what = "remove";
    } else if (pick < 80) {
      // Forced no-op: a duplicate insert, or removing a fact that was
      // never there (its argument is a freshly interned constant).
      if (live.size() > 0 && rng.Chance(0.5)) {
        const Fact fact = live.fact(rng.Below(live.size()));
        delta = live.InsertFact(fact.relation, fact.args);
        what = "noop-insert";
      } else {
        RelationId rel = static_cast<RelationId>(rng.Below(schema.size()));
        std::vector<Value> args(schema.arity(rel),
                                live.Intern("w" + std::to_string(fresh++)));
        delta = live.RemoveFact(rel, args);
        what = "noop-remove";
      }
      if (delta->applied) {
        return Violation("incremental/noop-applied", describe(op, what));
      }
    } else if (pick < 90) {
      // Relabel a random entity — no Delta; Recheck must self-detect the
      // label diff.
      std::vector<Value> entities = live.Entities();
      if (!entities.empty()) {
        const std::string& name =
            live.value_name(entities[rng.Below(entities.size())]);
        labels[name] = labels[name] == kPositive ? kNegative : kPositive;
        what = "relabel";
      }
    }

    std::vector<std::string> changed;
    if (delta.has_value()) {
      if (delta->old_digest != digest_before) {
        return Violation("incremental/delta-old-digest", describe(op, what));
      }
      if (delta->new_digest != live.ContentDigest()) {
        return Violation("incremental/delta-new-digest", describe(op, what));
      }
      if (!delta->applied && delta->old_digest != delta->new_digest) {
        return Violation("incremental/noop-digest-moved", describe(op, what));
      }
      if (delta->applied && delta->entity_fact) {
        const std::string& name = live.value_name(delta->args[0]);
        const Label label = rng.Chance(0.5) ? kPositive : kNegative;
        if (delta->kind == Delta::Kind::kInsert) {
          labels.emplace(name, label);
        } else {
          labels.erase(name);
        }
      }
      serve::DeltaMaintenance maintenance =
          maintainer.ApplyDelta(live, *delta);
      changed = std::move(maintenance.changed_entities);
      // The instant the digest moved, no old-digest key may be resolvable
      // in any cache tier.
      if (delta->applied && delta->old_digest != delta->new_digest) {
        for (const ConjunctiveQuery& feature : features) {
          if (service.PeekCached(delta->old_digest, feature.ToString()) !=
              nullptr) {
            return Violation(
                "incremental/stale-key-survives",
                describe(op, what) + "\nfeature " + feature.ToString());
          }
        }
      }
    }

    // The permanently-naive oracle: a fresh database replaying the live
    // fact set (same interning and fact order, so entity order matches),
    // digested and evaluated completely cold.
    Database oracle(live.schema_ptr());
    for (std::size_t v = 0; v < live.num_values(); ++v) {
      oracle.Intern(live.value_name(static_cast<Value>(v)));
    }
    for (const Fact& fact : live.facts()) {
      oracle.AddFact(fact.relation, fact.args);
    }
    if (oracle.ContentDigest() != live.ContentDigest()) {
      return Violation("incremental/digest-vs-recompute", describe(op, what));
    }

    serve::ServeOptions cold_options;
    cold_options.num_shards = 1;
    cold_options.cache_capacity = 0;
    serve::EvalService cold(cold_options);
    const std::vector<FeatureVector> truth = cold.Matrix(features, oracle);
    const std::vector<FeatureVector> warm = service.Matrix(features, live);
    const std::vector<Value> live_entities = live.Entities();
    const std::vector<Value> oracle_entities = oracle.Entities();
    if (live_entities.size() != oracle_entities.size()) {
      return Violation("incremental/entity-set", describe(op, what));
    }
    for (std::size_t i = 0; i < live_entities.size(); ++i) {
      if (live.value_name(live_entities[i]) !=
          oracle.value_name(oracle_entities[i])) {
        return Violation("incremental/entity-order", describe(op, what));
      }
      if (warm[i] != truth[i]) {
        std::ostringstream out;
        out << describe(op, what) << "\nentity "
            << live.value_name(live_entities[i]) << " row differs";
        return Violation("incremental/matrix-vs-recompute", out.str());
      }
    }

    // Separability: incremental verdicts vs from-scratch decisions. The
    // copy keeps the digest memo warm, so Recheck's reuse path really runs.
    auto live_db = std::make_shared<Database>(live);
    TrainingDatabase training(live_db);
    for (Value e : live_db->Entities()) {
      training.SetLabel(e, labels.at(live_db->value_name(e)));
    }
    serve::IncrementalSeparability::Verdict verdict =
        isep.Recheck(training, &service, changed);

    TrainingCollection collection;
    collection.reserve(oracle_entities.size());
    for (std::size_t i = 0; i < oracle_entities.size(); ++i) {
      collection.emplace_back(
          truth[i], labels.at(oracle.value_name(oracle_entities[i])));
    }
    std::optional<LinearClassifier> cold_sep = FindSeparator(collection);
    if (verdict.lin_separable != cold_sep.has_value()) {
      return Violation("incremental/linsep-vs-recompute", describe(op, what));
    }
    if (verdict.lin_separable &&
        verdict.classifier->CountErrors(collection) != 0) {
      return Violation("incremental/linsep-classifier-errors",
                       describe(op, what));
    }

    auto oracle_db = std::make_shared<Database>(oracle);
    TrainingDatabase oracle_training(oracle_db);
    for (Value e : oracle_db->Entities()) {
      oracle_training.SetLabel(e, labels.at(oracle_db->value_name(e)));
    }
    const CqSepResult cold_cq = DecideCqSep(oracle_training);
    if (verdict.cq_sep.separable != cold_cq.separable) {
      return Violation("incremental/cqsep-vs-recompute", describe(op, what));
    }
    if (!verdict.cq_sep.separable) {
      if (!verdict.cq_sep.conflict.has_value()) {
        return Violation("incremental/cqsep-no-conflict", describe(op, what));
      }
      const auto [p, n] = *verdict.cq_sep.conflict;
      if (!training.labeling().Has(p) || !training.labeling().Has(n) ||
          training.labeling().Get(p) == training.labeling().Get(n) ||
          !HomEquivalent(*live_db, {p}, *live_db, {n})) {
        return Violation("incremental/cqsep-bad-witness", describe(op, what));
      }
    }
  }
  return std::nullopt;
}

PropertyCheck CheckCrashIoProperties(const Database& db,
                                     std::uint64_t fault_seed,
                                     std::size_t num_ops) {
  namespace fsys = std::filesystem;
  if (!db.schema().has_entity_relation()) return std::nullopt;
  std::vector<ConjunctiveQuery> features =
      EnumerateFeatureQueries(db.schema_ptr(), 1);
  if (features.empty()) return std::nullopt;
  if (features.size() > 8) {
    features.erase(features.begin() + 8, features.end());  // Bound work.
  }
  std::vector<std::string> feature_strings;
  for (const ConjunctiveQuery& feature : features) {
    feature_strings.push_back(feature.ToString());
  }
  const std::uint64_t digest = db.ContentDigest();
  const std::vector<Value> entities = db.Entities();

  // The oracle: the serial evaluation path, one shard, no caches, no disk.
  serve::ServeOptions serial_options;
  serial_options.num_shards = 1;
  serial_options.cache_capacity = 0;
  serve::EvalService serial(serial_options);
  std::vector<std::shared_ptr<const serve::FeatureAnswer>> truth =
      serial.TryResolve(features, db, nullptr);

  auto matches_truth = [&](const serve::FeatureAnswer& answer,
                           std::size_t feature) {
    if (answer.size() != truth[feature]->size()) return false;
    for (Value e : entities) {
      if (answer.Selects(db, e) != truth[feature]->Selects(db, e)) {
        return false;
      }
    }
    return true;
  };
  auto names_match_truth = [&](const std::vector<std::string>& names,
                               std::size_t feature) {
    if (names.size() != truth[feature]->size()) return false;
    for (const std::string& name : names) {
      if (!truth[feature]->SelectsName(name)) return false;
    }
    return true;
  };
  auto truth_names = [&](std::size_t feature) {
    return std::vector<std::string>(truth[feature]->names().begin(),
                                    truth[feature]->names().end());
  };
  auto describe = [&](const char* leg, const std::string& what) {
    std::ostringstream out;
    out << leg << ": " << what << ", fault seed " << fault_seed << ", ops "
        << num_ops;
    return out.str();
  };

  // Unique scratch root per check: seed alone is not enough (the corpus
  // regression test and a smoke run may replay the same instance
  // concurrently in different processes).
  static std::atomic<std::uint64_t> scratch_counter{0};
  std::ostringstream root_name;
  root_name << "featsep-crashio-";
#ifndef _WIN32
  root_name << ::getpid() << "-";
#endif
  root_name << scratch_counter.fetch_add(1) << "-" << fault_seed;
  const fsys::path root = fsys::temp_directory_path() / root_name.str();
  WorkloadRng rng(fault_seed ^ 0xc7a54107f5eedULL);

  auto run = [&]() -> PropertyCheck {
    // Leg A — disk cache under a seeded fault schedule with torn writes:
    // a hit is always the exact stored answer; once faults clear, every
    // store lands and serves back bit-identical.
    {
      FaultFsOptions fault_options;
      fault_options.seed = rng.Next() | 1;
      fault_options.fail_chance = 0.05 + 0.35 * rng.Uniform();
      fault_options.torn_write_chance = 0.5;
      FaultFsEnv env(fault_options);
      serve::DiskCacheOptions cache_options;
      cache_options.env = &env;
      cache_options.retry.max_attempts = 2;
      serve::DiskResultCache cache((root / "a").string(), cache_options);
      for (std::size_t op = 0; op < num_ops; ++op) {
        const std::size_t f = rng.Below(features.size());
        if (rng.Chance(0.5)) {
          cache.Store(digest, feature_strings[f], truth_names(f));
        } else {
          serve::DiskLoadResult loaded =
              cache.LoadEntry(digest, feature_strings[f]);
          if (loaded.hit() && !names_match_truth(loaded.selected, f)) {
            return Violation("crashio/disk-hit-mismatch",
                             describe("leg A", feature_strings[f]));
          }
        }
      }
      env.ClearFaults();
      for (std::size_t f = 0; f < features.size(); ++f) {
        if (!cache.Store(digest, feature_strings[f], truth_names(f))) {
          return Violation("crashio/disk-clean-store-failed",
                           describe("leg A", feature_strings[f]));
        }
        serve::DiskLoadResult loaded =
            cache.LoadEntry(digest, feature_strings[f]);
        if (!loaded.hit() || !names_match_truth(loaded.selected, f)) {
          return Violation("crashio/disk-clean-load-mismatch",
                           describe("leg A", feature_strings[f]));
        }
      }
    }

    // Leg B — breaker-gated serving: with the disk tier hard-failing the
    // service keeps answering bit-identical to serial while the breaker
    // trips open; once faults clear, a probe closes it again.
    {
      auto env = std::make_shared<FaultFsEnv>(FaultFsOptions{
          /*seed=*/rng.Next() | 1});
      serve::ServeOptions options;
      options.num_shards = 1;
      options.cache_capacity = rng.Chance(0.3) ? 0 : 16;
      options.cache_dir = (root / "b").string();
      options.fs_env = env;
      options.disk_retry_attempts = 2;
      options.disk_retry_backoff = std::chrono::microseconds(0);
      options.breaker_failure_threshold = 2;
      options.breaker_probe_interval = std::chrono::milliseconds(0);
      serve::EvalService service(options);

      auto check_round = [&](const char* phase) -> PropertyCheck {
        service.ClearCache();  // Force LRU misses → disk reads attempted.
        std::vector<std::shared_ptr<const serve::FeatureAnswer>> answers =
            service.TryResolve(features, db, nullptr);
        for (std::size_t f = 0; f < features.size(); ++f) {
          if (answers[f] == nullptr || !matches_truth(*answers[f], f)) {
            return Violation("crashio/breaker-degraded-mismatch",
                             describe("leg B", phase));
          }
        }
        return std::nullopt;
      };

      if (PropertyCheck v = check_round("healthy")) return v;
      env->set_fail_chance(1.0);
      for (int round = 0; round < 4; ++round) {
        if (PropertyCheck v = check_round("disk failing")) return v;
      }
      if (service.stats().breaker_trips == 0) {
        return Violation("crashio/breaker-never-tripped",
                         describe("leg B", "4 rounds of hard disk failure"));
      }
      env->ClearFaults();
      for (int round = 0;
           round < 5 && service.disk_health() != serve::DiskHealth::kClosed;
           ++round) {
        if (PropertyCheck v = check_round("recovering")) return v;
      }
      if (service.disk_health() != serve::DiskHealth::kClosed) {
        return Violation("crashio/breaker-never-closed",
                         describe("leg B", "faults cleared, probes failing"));
      }
      if (service.stats().breaker_closes == 0) {
        return Violation("crashio/breaker-close-uncounted",
                         describe("leg B", "closed without a counted probe"));
      }
    }

    // Leg C — kill at a seed-chosen I/O point mid-publish, then recover
    // with a fresh cache over the same directory: no half-visible entries,
    // every load is a miss or the exact answer, tmp orphans are collected.
    {
      const std::string dir = (root / "c").string();
      FaultFsOptions crash_options;
      crash_options.seed = rng.Next() | 1;
      crash_options.torn_write_chance = 0.7;
      crash_options.crash_after_ops = 3 + rng.Below(30);
      FaultFsEnv env(crash_options);
      serve::DiskCacheOptions cache_options;
      cache_options.env = &env;
      cache_options.tmp_gc_on_open = false;
      {
        serve::DiskResultCache cache(dir, cache_options);
        for (std::size_t f = 0; f < features.size(); ++f) {
          cache.Store(digest, feature_strings[f], truth_names(f));
        }
      }
      // "Restart": a fresh cache over the same directory on the real
      // filesystem, collecting every tmp orphan regardless of age.
      serve::DiskCacheOptions recovery_options;
      recovery_options.tmp_gc_age = std::chrono::milliseconds(0);
      serve::DiskResultCache recovered(dir, recovery_options);
      for (std::size_t f = 0; f < features.size(); ++f) {
        serve::DiskLoadResult loaded =
            recovered.LoadEntry(digest, feature_strings[f]);
        if (loaded.status == serve::DiskLoadStatus::kMiss) continue;
        if (!loaded.hit()) {
          return Violation("crashio/recovery-half-visible",
                           describe("leg C", feature_strings[f]));
        }
        if (!names_match_truth(loaded.selected, f)) {
          return Violation("crashio/recovery-mismatch",
                           describe("leg C", feature_strings[f]));
        }
      }
      FsListResult tmp_left = RealFs()->ListDir(dir + "/tmp");
      if (!tmp_left.entries.empty()) {
        return Violation("crashio/recovery-tmp-orphans",
                         describe("leg C", "tmp files survived startup GC"));
      }
    }

    // Leg D — a shard job: a faulted worker runs partway and "dies", then
    // a fresh coordinator over a clean filesystem drives the job to a
    // bit-identical merge (quarantining poison shards if needed); a
    // fault-free control job quarantines nothing.
    {
      const std::string job_dir = (root / "d" / "job").string();
      Result<std::size_t> published = serve::PublishShardJob(
          job_dir, db, feature_strings, /*entity_block=*/2,
          /*cache_dir=*/std::string());
      if (!published.ok()) {
        return Violation("crashio/shard-publish-failed",
                         describe("leg D", published.error().message()));
      }
      FaultFsOptions worker_fault;
      worker_fault.seed = rng.Next() | 1;
      worker_fault.fail_chance = 0.15;
      worker_fault.torn_write_chance = 0.3;
      worker_fault.crash_after_ops = 20 + rng.Below(60);
      FaultFsEnv worker_env(worker_fault);
      Result<serve::ShardJob> worker_job =
          serve::LoadShardJob(job_dir, &worker_env);
      if (worker_job.ok()) {
        serve::ShardWorkerOptions worker_options;
        worker_options.max_shards = 1 + rng.Below(4);
        worker_options.poll = std::chrono::milliseconds(0);
        // The worker may give up or "die" mid-job; either is the point.
        (void)serve::WorkOnShardJob(job_dir, worker_job.value(),
                                    worker_options);
      }

      Result<serve::ShardJob> coordinator_job = serve::LoadShardJob(job_dir);
      if (!coordinator_job.ok()) {
        return Violation("crashio/shard-reload-failed",
                         describe("leg D", coordinator_job.error().message()));
      }
      serve::ShardCoordinatorOptions coordinator;
      coordinator.lease = std::chrono::milliseconds(0);  // Worker is "dead".
      coordinator.poll = std::chrono::milliseconds(0);
      coordinator.quarantine_after = 2;
      Result<serve::ShardMergeResult> merged =
          serve::CoordinateShardJob(job_dir, coordinator_job.value(),
                                    coordinator);
      if (!merged.ok()) {
        return Violation("crashio/shard-merge-failed",
                         describe("leg D", merged.error().message()));
      }
      for (std::size_t f = 0; f < features.size(); ++f) {
        for (std::size_t e = 0; e < entities.size(); ++e) {
          const char expected =
              truth[f]->Selects(db, entities[e]) ? 1 : 0;
          if (merged.value().flags[f][e] != expected) {
            return Violation("crashio/shard-merge-mismatch",
                             describe("leg D", feature_strings[f]));
          }
        }
      }
      if (!serve::ShardJobDone(job_dir)) {
        return Violation("crashio/shard-not-done",
                         describe("leg D", "done marker missing after merge"));
      }

      // Fault-free control: nothing may be quarantined when nothing fails.
      const std::string clean_dir = (root / "d" / "clean").string();
      Result<std::size_t> clean_published = serve::PublishShardJob(
          clean_dir, db, feature_strings, /*entity_block=*/2,
          /*cache_dir=*/std::string());
      if (clean_published.ok()) {
        Result<serve::ShardJob> clean_job = serve::LoadShardJob(clean_dir);
        if (clean_job.ok()) {
          Result<serve::ShardMergeResult> clean_merged =
              serve::CoordinateShardJob(clean_dir, clean_job.value(),
                                        coordinator);
          if (!clean_merged.ok() ||
              clean_merged.value().quarantined_shards != 0 ||
              clean_merged.value().corrupt_results != 0) {
            return Violation(
                "crashio/quarantine-false-positive",
                describe("leg D", "fault-free job quarantined shards"));
          }
        }
      }
    }
    return std::nullopt;
  };

  PropertyCheck result = run();
  std::error_code ec;
  fsys::remove_all(root, ec);
  return result;
}

}  // namespace testing
}  // namespace featsep
