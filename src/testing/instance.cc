#include "testing/instance.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "relational/training_database.h"
#include "testing/faults.h"
#include "testing/random_instance.h"
#include "testing/shrink.h"
#include "util/check.h"
#include "workload/generators.h"

namespace featsep {
namespace testing {

namespace {

/// Cap on |dom(to)|^|dom(from)| (resp. |dom(D)|^|vars(q)|): the reference
/// oracle is brute force, so instance sizes are chosen to keep its search
/// space bounded regardless of how unlucky a seed or a mutation chain is.
constexpr double kOracleBudget = 2e5;

/// Largest value count in [2, hi] whose `exponent`-th power stays within
/// the oracle budget.
std::size_t BoundedValues(std::size_t exponent, std::size_t hi) {
  std::size_t v = hi;
  while (v > 2 &&
         std::pow(static_cast<double>(v), static_cast<double>(exponent)) >
             kOracleBudget) {
    --v;
  }
  return v;
}

/// Largest exponent in [2, hi] with base^exponent within the oracle budget.
std::size_t BoundedExponent(std::size_t base, std::size_t hi) {
  std::size_t e = hi;
  while (e > 2 &&
         std::pow(static_cast<double>(base), static_cast<double>(e)) >
             kOracleBudget) {
    --e;
  }
  return e;
}

std::shared_ptr<const Schema> PickSchema(WorkloadRng& rng,
                                         std::size_t max_arity,
                                         bool need_entity) {
  const bool plain = !need_entity && rng.Chance(0.25);
  if (!plain && rng.Chance(0.5)) return GraphWorkloadSchema();
  RandomSchemaParams params;
  params.num_relations = rng.Range(1, 3);
  params.max_arity = max_arity;
  params.entity_schema = !plain;
  return RandomSchema(params, rng);
}

Database PickDatabase(std::shared_ptr<const Schema> schema, WorkloadRng& rng,
                      std::size_t max_values, std::size_t max_facts) {
  RandomDatabaseParams params;
  params.num_values = rng.Range(2, max_values);
  params.num_facts = rng.Range(max_facts / 2, max_facts);
  params.entity_fraction = 0.2 + 0.4 * rng.Uniform();
  return RandomDatabase(std::move(schema), params, rng);
}

/// Rebuilds `db` keeping only facts that satisfy `keep`, at most
/// `max_facts` of them (insertion order). Every original constant name is
/// re-interned first, so value ids carry over and references held by the
/// instance (labels, seeds, frozen sets) stay valid.
template <typename KeepFact>
Database FilterFacts(const Database& db, KeepFact keep,
                     std::size_t max_facts) {
  Database out(db.schema_ptr());
  for (Value v = 0; v < db.num_values(); ++v) out.Intern(db.value_name(v));
  std::size_t added = 0;
  for (const Fact& fact : db.facts()) {
    if (added >= max_facts) break;
    if (!keep(fact)) continue;
    out.AddFact(fact.relation, fact.args);
    ++added;
  }
  return out;
}

/// Trims `*db`, when present, to at most `max_values` domain values (the
/// lowest ids survive) and `max_facts` facts. Id-stable; dropped values
/// become isolated.
void TrimDatabase(std::optional<Database>* db, std::size_t max_values,
                  std::size_t max_facts) {
  if (!db->has_value() || ((*db)->domain().size() <= max_values &&
                           (*db)->size() <= max_facts)) {
    return;
  }
  std::vector<bool> kept((*db)->num_values(), false);
  std::size_t taken = 0;
  for (Value v : (*db)->domain()) {
    if (taken >= max_values) break;
    kept[v] = true;
    ++taken;
  }
  *db = FilterFacts(
      **db,
      [&](const Fact& fact) {
        return std::all_of(fact.args.begin(), fact.args.end(),
                           [&](Value v) { return kept[v]; });
      },
      max_facts);
}

/// Drops the entity facts of the entities `keep` rejects; their other facts
/// survive (they just stop being labeled examples).
Database DropEntityFacts(const Database& db, const std::vector<bool>& keep) {
  RelationId eta = db.schema().entity_relation();
  return FilterFacts(
      db,
      [&](const Fact& fact) {
        return fact.relation != eta || keep[fact.args[0]];
      },
      db.size());
}

/// Caps η(D) at `max_entities`.
Database TrimEntities(const Database& db, std::size_t max_entities) {
  if (!db.schema().has_entity_relation()) return db;
  std::vector<Value> entities = db.Entities();
  if (entities.size() <= max_entities) return db;
  std::vector<bool> kept(db.num_values(), false);
  for (std::size_t i = 0; i < max_entities; ++i) kept[entities[i]] = true;
  return DropEntityFacts(db, kept);
}

bool HasEntityDb(const FuzzInstance& instance) {
  return instance.db_a.has_value() &&
         instance.db_a->schema().has_entity_relation();
}

/// Keeps only label pairs naming current entities (first occurrence wins)
/// and drops the entity facts of entities with no label, so the rebuilt
/// TrainingDatabase is totally labeled.
void ReconcileLabels(FuzzInstance* instance) {
  if (!HasEntityDb(*instance)) {
    instance->labels.clear();
    return;
  }
  const Database& db = *instance->db_a;
  std::vector<bool> labeled(db.num_values(), false);
  std::vector<std::pair<Value, Label>> kept;
  for (auto& [value, label] : instance->labels) {
    if (value >= db.num_values() || !db.IsEntity(value) || labeled[value]) {
      continue;
    }
    labeled[value] = true;
    kept.emplace_back(value, label > 0 ? kPositive : kNegative);
  }
  instance->labels = std::move(kept);
  std::vector<Value> entities = db.Entities();
  if (std::any_of(entities.begin(), entities.end(),
                  [&](Value e) { return !labeled[e]; })) {
    instance->db_a = DropEntityFacts(db, labeled);
  }
}

TrainingDatabase RebuildTraining(const FuzzInstance& instance) {
  auto db = std::make_shared<Database>(*instance.db_a);
  TrainingDatabase training(db);
  for (const auto& [value, label] : instance.labels) {
    if (value < db->num_values() && db->IsEntity(value)) {
      training.SetLabel(value, label);
    }
  }
  return training;
}

/// Drops trailing atoms down to `max_atoms`, then nulls the query if it
/// went unsafe (the config turns vacuous rather than feeding the engines a
/// non-range-restricted query).
void ClampQuery(std::optional<ConjunctiveQuery>* query,
                std::size_t max_atoms) {
  if (!query->has_value()) return;
  while ((*query)->atoms().size() > max_atoms) {
    **query = WithoutAtom(**query, (*query)->atoms().size() - 1);
  }
  if (!QueryIsSafe(**query)) query->reset();
}

/// Keeps the values `db.*keep` accepts, at most `max_size` of them.
void PruneValues(const Database& db, bool (Database::*keep)(Value) const,
                 std::size_t max_size, std::vector<Value>* values) {
  std::vector<Value> kept;
  for (Value v : *values) {
    if (kept.size() >= max_size) break;
    if (v < db.num_values() && (db.*keep)(v)) kept.push_back(v);
  }
  *values = std::move(kept);
}

Rational ClampRational(const Rational& value, std::int64_t magnitude) {
  if (Rational(magnitude) < value) return Rational(magnitude);
  if (value < Rational(-magnitude)) return Rational(-magnitude);
  return value;
}

int64_t SmallCoefficient(WorkloadRng& rng) {
  return static_cast<std::int64_t>(rng.Below(7)) - 3;
}

// Shrink helpers shared by the rows. Each candidate is a copy of the
// *current* instance with one field replaced, so already accepted shrinks of
// other fields stay in effect.

void ShrinkDb(FuzzInstance* instance,
              std::optional<Database> FuzzInstance::*field,
              const FuzzFails& fails) {
  if (!(instance->*field).has_value()) return;
  Database shrunk =
      ShrinkDatabase(*(instance->*field), [&](const Database& d) {
        FuzzInstance candidate = *instance;
        candidate.*field = d;
        return fails(std::move(candidate));
      });
  instance->*field = std::move(shrunk);
}

/// Greedy atom removal, keeping the query safe.
void ShrinkQuery(FuzzInstance* instance,
                 std::optional<ConjunctiveQuery> FuzzInstance::*field,
                 const FuzzFails& fails) {
  if (!(instance->*field).has_value()) return;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < (instance->*field)->atoms().size(); ++i) {
      ConjunctiveQuery smaller = WithoutAtom(*(instance->*field), i);
      if (!QueryIsSafe(smaller)) continue;
      FuzzInstance candidate = *instance;
      candidate.*field = smaller;
      if (fails(std::move(candidate))) {
        instance->*field = std::move(smaller);
        changed = true;
        break;
      }
    }
  }
}

/// Halves a count while the instance still fails: fewer ops make shorter
/// traces, earlier trigger visits smaller repros.
template <typename Count>
void HalveWhileFailing(FuzzInstance* instance, Count FuzzInstance::*field,
                       const FuzzFails& fails) {
  while (instance->*field > 1) {
    FuzzInstance candidate = *instance;
    candidate.*field = instance->*field / 2;
    if (!fails(std::move(candidate))) break;
    instance->*field /= 2;
  }
}

void ShrinkDbAndQuery(FuzzInstance* instance, const FuzzFails& fails) {
  ShrinkDb(instance, &FuzzInstance::db_a, fails);
  ShrinkQuery(instance, &FuzzInstance::query, fails);
}

// Database pair (hom, covergame): db_a → db_b.

/// Shrinks the pair jointly, then hom's composition witness db_c, then
/// covergame's pebble count k.
void ShrinkDbPair(FuzzInstance* instance, const FuzzFails& fails) {
  if (!instance->db_a.has_value() || !instance->db_b.has_value()) return;
  auto [from, to] = ShrinkHomPair(
      *instance->db_a, *instance->db_b,
      [&](const Database& f, const Database& t) {
        FuzzInstance candidate = *instance;
        candidate.db_a = f;
        candidate.db_b = t;
        return fails(std::move(candidate));
      });
  instance->db_a = std::move(from);
  instance->db_b = std::move(to);
  ShrinkDb(instance, &FuzzInstance::db_c, fails);
  if (instance->k > 1) {
    FuzzInstance candidate = *instance;
    candidate.k = instance->k - 1;
    if (fails(std::move(candidate))) --instance->k;
  }
}

/// Adds to `from` a fact whose positions p1 < p2 repeat one value and to
/// `to` a fact of the same relation with the same repeat pattern, so the
/// target's diagonal at (p1, p2) decides where the repeated value maps. The
/// other positions take distinct values. Uses interned values only, so the
/// oracle's value counts stay within budget, and drops a full database's
/// last fact first, so the planted fact survives the reload trim to
/// `max_facts`. No-op without a relation of arity two or more.
void PlantRepeatedValue(WorkloadRng& rng, std::size_t max_facts,
                        Database& from, Database& to) {
  const Schema& schema = from.schema();
  std::vector<RelationId> wide;
  for (RelationId r = 0; r < schema.size(); ++r) {
    if (schema.arity(r) >= 2) wide.push_back(r);
  }
  if (wide.empty()) return;
  const RelationId relation = wide[rng.Below(wide.size())];
  const std::size_t arity = schema.arity(relation);
  const std::size_t p1 = rng.Below(arity - 1);
  const std::size_t p2 = p1 + 1 + rng.Below(arity - p1 - 1);
  for (Database* db : {&from, &to}) {
    if (db->size() >= max_facts) {
      *db = FilterFacts(*db, [](const Fact&) { return true; }, max_facts - 1);
    }
    const std::size_t n = db->num_values();
    std::size_t next = rng.Below(n);
    std::vector<Value> args;
    for (std::size_t p = 0; p < arity; ++p) {
      args.push_back(p == p2 ? args[p1] : static_cast<Value>(next++ % n));
    }
    db->AddFact(relation, std::move(args));
  }
}

void GenerateHom(WorkloadRng& rng, FuzzInstance* instance) {
  instance->schema = PickSchema(rng, 3, /*need_entity=*/false);
  Database to = PickDatabase(instance->schema, rng, 5, 12);
  std::size_t from_values =
      BoundedExponent(std::max<std::size_t>(to.domain().size(), 2), 7);
  Database from = PickDatabase(instance->schema, rng, from_values, 12);
  if (rng.Chance(0.3)) {
    // Half the time the planted fact is the whole source, so a
    // homomorphism exists and only the diagonal decides the search.
    if (rng.Chance(0.5)) {
      from = FilterFacts(from, [](const Fact&) { return false; }, 0);
    }
    PlantRepeatedValue(rng, 12, from, to);
  }
  if (rng.Chance(0.3) && !from.domain().empty() && !to.domain().empty()) {
    // Mostly well-formed seed pairs, sometimes stale ids to exercise the
    // free-seed and out-of-domain paths.
    Value source =
        rng.Chance(0.8)
            ? from.domain()[rng.Below(from.domain().size())]
            : static_cast<Value>(from.num_values() + rng.Below(3));
    Value image = rng.Chance(0.8)
                      ? to.domain()[rng.Below(to.domain().size())]
                      : static_cast<Value>(to.num_values() + rng.Below(3));
    instance->hom_seed.emplace_back(source, image);
  }
  if (rng.Chance(0.25)) {
    instance->db_c = PickDatabase(instance->schema, rng, 5, 10);
  }
  instance->db_a = std::move(from);
  instance->db_b = std::move(to);
}

PropertyCheck CheckHom(const FuzzInstance& instance) {
  if (!instance.db_a.has_value() || !instance.db_b.has_value()) {
    return std::nullopt;
  }
  PropertyCheck violation = CheckHomAgainstReference(
      *instance.db_a, *instance.db_b, instance.hom_seed);
  if (!violation.has_value() && instance.db_c.has_value()) {
    violation =
        CheckHomComposition(*instance.db_a, *instance.db_b, *instance.db_c);
  }
  return violation;
}

void SanitizeHom(FuzzInstance* instance) {
  TrimDatabase(&instance->db_b, 5, 12);
  std::size_t dom_to =
      instance->db_b.has_value() ? instance->db_b->domain().size() : 2;
  TrimDatabase(&instance->db_a,
               BoundedExponent(std::max<std::size_t>(dom_to, 2), 7), 12);
  TrimDatabase(&instance->db_c, 5, 10);
  if (instance->hom_seed.size() > 2) instance->hom_seed.resize(2);
  if (!instance->db_a.has_value() || !instance->db_b.has_value()) {
    instance->hom_seed.clear();
    return;
  }
  // A seeded value the trims left isolated becomes the stale id
  // num_values(), which is what a reload makes of a name in no fact, so the
  // text reaches its fixed point after one round trip.
  auto stale_if_isolated = [](const Database& db, Value& v) {
    if (v < db.num_values() && !db.InDomain(v)) {
      v = static_cast<Value>(db.num_values());
    }
  };
  // Stale seed ids are a feature, but keep them within the window the
  // generator uses (num_values + 3) so shrinking stays meaningful.
  std::vector<std::pair<Value, Value>> kept;
  for (auto& [source, image] : instance->hom_seed) {
    stale_if_isolated(*instance->db_a, source);
    stale_if_isolated(*instance->db_b, image);
    if (source < instance->db_a->num_values() + 3 &&
        image < instance->db_b->num_values() + 3) {
      kept.emplace_back(source, image);
    }
  }
  instance->hom_seed = std::move(kept);
}

void GenerateCoverGame(WorkloadRng& rng, FuzzInstance* instance) {
  // The solver's position set is |dom(from)|^k × |dom(to)|^k and the
  // completeness check plays at k = |from|, so both sides stay tiny.
  instance->schema = PickSchema(rng, 2, /*need_entity=*/false);
  instance->db_a = PickDatabase(instance->schema, rng, 4, 6);
  instance->db_b = PickDatabase(instance->schema, rng, 4, 6);
  instance->k = rng.Range(1, 2);
}

PropertyCheck CheckCoverGame(const FuzzInstance& instance) {
  if (!instance.db_a.has_value() || !instance.db_b.has_value() ||
      instance.k == 0) {
    return std::nullopt;
  }
  return CheckCoverGameProperties(*instance.db_a, *instance.db_b,
                                  instance.k);
}

void SanitizeCoverGame(FuzzInstance* instance) {
  TrimDatabase(&instance->db_a, 4, 6);
  TrimDatabase(&instance->db_b, 4, 6);
  instance->k = std::clamp<std::size_t>(instance->k, 1, 2);
}

void CoverGameOps(FuzzInstance* instance, WorkloadRng&, MutateOps* ops) {
  ops->push_back([instance] { instance->k = instance->k == 1 ? 2 : 1; });
}

// Query configs (eval, containment, core, ghw).

void GenerateEval(WorkloadRng& rng, FuzzInstance* instance) {
  instance->schema = PickSchema(rng, 2, /*need_entity=*/false);
  RandomCqParams cq_params;
  cq_params.num_atoms = rng.Range(1, 4);
  instance->query = RandomUnaryCq(instance->schema, cq_params, rng);
  std::size_t max_values =
      BoundedValues(instance->query->num_variables(), 6);
  instance->db_a = PickDatabase(instance->schema, rng, max_values, 12);
}

PropertyCheck CheckEval(const FuzzInstance& instance) {
  if (!instance.query.has_value() || !instance.db_a.has_value()) {
    return std::nullopt;
  }
  return CheckEvaluationAgainstReference(*instance.query, *instance.db_a);
}

void SanitizeEval(FuzzInstance* instance) {
  ClampQuery(&instance->query, 4);
  std::size_t vars =
      instance->query.has_value() ? instance->query->num_variables() : 2;
  TrimDatabase(&instance->db_a, BoundedValues(vars, 6), 12);
}

void ShrinkEval(FuzzInstance* instance, const FuzzFails& fails) {
  if (!instance->query.has_value() || !instance->db_a.has_value()) return;
  auto [query, db] = ShrinkCqInstance(
      *instance->query, *instance->db_a,
      [&](const ConjunctiveQuery& q, const Database& d) {
        FuzzInstance candidate = *instance;
        candidate.query = q;
        candidate.db_a = d;
        return fails(std::move(candidate));
      });
  instance->query = std::move(query);
  instance->db_a = std::move(db);
}

void GenerateContainment(WorkloadRng& rng, FuzzInstance* instance) {
  instance->schema = PickSchema(rng, 2, /*need_entity=*/false);
  RandomCqParams cq_params;
  cq_params.num_atoms = rng.Range(1, 3);
  instance->query = RandomUnaryCq(instance->schema, cq_params, rng);
  cq_params.num_atoms = rng.Range(1, 3);
  instance->query2 = RandomUnaryCq(instance->schema, cq_params, rng);
  std::size_t max_values =
      BoundedValues(std::max(instance->query->num_variables(),
                             instance->query2->num_variables()),
                    5);
  instance->db_a = PickDatabase(instance->schema, rng, max_values, 10);
}

PropertyCheck CheckContainment(const FuzzInstance& instance) {
  if (!instance.query.has_value() || !instance.query2.has_value() ||
      !instance.db_a.has_value()) {
    return std::nullopt;
  }
  return CheckContainmentAgainstReference(*instance.query, *instance.query2,
                                          *instance.db_a);
}

void SanitizeContainment(FuzzInstance* instance) {
  ClampQuery(&instance->query, 3);
  ClampQuery(&instance->query2, 3);
  std::size_t vars = 2;
  if (instance->query.has_value()) {
    vars = std::max(vars, instance->query->num_variables());
  }
  if (instance->query2.has_value()) {
    vars = std::max(vars, instance->query2->num_variables());
  }
  TrimDatabase(&instance->db_a, BoundedValues(vars, 5), 10);
}

void ShrinkContainment(FuzzInstance* instance, const FuzzFails& fails) {
  if (!instance->query.has_value() || !instance->query2.has_value() ||
      !instance->db_a.has_value()) {
    return;
  }
  // Alternate single-atom removals on either query, then shrink the data,
  // as long as the discrepancy persists.
  bool changed = true;
  while (changed) {
    std::size_t atoms_before =
        instance->query->atoms().size() + instance->query2->atoms().size();
    ShrinkQuery(instance, &FuzzInstance::query, fails);
    ShrinkQuery(instance, &FuzzInstance::query2, fails);
    std::size_t facts_before = instance->db_a->size();
    ShrinkDb(instance, &FuzzInstance::db_a, fails);
    changed = instance->query->atoms().size() +
                      instance->query2->atoms().size() !=
                  atoms_before ||
              instance->db_a->size() != facts_before;
  }
}

void GenerateCore(WorkloadRng& rng, FuzzInstance* instance) {
  instance->schema = PickSchema(rng, 3, /*need_entity=*/false);
  instance->db_a = PickDatabase(instance->schema, rng, 6, 10);
  if (!instance->db_a->domain().empty()) {
    const std::vector<Value>& domain = instance->db_a->domain();
    for (std::size_t i = rng.Below(3); i > 0; --i) {
      instance->frozen.push_back(domain[rng.Below(domain.size())]);
    }
  }
  // Rides along: a small query for the MinimizeCq oracle laws. Kept at ≤ 3
  // atoms so the reference Chandra–Merlin checks stay brute-force sized.
  RandomCqParams cq_params;
  cq_params.num_atoms = rng.Range(1, 3);
  instance->query = RandomUnaryCq(instance->schema, cq_params, rng);
}

PropertyCheck CheckCore(const FuzzInstance& instance) {
  if (!instance.db_a.has_value()) return std::nullopt;
  PropertyCheck violation =
      CheckCoreProperties(*instance.db_a, instance.frozen);
  if (!violation.has_value() && instance.query.has_value()) {
    violation = CheckMinimizeCq(*instance.query);
  }
  return violation;
}

void SanitizeCore(FuzzInstance* instance) {
  TrimDatabase(&instance->db_a, 6, 10);
  if (instance->db_a.has_value()) {
    PruneValues(*instance->db_a, &Database::InDomain, 2,
                &instance->frozen);
  } else {
    instance->frozen.clear();
  }
  ClampQuery(&instance->query, 3);
}

void CoreOps(FuzzInstance* instance, WorkloadRng& rng, MutateOps* ops) {
  if (!instance->db_a.has_value()) return;
  ops->push_back([instance, &rng] {
    // Grow or shrink the frozen set.
    if (!instance->frozen.empty() && rng.Chance(0.5)) {
      instance->frozen.erase(instance->frozen.begin() +
                             rng.Below(instance->frozen.size()));
    } else if (!instance->db_a->domain().empty()) {
      const std::vector<Value>& domain = instance->db_a->domain();
      instance->frozen.push_back(domain[rng.Below(domain.size())]);
    }
  });
}

void GenerateGhw(WorkloadRng& rng, FuzzInstance* instance) {
  instance->schema = PickSchema(rng, 3, /*need_entity=*/false);
  RandomCqParams cq_params;
  cq_params.num_atoms = rng.Range(2, 5);
  instance->query = RandomUnaryCq(instance->schema, cq_params, rng);
  // An empty database carries the schema through serialization.
  instance->db_a.emplace(instance->schema);
}

PropertyCheck CheckGhw(const FuzzInstance& instance) {
  if (!instance.query.has_value()) return std::nullopt;
  return CheckGhwProperties(*instance.query);
}

void SanitizeGhw(FuzzInstance* instance) { ClampQuery(&instance->query, 5); }

// Labelled training database (sep, faults).

void GenerateTraining(WorkloadRng& rng, FuzzInstance* instance) {
  instance->schema = PickSchema(rng, 3, /*need_entity=*/true);
  RandomDatabaseParams params;
  params.num_values = rng.Range(3, 6);
  params.num_facts = rng.Range(5, 12);
  params.entity_fraction = 0.3 + 0.4 * rng.Uniform();
  std::shared_ptr<TrainingDatabase> training =
      RandomTrainingDatabase(instance->schema, params, rng);
  instance->db_a = training->database();
  instance->labels = training->labeling().Items();
}

void SanitizeTraining(FuzzInstance* instance) {
  TrimDatabase(&instance->db_a, 6, 12);
  ReconcileLabels(instance);
}

PropertyCheck CheckSep(const FuzzInstance& instance) {
  if (!HasEntityDb(instance)) return std::nullopt;
  return CheckSepThreadDeterminism(RebuildTraining(instance));
}

void GenerateFaults(WorkloadRng& rng, FuzzInstance* instance) {
  // Sites are the FEATSEP_FAULT_POINT carriers. The hom and simplex sites
  // are visited by the sep drivers and the cover-game site by the budgeted
  // cover-game leg; the GHW site exercises the armed-but-never-fired path.
  GenerateTraining(rng, instance);
  constexpr CoverageSite kFaultSites[] = {
      CoverageSite::kHomNode,           CoverageSite::kHomNode,
      CoverageSite::kHomBacktrack,      CoverageSite::kSimplexPivot,
      CoverageSite::kGhwSubproblemSolved, CoverageSite::kCoverFixpointRound};
  instance->fault_site =
      static_cast<std::uint16_t>(kFaultSites[rng.Below(6)]);
  instance->fault_kind = static_cast<std::uint8_t>(rng.Below(3));
  instance->fault_visit = 1 + rng.Below(40);
}

PropertyCheck CheckFaults(const FuzzInstance& instance) {
  if (!HasEntityDb(instance)) return std::nullopt;
  return CheckFaultInjectionProperties(
      RebuildTraining(instance),
      static_cast<CoverageSite>(instance.fault_site),
      static_cast<FaultKind>(instance.fault_kind), instance.fault_visit);
}

void SanitizeFaults(FuzzInstance* instance) {
  SanitizeTraining(instance);
  if (instance->fault_site >=
      static_cast<std::uint16_t>(CoverageSite::kNumSites)) {
    instance->fault_site = static_cast<std::uint16_t>(CoverageSite::kHomNode);
  }
  instance->fault_kind = static_cast<std::uint8_t>(instance->fault_kind % 3);
  if (instance->fault_visit == 0) instance->fault_visit = 1;
}

void ShrinkFaults(FuzzInstance* instance, const FuzzFails& fails) {
  ShrinkDbAndQuery(instance, fails);
  HalveWhileFailing(instance, &FuzzInstance::fault_visit, fails);
}

void FaultsOps(FuzzInstance* instance, WorkloadRng& rng, MutateOps* ops) {
  ops->push_back([instance, &rng] {
    constexpr CoverageSite kFaultSites[] = {
        CoverageSite::kHomNode, CoverageSite::kHomBacktrack,
        CoverageSite::kSimplexPivot, CoverageSite::kGhwSubproblemSolved,
        CoverageSite::kCoverFixpointRound};
    instance->fault_site =
        static_cast<std::uint16_t>(kFaultSites[rng.Below(5)]);
  });
  ops->push_back([instance] {
    instance->fault_kind =
        static_cast<std::uint8_t>((instance->fault_kind + 1) % 3);
  });
  ops->push_back([instance, &rng] {
    instance->fault_visit =
        rng.Chance(0.5)
            ? instance->fault_visit + 1 + rng.Below(8)
            : std::max<std::uint64_t>(instance->fault_visit / 2, 1);
  });
}

// Small entity databases with examples (qbe, dimension).

void GenerateQbe(WorkloadRng& rng, FuzzInstance* instance) {
  // Tiny entity databases: the canonical product has |D|^|S⁺| facts and the
  // CQ[m] check reference-evaluates the explanation, so |S⁺| ≤ 2, arity ≤ 2,
  // and m ≤ 2 keep every oracle fuzz-sized.
  instance->schema = PickSchema(rng, 2, /*need_entity=*/true);
  instance->db_a = PickDatabase(instance->schema, rng, 5, 10);
  std::vector<Value> entities = instance->db_a->Entities();
  if (entities.empty()) return;  // Vacuous: QBE needs a nonempty S⁺.
  for (std::size_t i = entities.size() - 1; i > 0; --i) {
    std::swap(entities[i], entities[rng.Below(i + 1)]);
  }
  std::size_t num_positives =
      (entities.size() > 1 && rng.Chance(0.4)) ? 2 : 1;
  instance->positives.assign(entities.begin(),
                             entities.begin() + num_positives);
  std::size_t num_negatives =
      std::min(entities.size() - num_positives,
               static_cast<std::size_t>(rng.Below(3)));
  instance->negatives.assign(
      entities.begin() + num_positives,
      entities.begin() + num_positives + num_negatives);
  instance->m = rng.Chance(0.7) ? 1 : 2;
}

PropertyCheck CheckQbe(const FuzzInstance& instance) {
  if (!instance.db_a.has_value() || instance.positives.empty()) {
    return std::nullopt;
  }
  return CheckQbeProperties(*instance.db_a, instance.positives,
                            instance.negatives, instance.m);
}

void SanitizeQbe(FuzzInstance* instance) {
  instance->m = std::clamp<std::size_t>(instance->m, 1, 2);
  if (!instance->db_a.has_value()) {
    instance->positives.clear();
    instance->negatives.clear();
    return;
  }
  TrimDatabase(&instance->db_a, 5, 10);
  PruneValues(*instance->db_a, &Database::IsEntity, 2,
              &instance->positives);
  PruneValues(*instance->db_a, &Database::IsEntity, 2,
              &instance->negatives);
  // Disjoint example sets: a value can't be both S⁺ and S⁻.
  std::erase_if(instance->negatives, [&](Value v) {
    return std::find(instance->positives.begin(), instance->positives.end(),
                     v) != instance->positives.end();
  });
}

void QbeOps(FuzzInstance* instance, WorkloadRng& rng, MutateOps* ops) {
  if (!instance->db_a.has_value()) return;
  ops->push_back([instance, &rng] {
    // Move an entity between S⁺, S⁻, and unlabeled.
    std::vector<Value> entities = instance->db_a->Entities();
    if (entities.empty()) return;
    Value e = entities[rng.Below(entities.size())];
    std::erase(instance->positives, e);
    std::erase(instance->negatives, e);
    switch (rng.Below(3)) {
      case 0: instance->positives.push_back(e); break;
      case 1: instance->negatives.push_back(e); break;
      default: break;
    }
  });
  ops->push_back([instance] { instance->m = instance->m == 1 ? 2 : 1; });
}

void GenerateDimension(WorkloadRng& rng, FuzzInstance* instance) {
  // η(D) ≤ 3 keeps ℓ_max = 2^{|η(D)|−1} ≤ 4 subsets, so the Sep[ℓ_max] vs
  // DecideCqSep agreement law always runs.
  instance->schema = PickSchema(rng, 2, /*need_entity=*/true);
  Database db = TrimEntities(PickDatabase(instance->schema, rng, 5, 8), 3);
  for (Value e : db.Entities()) {
    instance->labels.emplace_back(e,
                                  rng.Chance(0.5) ? kPositive : kNegative);
  }
  instance->db_a = std::move(db);
  instance->ell = rng.Range(1, 2);
}

PropertyCheck CheckDimension(const FuzzInstance& instance) {
  if (!HasEntityDb(instance) || instance.ell == 0) return std::nullopt;
  return CheckSepDimProperties(RebuildTraining(instance), instance.ell);
}

void SanitizeDimension(FuzzInstance* instance) {
  TrimDatabase(&instance->db_a, 5, 8);
  if (instance->db_a.has_value()) {
    *instance->db_a = TrimEntities(*instance->db_a, 3);
  }
  ReconcileLabels(instance);
  instance->ell = std::clamp<std::size_t>(instance->ell, 1, 2);
}

void DimensionOps(FuzzInstance* instance, WorkloadRng&, MutateOps* ops) {
  ops->push_back(
      [instance] { instance->ell = instance->ell == 1 ? 2 : 1; });
}

// Traced shape (serve, incremental, crashio): the row's TracedShape holds
// the caps and the property driver.

void GenerateTraced(WorkloadRng& rng, FuzzInstance* instance) {
  const TracedShape& shape = FuzzConfigSpecOf(instance->config).traced;
  instance->schema = PickSchema(rng, 2, /*need_entity=*/true);
  instance->db_a =
      PickDatabase(instance->schema, rng, shape.values, shape.facts);
  instance->k = rng.Next() >> 1;
  instance->m = rng.Range(shape.min_ops, shape.max_ops);
}

PropertyCheck CheckTraced(const FuzzInstance& instance) {
  if (!HasEntityDb(instance)) return std::nullopt;
  return FuzzConfigSpecOf(instance.config)
      .traced.driver(*instance.db_a, instance.k, instance.m);
}

void SanitizeTraced(FuzzInstance* instance) {
  const TracedShape& shape = FuzzConfigSpecOf(instance->config).traced;
  TrimDatabase(&instance->db_a, shape.values, shape.facts);
  instance->m = std::clamp<std::size_t>(instance->m, 1, shape.ops_cap);
}

void ShrinkTraced(FuzzInstance* instance, const FuzzFails& fails) {
  ShrinkDbAndQuery(instance, fails);
  HalveWhileFailing(instance, &FuzzInstance::m, fails);
}

void TracedOps(FuzzInstance* instance, WorkloadRng& rng, MutateOps* ops) {
  // Reseed the trace, or grow/shrink the op schedule.
  ops->push_back([instance, &rng] { instance->k = rng.Next() >> 1; });
  ops->push_back([instance, &rng] {
    instance->m = rng.Chance(0.5) ? instance->m + 1 + rng.Below(8)
                                  : std::max<std::size_t>(instance->m / 2, 1);
  });
}

// linsep: db-free — a `features`/`feature_labels` training collection and an
// LP `lp`.

void GenerateLinsep(WorkloadRng& rng, FuzzInstance* instance) {
  std::size_t num_features = rng.Range(1, 3);
  std::size_t num_examples = rng.Range(1, 6);
  for (std::size_t i = 0; i < num_examples; ++i) {
    FeatureVector features;
    for (std::size_t j = 0; j < num_features; ++j) {
      features.push_back(rng.Chance(0.5) ? 1 : -1);
    }
    instance->features.push_back(std::move(features));
    instance->feature_labels.push_back(rng.Chance(0.5) ? kPositive
                                                       : kNegative);
  }
  std::size_t lp_vars = rng.Range(1, 3);
  std::size_t lp_rows = rng.Range(1, 4);
  for (std::size_t i = 0; i < lp_rows; ++i) {
    std::vector<Rational> row;
    for (std::size_t j = 0; j < lp_vars; ++j) {
      row.emplace_back(SmallCoefficient(rng));
    }
    instance->lp.a.push_back(std::move(row));
    instance->lp.b.emplace_back(static_cast<std::int64_t>(rng.Below(7)) - 2);
  }
  for (std::size_t j = 0; j < lp_vars; ++j) {
    instance->lp.c.emplace_back(SmallCoefficient(rng));
  }
}

PropertyCheck CheckLinsep(const FuzzInstance& instance) {
  TrainingCollection examples;
  for (std::size_t i = 0; i < instance.features.size(); ++i) {
    examples.emplace_back(instance.features[i], instance.feature_labels[i]);
  }
  return CheckLinsepProperties(examples, instance.lp);
}

void SanitizeLinsep(FuzzInstance* instance) {
  if (instance->features.size() > 6) instance->features.resize(6);
  std::size_t num_features =
      instance->features.empty() ? 0 : instance->features[0].size();
  num_features = std::min<std::size_t>(num_features, 3);
  for (FeatureVector& features : instance->features) {
    features.resize(num_features, 1);
    for (int& f : features) f = f > 0 ? 1 : -1;
  }
  instance->feature_labels.resize(instance->features.size(), kPositive);
  for (Label& label : instance->feature_labels) {
    label = label > 0 ? kPositive : kNegative;
  }
  if (instance->lp.c.size() > 3) instance->lp.c.resize(3);
  if (instance->lp.a.size() > 4) instance->lp.a.resize(4);
  instance->lp.b.resize(instance->lp.a.size());
  for (Rational& c : instance->lp.c) c = ClampRational(c, 8);
  for (Rational& b : instance->lp.b) b = ClampRational(b, 8);
  for (std::vector<Rational>& row : instance->lp.a) {
    row.resize(instance->lp.c.size());
    for (Rational& c : row) c = ClampRational(c, 8);
  }
}

void ShrinkLinsep(FuzzInstance* instance, const FuzzFails& fails) {
  // Drop whole examples, then whole LP rows, then zero coefficients.
  for (std::size_t i = instance->features.size(); i > 0; --i) {
    FuzzInstance candidate = *instance;
    candidate.features.erase(candidate.features.begin() + (i - 1));
    candidate.feature_labels.erase(candidate.feature_labels.begin() +
                                   (i - 1));
    if (fails(candidate)) *instance = std::move(candidate);
  }
  for (std::size_t i = instance->lp.a.size(); i > 0; --i) {
    FuzzInstance candidate = *instance;
    candidate.lp.a.erase(candidate.lp.a.begin() + (i - 1));
    candidate.lp.b.erase(candidate.lp.b.begin() + (i - 1));
    if (fails(candidate)) *instance = std::move(candidate);
  }
  for (std::size_t i = 0; i < instance->lp.a.size(); ++i) {
    for (std::size_t j = 0; j < instance->lp.a[i].size(); ++j) {
      if (instance->lp.a[i][j].is_zero()) continue;
      FuzzInstance candidate = *instance;
      candidate.lp.a[i][j] = Rational(0);
      if (fails(candidate)) *instance = std::move(candidate);
    }
  }
}

void LinsepOps(FuzzInstance* instance, WorkloadRng& rng, MutateOps* ops) {
  ops->push_back([instance, &rng] {
    if (instance->features.empty()) return;
    FeatureVector& row =
        instance->features[rng.Below(instance->features.size())];
    if (!row.empty()) {
      int& f = row[rng.Below(row.size())];
      f = -f;
    }
  });
  ops->push_back([instance, &rng] {
    if (instance->feature_labels.empty()) return;
    Label& label = instance->feature_labels[rng.Below(
        instance->feature_labels.size())];
    label = -label;
  });
  ops->push_back([instance, &rng] {
    // Add an example.
    FeatureVector row;
    std::size_t width = instance->features.empty()
                            ? rng.Range(1, 3)
                            : instance->features[0].size();
    for (std::size_t i = 0; i < width; ++i) {
      row.push_back(rng.Chance(0.5) ? 1 : -1);
    }
    instance->features.push_back(std::move(row));
    instance->feature_labels.push_back(rng.Chance(0.5) ? kPositive
                                                       : kNegative);
  });
  ops->push_back([instance, &rng] {
    if (instance->features.empty()) return;
    std::size_t i = rng.Below(instance->features.size());
    instance->features.erase(instance->features.begin() + i);
    instance->feature_labels.erase(instance->feature_labels.begin() + i);
  });
  ops->push_back([instance, &rng] {
    // Perturb a coefficient or a bound by ±1.
    if (instance->lp.a.empty()) return;
    std::size_t i = rng.Below(instance->lp.a.size());
    if (!instance->lp.a[i].empty() && rng.Chance(0.7)) {
      std::size_t j = rng.Below(instance->lp.a[i].size());
      instance->lp.a[i][j] =
          instance->lp.a[i][j] + Rational(rng.Chance(0.5) ? 1 : -1);
    } else {
      instance->lp.b[i] =
          instance->lp.b[i] + Rational(rng.Chance(0.5) ? 1 : -1);
    }
  });
  ops->push_back([instance, &rng] {
    if (instance->lp.c.empty()) return;
    std::size_t j = rng.Below(instance->lp.c.size());
    instance->lp.c[j] =
        instance->lp.c[j] + Rational(rng.Chance(0.5) ? 1 : -1);
  });
  ops->push_back([instance, &rng] {
    // Add a constraint row.
    std::vector<Rational> row;
    for (std::size_t j = 0; j < instance->lp.c.size(); ++j) {
      row.emplace_back(SmallCoefficient(rng));
    }
    instance->lp.a.push_back(std::move(row));
    instance->lp.b.emplace_back(static_cast<std::int64_t>(rng.Below(7)) - 2);
  });
  ops->push_back([instance, &rng] {
    if (instance->lp.a.empty()) return;
    std::size_t i = rng.Below(instance->lp.a.size());
    instance->lp.a.erase(instance->lp.a.begin() + i);
    instance->lp.b.erase(instance->lp.b.begin() + i);
  });
}

// The config table: one row per FuzzConfig, in enum order. The comment over
// a row names the FuzzInstance fields the config reads.

const FuzzConfigSpec kConfigTable[] = {
    // db_a → db_b, optional hom_seed, optional db_c for the composition law.
    {.name = "hom", .mixed = true, .generate = GenerateHom,
     .check = CheckHom, .sanitize = SanitizeHom, .shrink = ShrinkDbPair},
    // query over db_a.
    {.name = "eval", .mixed = true, .generate = GenerateEval,
     .check = CheckEval, .sanitize = SanitizeEval, .shrink = ShrinkEval},
    // query vs query2, semantic check on db_a.
    {.name = "containment", .mixed = true, .generate = GenerateContainment,
     .check = CheckContainment, .sanitize = SanitizeContainment,
     .shrink = ShrinkContainment},
    // db_a with `frozen`, plus the MinimizeCq laws on `query`.
    {.name = "core", .mixed = true, .generate = GenerateCore,
     .check = CheckCore, .sanitize = SanitizeCore, .shrink = ShrinkDbAndQuery,
     .mutate_ops = CoreOps},
    // query (db_a carries the schema and is otherwise empty).
    {.name = "ghw", .mixed = true, .generate = GenerateGhw,
     .check = CheckGhw, .sanitize = SanitizeGhw, .shrink = ShrinkDbAndQuery},
    // db_a labelled by `labels`.
    {.name = "sep", .mixed = true, .generate = GenerateTraining,
     .check = CheckSep, .sanitize = SanitizeTraining,
     .shrink = ShrinkDbAndQuery},
    // db_a with positives/negatives and the CQ[m] bound `m`.
    {.name = "qbe", .mixed = true, .generate = GenerateQbe,
     .check = CheckQbe, .sanitize = SanitizeQbe, .shrink = ShrinkDbAndQuery,
     .mutate_ops = QbeOps, .scalars = kLineM},
    // db_a → db_b at pebble count `k`.
    {.name = "covergame", .mixed = true, .generate = GenerateCoverGame,
     .check = CheckCoverGame, .sanitize = SanitizeCoverGame,
     .shrink = ShrinkDbPair, .mutate_ops = CoverGameOps, .scalars = kLineK},
    // db_a labelled by `labels`, dimension bound `ell`.
    {.name = "dimension", .mixed = true, .generate = GenerateDimension,
     .check = CheckDimension, .sanitize = SanitizeDimension,
     .shrink = ShrinkDbAndQuery, .mutate_ops = DimensionOps,
     .scalars = kLineEll},
    // features/feature_labels and the LP `lp` (db-free).
    {.name = "linsep", .mixed = true, .generate = GenerateLinsep,
     .check = CheckLinsep, .sanitize = SanitizeLinsep, .shrink = ShrinkLinsep,
     .mutate_ops = LinsepOps},
    // db_a labelled by `labels`, plus the fault spec
    // (fault_site/fault_kind/fault_visit) injected into the budgeted
    // decision procedures.
    {.name = "faults", .generate = GenerateFaults, .check = CheckFaults,
     .sanitize = SanitizeFaults, .shrink = ShrinkFaults,
     .mutate_ops = FaultsOps, .scalars = kLineFault},
    // Traced: `k` seeds the async request interleaving, `m` ops.
    {.name = "serve", .generate = GenerateTraced, .check = CheckTraced,
     .sanitize = SanitizeTraced, .shrink = ShrinkTraced,
     .mutate_ops = TracedOps, .scalars = kLineK | kLineM,
     .traced = {5, 10, 6, 40, 60, CheckServeAsyncProperties}},
    // Traced: `k` seeds the insert/remove/relabel trace, `m` steps.
    {.name = "incremental", .generate = GenerateTraced, .check = CheckTraced,
     .sanitize = SanitizeTraced, .shrink = ShrinkTraced,
     .mutate_ops = TracedOps, .scalars = kLineK | kLineM,
     .traced = {4, 8, 4, 24, 40, CheckIncrementalProperties}},
    // Traced: `k` seeds the filesystem fault schedule and crash points, `m`
    // durable-tier ops.
    {.name = "crashio", .generate = GenerateTraced, .check = CheckTraced,
     .sanitize = SanitizeTraced, .shrink = ShrinkTraced,
     .mutate_ops = TracedOps, .scalars = kLineK | kLineM,
     .traced = {4, 8, 4, 24, 40, CheckCrashIoProperties}},
};
static_assert(std::size(kConfigTable) ==
                  static_cast<std::size_t>(FuzzConfig::kMixed),
              "one table row per concrete FuzzConfig");

}  // namespace

const FuzzConfigSpec& FuzzConfigSpecOf(FuzzConfig config) {
  const auto index = static_cast<std::size_t>(config);
  FEATSEP_CHECK_LT(index, std::size(kConfigTable))
      << "instances never carry kMixed";
  return kConfigTable[index];
}

const char* FuzzConfigName(FuzzConfig config) {
  if (config == FuzzConfig::kMixed) return "mixed";
  return FuzzConfigSpecOf(config).name;
}

std::optional<FuzzConfig> ParseFuzzConfig(std::string_view name) {
  if (name == FuzzConfigName(FuzzConfig::kMixed)) return FuzzConfig::kMixed;
  for (FuzzConfig config : AllFuzzConfigs()) {
    if (name == FuzzConfigName(config)) return config;
  }
  return std::nullopt;
}

std::vector<FuzzConfig> AllFuzzConfigs() {
  std::vector<FuzzConfig> all;
  for (std::size_t i = 0; i < std::size(kConfigTable); ++i) {
    all.push_back(static_cast<FuzzConfig>(i));
  }
  return all;
}

bool QueryIsSafe(const ConjunctiveQuery& query) {
  if (query.atoms().empty()) return false;
  for (Variable v : query.free_variables()) {
    bool occurs = false;
    for (const CqAtom& atom : query.atoms()) {
      if (std::find(atom.args.begin(), atom.args.end(), v) !=
          atom.args.end()) {
        occurs = true;
        break;
      }
    }
    if (!occurs) return false;
  }
  return true;
}

FuzzInstance GenerateFuzzInstance(FuzzConfig config,
                                  std::uint64_t instance_seed) {
  if (config == FuzzConfig::kMixed) {
    std::vector<FuzzConfig> pool;
    for (FuzzConfig c : AllFuzzConfigs()) {
      if (FuzzConfigSpecOf(c).mixed) pool.push_back(c);
    }
    config = pool[WorkloadRng(instance_seed).Below(pool.size())];
  }
  // The generation stream depends only on (instance_seed, resolved config),
  // so `--config <resolved> --seed S --iters 1` replays an instance found
  // under `--config mixed` exactly.
  WorkloadRng rng(instance_seed ^
                  (0x9e3779b97f4a7c15ULL *
                   (static_cast<std::uint64_t>(config) + 1)));
  FuzzInstance instance;
  instance.config = config;
  FuzzConfigSpecOf(config).generate(rng, &instance);
  return instance;
}

PropertyCheck CheckFuzzInstance(const FuzzInstance& instance) {
  return FuzzConfigSpecOf(instance.config).check(instance);
}

void SanitizeFuzzInstance(FuzzInstance* instance) {
  FuzzConfigSpecOf(instance->config).sanitize(instance);
}

FuzzInstance ShrinkFuzzInstance(
    FuzzInstance instance,
    const std::function<bool(const FuzzInstance&)>& still_failing) {
  FuzzConfigSpecOf(instance.config)
      .shrink(&instance, [&](FuzzInstance candidate) {
        SanitizeFuzzInstance(&candidate);
        return still_failing(candidate);
      });
  SanitizeFuzzInstance(&instance);
  return instance;
}

}  // namespace testing
}  // namespace featsep
