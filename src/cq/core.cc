#include "cq/core.h"

#include <unordered_set>
#include <utility>

#include "cq/evaluation.h"
#include "cq/homomorphism.h"
#include "relational/database_ops.h"
#include "util/check.h"

namespace featsep {

Database CoreOf(const Database& db, const std::vector<Value>& frozen) {
  Database current = db;
  std::unordered_set<Value> frozen_set(frozen.begin(), frozen.end());

  bool changed = true;
  while (changed) {
    changed = false;
    for (Value victim : current.domain()) {
      if (frozen_set.count(victim) > 0) continue;
      // Try to retract `current` into its sub-database avoiding `victim`.
      std::unordered_set<Value> keep;
      for (Value v : current.domain()) {
        if (v != victim) keep.insert(v);
      }
      Database target = InducedSubdatabase(current, keep);
      std::vector<std::pair<Value, Value>> seed;
      seed.reserve(frozen.size());
      for (Value f : frozen) seed.emplace_back(f, f);
      HomResult hom = FindHomomorphism(current, target, seed);
      // Audit guard: an interrupted search must never be read as "this
      // retraction is impossible" — skipping a retraction on kExhausted
      // would silently return a non-core database as the core. CoreOf runs
      // unbudgeted, so this cannot trip today; it fails loudly if a budget
      // is ever threaded in without restructuring this loop.
      FEATSEP_CHECK(hom.status != HomStatus::kExhausted)
          << "CoreOf cannot tolerate an interrupted homomorphism search";
      if (hom.status != HomStatus::kFound) continue;
      // Fold `current` along the retraction: facts become their images.
      current = MapDatabase(current, hom.mapping);
      changed = true;
      break;  // Domains changed; restart the victim scan.
    }
  }
  return current;
}

ConjunctiveQuery MinimizeCq(const ConjunctiveQuery& query) {
  auto [db, var_to_value] = query.CanonicalDatabase();
  std::vector<Value> frozen = ConjunctiveQuery::FreeTuple(query, var_to_value);
  Database core = CoreOf(db, frozen);
  return CqFromDatabase(core, frozen);
}

}  // namespace featsep
