#ifndef FEATSEP_RELATIONAL_DATABASE_OPS_H_
#define FEATSEP_RELATIONAL_DATABASE_OPS_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "relational/database.h"

namespace featsep {

/// The induced sub-database of `db` on `values`: all facts whose arguments
/// all lie in `values`. All of `db`'s value names are re-interned in id
/// order, so value ids carry over unchanged (values outside `values` simply
/// drop out of the domain).
Database InducedSubdatabase(const Database& db,
                            const std::unordered_set<Value>& values);

/// Applies a value map to every fact: the result contains h(fact) for each
/// fact, where `mapping` is indexed by value id (entries may repeat —
/// non-injective maps fold facts together). Value ids carry over unchanged.
Database MapDatabase(const Database& db, const std::vector<Value>& mapping);

/// Disjoint union of two databases over the same schema; values of `b` are
/// renamed with the given suffix when their names collide with `a`'s.
/// Returns the union database; `b_value_map` (optional) receives, for each
/// value id of `b`, the corresponding value id in the result.
Database DisjointUnion(const Database& a, const Database& b,
                       const std::string& b_suffix,
                       std::vector<Value>* b_value_map = nullptr);

}  // namespace featsep

#endif  // FEATSEP_RELATIONAL_DATABASE_OPS_H_
