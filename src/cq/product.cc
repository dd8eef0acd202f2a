#include "cq/product.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "cq/core.h"
#include "util/check.h"

namespace featsep {

std::optional<ProductResult> DirectProduct(const Database& a,
                                           const std::vector<Value>& a_tuple,
                                           const Database& b,
                                           const std::vector<Value>& b_tuple,
                                           std::size_t max_facts) {
  const Schema& schema = a.schema();
  FEATSEP_CHECK(b.schema() == schema) << "product factors must share a schema";
  FEATSEP_CHECK_EQ(a_tuple.size(), b_tuple.size())
      << "distinguished tuples must have equal length";

  // Fact-count guard before materializing anything. The count is at most
  // |a|·|b|, which fits a size_t for any two databases that fit in memory.
  std::size_t total = 0;
  for (RelationId rel = 0; rel < schema.size(); ++rel) {
    total += a.FactsOf(rel).size() * b.FactsOf(rel).size();
  }
  if (max_facts != 0 && total > max_facts) return std::nullopt;

  ProductResult result{Database(a.schema_ptr()), {}};
  // Interns the product value of the pair (x, y), memoized.
  std::unordered_map<std::uint64_t, Value> values;
  auto pair_value = [&](Value x, Value y) {
    auto [it, inserted] =
        values.try_emplace((std::uint64_t{x} << 32) | y, kNoValue);
    if (inserted) {
      it->second = result.db.Intern(a.value_name(x) + "|" + b.value_name(y));
    }
    return it->second;
  };

  for (RelationId rel = 0; rel < schema.size(); ++rel) {
    for (FactIndex fa : a.FactsOf(rel)) {
      const std::vector<Value>& a_args = a.fact(fa).args;
      for (FactIndex fb : b.FactsOf(rel)) {
        const std::vector<Value>& b_args = b.fact(fb).args;
        std::vector<Value> args(a_args.size());
        for (std::size_t pos = 0; pos < args.size(); ++pos) {
          args[pos] = pair_value(a_args[pos], b_args[pos]);
        }
        result.db.AddFact(rel, std::move(args));
      }
    }
  }

  result.tuple.reserve(a_tuple.size());
  for (std::size_t pos = 0; pos < a_tuple.size(); ++pos) {
    result.tuple.push_back(pair_value(a_tuple[pos], b_tuple[pos]));
  }
  return result;
}

std::optional<CoredProduct> FoldCoredProduct(const Database& db,
                                             const std::vector<Value>& points,
                                             std::size_t max_facts,
                                             ExecutionBudget* budget) {
  FEATSEP_CHECK(!points.empty()) << "a product needs at least one factor";
  if (!RecheckBudget(budget)) return std::nullopt;
  if (points.size() == 1) {
    return CoredProduct{CoreOf(db, {points[0]}), points[0], db.size()};
  }
  // The first step multiplies (db, e₁) itself; later steps multiply the
  // core of the product so far.
  CoredProduct result{Database(db.schema_ptr()), points[0], 0};
  const Database* left = &db;
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (i > 1 && !RecheckBudget(budget)) return std::nullopt;
    std::optional<ProductResult> product =
        DirectProduct(*left, {result.point}, db, {points[i]}, max_facts);
    FEATSEP_CHECK(product.has_value())
        << "product exceeds max_product_facts (coNEXPTIME-sized instance; "
           "raise the budget or use fewer factors)";
    result.largest_facts = std::max(result.largest_facts, product->db.size());
    result.point = product->tuple[0];
    result.db = CoreOf(product->db, product->tuple);
    left = &result.db;
  }
  return result;
}

}  // namespace featsep
