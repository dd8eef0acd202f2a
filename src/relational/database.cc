#include "relational/database.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "util/check.h"
#include "util/hash.h"

namespace featsep {

namespace {
const std::vector<FactIndex>& EmptyIndexList() {
  static const auto& empty = *new std::vector<FactIndex>();
  return empty;
}
}  // namespace

Database::Database(std::shared_ptr<const Schema> schema)
    : schema_(std::move(schema)) {
  FEATSEP_CHECK(schema_ != nullptr);
  facts_by_relation_.resize(schema_->size());
  facts_by_position_.resize(schema_->size());
  for (RelationId r = 0; r < schema_->size(); ++r) {
    facts_by_position_[r].resize(schema_->arity(r));
  }
}

// The copy/move special members are spelled out because the cache mutex and
// the atomic validity flags are neither copyable nor movable. Copying or
// moving requires exclusive access to both operands (as mutation does), so
// the cache fields can be transferred without holding the mutex. A copy
// starts with cold position bitsets; a move takes them along.

Database::Database(const Database& other)
    : schema_(other.schema_),
      value_names_(other.value_names_),
      values_by_name_(other.values_by_name_),
      facts_(other.facts_),
      fact_set_(other.fact_set_),
      facts_by_relation_(other.facts_by_relation_),
      facts_by_value_(other.facts_by_value_),
      facts_by_position_(other.facts_by_position_),
      domain_cache_(other.domain_cache_),
      domain_index_cache_(other.domain_index_cache_),
      domain_cache_valid_(other.domain_cache_valid_.load()),
      digest_cache_(other.digest_cache_),
      digest_schema_hash_(other.digest_schema_hash_),
      digest_facts_hash_(other.digest_facts_hash_),
      digest_valid_(other.digest_valid_.load()),
      in_domain_(other.in_domain_) {}

Database& Database::operator=(const Database& other) {
  if (this == &other) return *this;
  schema_ = other.schema_;
  value_names_ = other.value_names_;
  values_by_name_ = other.values_by_name_;
  facts_ = other.facts_;
  fact_set_ = other.fact_set_;
  facts_by_relation_ = other.facts_by_relation_;
  facts_by_value_ = other.facts_by_value_;
  facts_by_position_ = other.facts_by_position_;
  domain_cache_ = other.domain_cache_;
  domain_index_cache_ = other.domain_index_cache_;
  domain_cache_valid_.store(other.domain_cache_valid_.load());
  bitsets_valid_.store(false);
  digest_cache_ = other.digest_cache_;
  digest_schema_hash_ = other.digest_schema_hash_;
  digest_facts_hash_ = other.digest_facts_hash_;
  digest_valid_.store(other.digest_valid_.load());
  in_domain_ = other.in_domain_;
  return *this;
}

Database::Database(Database&& other) noexcept
    : schema_(std::move(other.schema_)),
      value_names_(std::move(other.value_names_)),
      values_by_name_(std::move(other.values_by_name_)),
      facts_(std::move(other.facts_)),
      fact_set_(std::move(other.fact_set_)),
      facts_by_relation_(std::move(other.facts_by_relation_)),
      facts_by_value_(std::move(other.facts_by_value_)),
      facts_by_position_(std::move(other.facts_by_position_)),
      domain_cache_(std::move(other.domain_cache_)),
      domain_index_cache_(std::move(other.domain_index_cache_)),
      domain_cache_valid_(other.domain_cache_valid_.load()),
      bitsets_cache_(std::move(other.bitsets_cache_)),
      bitsets_valid_(other.bitsets_valid_.load()),
      digest_cache_(other.digest_cache_),
      digest_schema_hash_(other.digest_schema_hash_),
      digest_facts_hash_(other.digest_facts_hash_),
      digest_valid_(other.digest_valid_.load()),
      in_domain_(std::move(other.in_domain_)) {
  other.domain_cache_valid_.store(false);
  other.bitsets_valid_.store(false);
  other.digest_valid_.store(false);
}

Database& Database::operator=(Database&& other) noexcept {
  if (this == &other) return *this;
  schema_ = std::move(other.schema_);
  value_names_ = std::move(other.value_names_);
  values_by_name_ = std::move(other.values_by_name_);
  facts_ = std::move(other.facts_);
  fact_set_ = std::move(other.fact_set_);
  facts_by_relation_ = std::move(other.facts_by_relation_);
  facts_by_value_ = std::move(other.facts_by_value_);
  facts_by_position_ = std::move(other.facts_by_position_);
  domain_cache_ = std::move(other.domain_cache_);
  domain_index_cache_ = std::move(other.domain_index_cache_);
  domain_cache_valid_.store(other.domain_cache_valid_.load());
  bitsets_cache_ = std::move(other.bitsets_cache_);
  bitsets_valid_.store(other.bitsets_valid_.load());
  digest_cache_ = other.digest_cache_;
  digest_schema_hash_ = other.digest_schema_hash_;
  digest_facts_hash_ = other.digest_facts_hash_;
  digest_valid_.store(other.digest_valid_.load());
  in_domain_ = std::move(other.in_domain_);
  other.domain_cache_valid_.store(false);
  other.bitsets_valid_.store(false);
  other.digest_valid_.store(false);
  return *this;
}

Value Database::Intern(std::string_view name) {
  auto it = values_by_name_.find(std::string(name));
  if (it != values_by_name_.end()) return it->second;
  Value value = static_cast<Value>(value_names_.size());
  value_names_.emplace_back(name);
  values_by_name_.emplace(std::string(name), value);
  facts_by_value_.emplace_back();
  in_domain_.push_back(false);
  // Keep the domain_index() length invariant (num_values() entries).
  domain_cache_valid_.store(false, std::memory_order_relaxed);
  bitsets_valid_.store(false, std::memory_order_relaxed);
  return value;
}

Value Database::FindValue(std::string_view name) const {
  auto it = values_by_name_.find(std::string(name));
  return it == values_by_name_.end() ? kNoValue : it->second;
}

const std::string& Database::value_name(Value value) const {
  FEATSEP_CHECK_LT(value, value_names_.size());
  return value_names_[value];
}

bool Database::ApplyInsert(RelationId relation, std::vector<Value> args,
                           std::vector<Value>* touched,
                           std::vector<Value>* entered) {
  FEATSEP_CHECK_LT(relation, schema_->size());
  FEATSEP_CHECK_EQ(args.size(), schema_->arity(relation))
      << "arity mismatch for relation " << schema_->name(relation);
  for (Value v : args) FEATSEP_CHECK_LT(v, value_names_.size());
  Fact fact{relation, std::move(args)};
  if (fact_set_.count(fact) > 0) return false;

  FactIndex index = facts_.size();
  facts_by_relation_[relation].push_back(index);
  for (std::size_t pos = 0; pos < fact.args.size(); ++pos) {
    facts_by_position_[relation][pos][fact.args[pos]].push_back(index);
  }
  // facts_by_value_ lists each fact once even if a value repeats.
  std::vector<Value> seen;
  for (Value v : fact.args) {
    if (std::find(seen.begin(), seen.end(), v) == seen.end()) {
      seen.push_back(v);
      if (!in_domain_[v] && entered != nullptr) entered->push_back(v);
      facts_by_value_[v].push_back(index);
      in_domain_[v] = true;
    }
  }
  if (touched != nullptr) *touched = seen;
  fact_set_.insert(fact);
  facts_.push_back(std::move(fact));
  return true;
}

bool Database::AddFact(RelationId relation, std::vector<Value> args) {
  if (!ApplyInsert(relation, std::move(args), nullptr, nullptr)) return false;
  domain_cache_valid_.store(false, std::memory_order_relaxed);
  bitsets_valid_.store(false, std::memory_order_relaxed);
  digest_valid_.store(false, std::memory_order_relaxed);
  return true;
}

bool Database::AddFact(std::string_view relation_name,
                       const std::vector<std::string>& arg_names) {
  RelationId relation = schema_->FindRelation(relation_name);
  FEATSEP_CHECK_NE(relation, kNoRelation)
      << "unknown relation: " << relation_name;
  std::vector<Value> args;
  args.reserve(arg_names.size());
  for (const std::string& name : arg_names) args.push_back(Intern(name));
  return AddFact(relation, std::move(args));
}

Delta Database::InsertFact(RelationId relation, std::vector<Value> args) {
  Delta delta;
  delta.kind = Delta::Kind::kInsert;
  delta.relation = relation;
  delta.args = args;
  // Force the digest memoized so the patch below lands on valid parts; the
  // first mutation on a database pays the one full fold.
  delta.old_digest = ContentDigest();
  delta.new_digest = delta.old_digest;

  const bool domain_was_warm =
      domain_cache_valid_.load(std::memory_order_relaxed);
  std::vector<Value> entered;
  if (!ApplyInsert(relation, std::move(args), &delta.touched, &entered)) {
    delta.touched.clear();  // duplicate fact: a no-op, footprint is empty
    return delta;
  }
  delta.applied = true;
  delta.entity_fact = schema_->has_entity_relation() &&
                      relation == schema_->entity_relation();
  bitsets_valid_.store(false, std::memory_order_relaxed);

  // Digest patch: the facts part is a commutative sum, so one += suffices.
  digest_facts_hash_ += FactContentHash(facts_.back());
  digest_cache_ = ComposeDigest();
  delta.new_digest = digest_cache_;

  // Domain patch: splice newly-domained values into the sorted cache. Only
  // when the cache was warm — a never-built cache stays invalid and is
  // built on demand.
  if (domain_was_warm && !entered.empty()) {
    for (Value v : entered) {
      auto it = std::lower_bound(domain_cache_.begin(), domain_cache_.end(), v);
      domain_cache_.insert(it, v);
    }
    ReindexDomainCache();
  }
  return delta;
}

Delta Database::RemoveFact(RelationId relation,
                           const std::vector<Value>& args) {
  FEATSEP_CHECK_LT(relation, schema_->size());
  FEATSEP_CHECK_EQ(args.size(), schema_->arity(relation))
      << "arity mismatch for relation " << schema_->name(relation);
  for (Value v : args) FEATSEP_CHECK_LT(v, value_names_.size());

  Delta delta;
  delta.kind = Delta::Kind::kRemove;
  delta.relation = relation;
  delta.args = args;
  delta.old_digest = ContentDigest();  // memoize before patching
  delta.new_digest = delta.old_digest;

  Fact fact{relation, args};
  auto set_it = fact_set_.find(fact);
  if (set_it == fact_set_.end()) return delta;  // absent fact: a no-op

  delta.applied = true;
  delta.entity_fact = schema_->has_entity_relation() &&
                      relation == schema_->entity_relation();
  bitsets_valid_.store(false, std::memory_order_relaxed);
  for (Value v : args) {
    if (std::find(delta.touched.begin(), delta.touched.end(), v) ==
        delta.touched.end()) {
      delta.touched.push_back(v);
    }
  }

  const std::uint64_t fact_hash = FactContentHash(fact);
  FactIndex removed = facts_.size();
  for (FactIndex i : facts_by_relation_[relation]) {
    if (facts_[i] == fact) {
      removed = i;
      break;
    }
  }
  FEATSEP_CHECK_LT(removed, facts_.size());

  fact_set_.erase(set_it);
  facts_.erase(facts_.begin() + static_cast<std::ptrdiff_t>(removed));

  // Every index list may reference facts above the removed one, whose
  // FactIndex values all shift down by one; rewrite them all. Linear in
  // total index size — trivial next to the per-entity evaluation work the
  // delta saves downstream.
  auto fix_list = [removed](std::vector<FactIndex>& list) {
    std::size_t out = 0;
    for (FactIndex i : list) {
      if (i == removed) continue;
      list[out++] = i > removed ? i - 1 : i;
    }
    list.resize(out);
  };
  for (std::vector<FactIndex>& list : facts_by_relation_) fix_list(list);
  for (std::vector<FactIndex>& list : facts_by_value_) fix_list(list);
  for (std::vector<PositionIndex>& by_pos : facts_by_position_) {
    for (PositionIndex& index : by_pos) {
      for (auto it = index.begin(); it != index.end();) {
        fix_list(it->second);
        // Drop emptied entries so the map only ever holds live postings.
        it = it->second.empty() ? index.erase(it) : std::next(it);
      }
    }
  }

  // Values whose last fact this was leave dom(D).
  const bool domain_was_warm =
      domain_cache_valid_.load(std::memory_order_relaxed);
  std::vector<Value> left;
  for (Value v : delta.touched) {
    if (facts_by_value_[v].empty() && in_domain_[v]) {
      in_domain_[v] = false;
      left.push_back(v);
    }
  }

  // Digest patch: subtract the removed fact's hash from the commutative sum.
  digest_facts_hash_ -= fact_hash;
  digest_cache_ = ComposeDigest();
  delta.new_digest = digest_cache_;

  // Domain patch: erase leavers from the sorted cache (cache stays warm).
  if (domain_was_warm && !left.empty()) {
    for (Value v : left) {
      auto it = std::lower_bound(domain_cache_.begin(), domain_cache_.end(), v);
      FEATSEP_CHECK(it != domain_cache_.end() && *it == v);
      domain_cache_.erase(it);
    }
    ReindexDomainCache();
  }
  return delta;
}

bool Database::ContainsFact(const Fact& fact) const {
  return fact_set_.count(fact) > 0;
}

const Fact& Database::fact(FactIndex index) const {
  FEATSEP_CHECK_LT(index, facts_.size());
  return facts_[index];
}

const std::vector<FactIndex>& Database::FactsOf(RelationId relation) const {
  FEATSEP_CHECK_LT(relation, facts_by_relation_.size());
  return facts_by_relation_[relation];
}

const std::vector<FactIndex>& Database::FactsContaining(Value value) const {
  FEATSEP_CHECK_LT(value, facts_by_value_.size());
  return facts_by_value_[value];
}

const std::vector<FactIndex>& Database::FactsWith(RelationId relation,
                                                  std::size_t pos,
                                                  Value value) const {
  const PositionIndex& index = PositionIndexOf(relation, pos);
  auto it = index.find(value);
  if (it == index.end()) return EmptyIndexList();
  return it->second;
}

const Database::PositionIndex& Database::PositionIndexOf(
    RelationId relation, std::size_t pos) const {
  FEATSEP_CHECK_LT(relation, facts_by_position_.size());
  FEATSEP_CHECK_LT(pos, facts_by_position_[relation].size());
  return facts_by_position_[relation][pos];
}

const std::vector<Value>& Database::domain() const {
  // Double-checked locking: the release store below pairs with this acquire
  // load, so a reader that observes `true` also observes the built caches;
  // cold concurrent readers serialize on the mutex and build once.
  if (!domain_cache_valid_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    if (!domain_cache_valid_.load(std::memory_order_relaxed)) {
      domain_cache_.clear();
      domain_index_cache_.assign(value_names_.size(), kNoDomainIndex);
      for (Value v = 0; v < in_domain_.size(); ++v) {
        if (in_domain_[v]) {
          domain_index_cache_[v] =
              static_cast<std::uint32_t>(domain_cache_.size());
          domain_cache_.push_back(v);
        }
      }
      domain_cache_valid_.store(true, std::memory_order_release);
    }
  }
  return domain_cache_;
}

const std::vector<std::uint32_t>& Database::domain_index() const {
  domain();  // Rebuilds both caches when stale.
  return domain_index_cache_;
}

namespace {

// Slot of the pair p1 < p2 among an arity-`arity` relation's pairs, listed
// (0,1), (0,2), …, (0,arity-1), (1,2), ….
std::size_t PairSlot(std::size_t arity, std::size_t p1, std::size_t p2) {
  return p1 * (2 * arity - p1 - 1) / 2 + (p2 - p1 - 1);
}

}  // namespace

const SvoBitset& Database::PositionBitsets::diagonal(RelationId relation,
                                                     std::size_t p1,
                                                     std::size_t p2) const {
  FEATSEP_CHECK_LT(p1, p2);
  const std::size_t arity =
      relpos_base_[relation + 1] - relpos_base_[relation];
  return diagonal_[pair_base_[relation] + PairSlot(arity, p1, p2)];
}

const Database::PositionBitsets& Database::position_bitsets() const {
  if (!bitsets_valid_.load(std::memory_order_acquire)) {
    // domain() takes cache_mutex_ itself, so warm it before locking.
    const std::vector<std::uint32_t>& index = domain_index();
    std::lock_guard<std::mutex> lock(cache_mutex_);
    if (!bitsets_valid_.load(std::memory_order_relaxed)) {
      PositionBitsets& bits = bitsets_cache_;
      const std::size_t ndom = domain_cache_.size();
      bits.relpos_base_.assign(schema_->size() + 1, 0);
      bits.pair_base_.assign(schema_->size(), 0);
      std::uint32_t pairs = 0;
      for (RelationId r = 0; r < schema_->size(); ++r) {
        const auto arity = static_cast<std::uint32_t>(schema_->arity(r));
        bits.relpos_base_[r + 1] = bits.relpos_base_[r] + arity;
        bits.pair_base_[r] = pairs;
        pairs += arity * (arity - 1) / 2;  // 0 for arity 0 too.
      }
      bits.at_.assign(bits.relpos_base_.back(), SvoBitset(ndom));
      bits.diagonal_.assign(pairs, SvoBitset(ndom));
      for (const Fact& fact : facts_) {
        const std::size_t arity = fact.args.size();
        for (std::size_t p1 = 0; p1 < arity; ++p1) {
          const std::uint32_t i = index[fact.args[p1]];
          bits.at_[bits.relpos_base_[fact.relation] + p1].set(i);
          for (std::size_t p2 = p1 + 1; p2 < arity; ++p2) {
            if (fact.args[p2] != fact.args[p1]) continue;
            bits.diagonal_[bits.pair_base_[fact.relation] +
                           PairSlot(arity, p1, p2)]
                .set(i);
          }
        }
      }
      bitsets_valid_.store(true, std::memory_order_release);
    }
  }
  return bitsets_cache_;
}

std::uint64_t Database::ContentDigest() const {
  if (!digest_valid_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    if (!digest_valid_.load(std::memory_order_relaxed)) {
      // Explicit FNV-1a-64 over canonical bytes — the exact format is a
      // persistence contract (DESIGN.md §13) pinned by golden values in
      // DatabaseDigestTest; it must never drift. In particular no part of
      // the computation may touch std::hash, whose output is
      // implementation-defined and differs across standard libraries, so
      // any on-disk or cross-process cache keyed by it would silently
      // never hit.
      //
      // Schema part: relation count, then for each relation in id order
      // its name (length-prefixed) and arity, then the entity designation
      // (id + 1, or 0 when absent). Id order is semantic —
      // Schema::operator== compares it.
      std::uint64_t schema_hash = kFnv64OffsetBasis;
      schema_hash =
          Fnv1a64U64(schema_hash, static_cast<std::uint64_t>(schema_->size()));
      for (RelationId r = 0; r < schema_->size(); ++r) {
        schema_hash = Fnv1a64String(schema_hash, schema_->name(r));
        schema_hash = Fnv1a64U64(
            schema_hash, static_cast<std::uint64_t>(schema_->arity(r)));
      }
      schema_hash = Fnv1a64U64(
          schema_hash,
          schema_->has_entity_relation()
              ? static_cast<std::uint64_t>(schema_->entity_relation()) + 1
              : 0);
      // Fact part: each fact is FNV-1a-64 of its relation id followed by
      // its argument *names* (value ids depend on interning order; names
      // do not), each length-prefixed. Per-fact hashes are combined by
      // wrap-around u64 addition so the digest is insensitive to insertion
      // order; facts are deduplicated, so the sum is over a set. The
      // commutative-sum form is also what makes the digest incrementally
      // maintainable: InsertFact/RemoveFact patch it by adding/subtracting
      // one FactContentHash instead of re-folding the whole database.
      std::uint64_t facts_hash = 0;
      for (const Fact& fact : facts_) {
        facts_hash += FactContentHash(fact);
      }
      digest_schema_hash_ = schema_hash;
      digest_facts_hash_ = facts_hash;
      digest_cache_ = ComposeDigest();
      digest_valid_.store(true, std::memory_order_release);
    }
  }
  return digest_cache_;
}

std::uint64_t Database::FactContentHash(const Fact& fact) const {
  std::uint64_t h = kFnv64OffsetBasis;
  h = Fnv1a64U64(h, static_cast<std::uint64_t>(fact.relation));
  for (Value v : fact.args) {
    h = Fnv1a64String(h, value_names_[v]);
  }
  return h;
}

std::uint64_t Database::ComposeDigest() const {
  std::uint64_t digest = kFnv64OffsetBasis;
  digest = Fnv1a64U64(digest, digest_schema_hash_);
  digest = Fnv1a64U64(digest, digest_facts_hash_);
  digest = Fnv1a64U64(digest, static_cast<std::uint64_t>(facts_.size()));
  return digest;
}

void Database::ReindexDomainCache() const {
  domain_index_cache_.assign(value_names_.size(), kNoDomainIndex);
  for (std::size_t i = 0; i < domain_cache_.size(); ++i) {
    domain_index_cache_[domain_cache_[i]] = static_cast<std::uint32_t>(i);
  }
}

std::uint32_t Database::DomainIndexOf(Value value) const {
  const std::vector<std::uint32_t>& index = domain_index();
  return value < index.size() ? index[value] : kNoDomainIndex;
}

bool Database::InDomain(Value value) const {
  return value < in_domain_.size() && in_domain_[value];
}

std::vector<Value> Database::Entities() const {
  RelationId eta = schema_->entity_relation();
  std::vector<Value> entities;
  for (FactIndex index : FactsOf(eta)) {
    entities.push_back(facts_[index].args[0]);
  }
  return entities;
}

bool Database::IsEntity(Value value) const {
  if (!schema_->has_entity_relation()) return false;
  RelationId eta = schema_->entity_relation();
  return !FactsWith(eta, 0, value).empty();
}

std::shared_ptr<const Schema> MakeSharedSchema(Schema schema) {
  return std::make_shared<const Schema>(std::move(schema));
}

}  // namespace featsep
