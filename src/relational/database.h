#ifndef FEATSEP_RELATIONAL_DATABASE_H_
#define FEATSEP_RELATIONAL_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "relational/fact.h"
#include "relational/schema.h"
#include "relational/value.h"
#include "util/svo_bitset.h"

namespace featsep {

/// The structured result of one mutation (Database::InsertFact /
/// Database::RemoveFact): what changed, which values it touched, and the
/// content digests on either side of the change. This is the unit the
/// incremental serve layer (serve/incremental.h) consumes to invalidate or
/// patch exactly the cached state the mutation can affect (DESIGN.md §14).
struct Delta {
  enum class Kind { kInsert, kRemove };

  Kind kind = Kind::kInsert;
  /// False for no-ops — inserting a fact already present, or removing one
  /// that never was. A no-op delta changed no state: `old_digest ==
  /// new_digest` and `touched` is empty.
  bool applied = false;
  RelationId relation = kNoRelation;
  /// The fact's argument tuple (valid whether or not the mutation applied).
  std::vector<Value> args;
  /// The distinct argument values — the delta's footprint, seed set of the
  /// neighborhood screen in serve/incremental.h. Empty for no-ops.
  std::vector<Value> touched;
  /// True when the fact is an entity fact η(e): the entity set η(D) itself
  /// changed, not just some entity's neighborhood.
  bool entity_fact = false;
  /// Database::ContentDigest() before and after the mutation. Equal for
  /// no-ops. Mutations through this API keep the digest memoized, patched
  /// incrementally (see ContentDigest()).
  std::uint64_t old_digest = 0;
  std::uint64_t new_digest = 0;
};

/// A finite set of facts over a schema (paper, Section 2), together with a
/// symbol table interning the constant names and the secondary indexes used
/// by the homomorphism engine and the cover-game solver:
///   - facts by relation,
///   - facts by contained value,
///   - facts by (relation, argument position, value).
/// Fact insertion is deduplicating (a database is a *set* of facts).
///
/// Thread safety: mutation (Intern, AddFact, InsertFact, RemoveFact) and
/// copying/moving require exclusive access, like a standard container. All
/// const accessors — including the lazily built `domain()`,
/// `domain_index()`, `position_bitsets()` and `ContentDigest()` caches — are
/// safe to call concurrently from any number of threads with no warm-up
/// step: lazy construction is internally synchronized (double-checked
/// locking on a per-database mutex).
///
/// Mutation contract (pinned by DatabaseMutationContractTest under tsan):
/// mutating while ANY other thread reads the database — or dereferences a
/// reference previously returned by an accessor — is a data race and a
/// programmer error; the mutators patch the memoized caches in place, so a
/// concurrently held `domain()`/`domain_index()` reference observes the
/// write. The safe pattern is epoch-style: readers (any number of threads)
/// finish and establish a happens-before edge to the mutator (e.g. a join
/// or a task-queue handoff), the mutator applies InsertFact/RemoveFact
/// exclusively, then readers resume — re-fetching references, never reusing
/// pre-mutation ones. Caches stay warm across the epoch boundary: the
/// mutators patch rather than drop them whenever possible. The exception is
/// `position_bitsets()`, which every mutation resets; it is rebuilt by the
/// next search into the database.
class Database {
 public:
  explicit Database(std::shared_ptr<const Schema> schema);

  Database(const Database& other);
  Database& operator=(const Database& other);
  Database(Database&& other) noexcept;
  Database& operator=(Database&& other) noexcept;

  const Schema& schema() const { return *schema_; }
  const std::shared_ptr<const Schema>& schema_ptr() const { return schema_; }

  /// Interns a constant name, creating it if absent. Interned values need
  /// not occur in any fact; the paper's dom(D) is `domain()` below.
  Value Intern(std::string_view name);

  /// Looks up a constant by name; kNoValue if never interned.
  Value FindValue(std::string_view name) const;

  /// The name a value was interned under.
  const std::string& value_name(Value value) const;

  /// Number of interned constants (an upper bound on |dom(D)|).
  std::size_t num_values() const { return value_names_.size(); }

  /// Adds fact relation(args); returns true if the fact is new. The argument
  /// count must match the relation's arity.
  bool AddFact(RelationId relation, std::vector<Value> args);

  /// Convenience: interns names and adds the fact; the relation is looked up
  /// by name and must exist in the schema.
  bool AddFact(std::string_view relation_name,
               const std::vector<std::string>& arg_names);

  /// Mutation API for delta maintenance (DESIGN.md §14). Semantically
  /// InsertFact is AddFact; both return a structured Delta describing the
  /// change, and both *force* the content digest to be memoized so it can
  /// be patched incrementally: the first mutation on a database pays one
  /// full digest pass, every further one costs O(fact) digest work. The
  /// memoized domain()/domain_index() caches are likewise patched in place
  /// when they are warm (insertion into / deletion from the sorted domain),
  /// or left invalid when they never were built.
  Delta InsertFact(RelationId relation, std::vector<Value> args);

  /// Removes the fact if present (no-op delta otherwise). Remaining facts
  /// keep their relative order — FactIndex values above the removed fact
  /// shift down by one, and every secondary index is rewritten accordingly,
  /// so Entities() order stays the insertion order of the surviving η
  /// facts. Cost is linear in the total index size (|D| · arity), far below
  /// the NP-hard per-entity evaluation the delta saves downstream.
  Delta RemoveFact(RelationId relation, const std::vector<Value>& args);

  bool ContainsFact(const Fact& fact) const;

  /// All facts in insertion order.
  const std::vector<Fact>& facts() const { return facts_; }

  /// |D|: the number of facts.
  std::size_t size() const { return facts_.size(); }

  const Fact& fact(FactIndex index) const;

  /// Indexes of all facts of `relation`.
  const std::vector<FactIndex>& FactsOf(RelationId relation) const;

  /// Indexes of all facts in which `value` occurs (each fact listed once).
  const std::vector<FactIndex>& FactsContaining(Value value) const;

  /// Indexes of facts of `relation` with `value` at argument position `pos`.
  const std::vector<FactIndex>& FactsWith(RelationId relation,
                                          std::size_t pos, Value value) const;

  /// The index FactsWith consults for one (relation, pos): value -> indexes
  /// of facts of `relation` carrying it at `pos`. Exposed so hot callers
  /// (e.g., homomorphism pivot selection) can cache the map pointer at setup
  /// and skip the relation/pos navigation on every probe.
  using PositionIndex = std::unordered_map<Value, std::vector<FactIndex>>;
  const PositionIndex& PositionIndexOf(RelationId relation,
                                       std::size_t pos) const;

  /// dom(D): the values occurring in facts, in increasing value order.
  const std::vector<Value>& domain() const;

  /// Sentinel for "not a domain position".
  static constexpr std::uint32_t kNoDomainIndex =
      static_cast<std::uint32_t>(-1);

  /// Dense value index: maps every interned value to its position in
  /// domain(), or kNoDomainIndex for values outside dom(D). Indexed by value
  /// id; the vector has num_values() entries. This is the bridge between
  /// Value ids and the 0..|dom(D)|-1 universe the bitset-domain homomorphism
  /// engine operates over. Like domain(), built lazily and safe to hit cold
  /// from concurrent readers.
  const std::vector<std::uint32_t>& domain_index() const;

  /// Value bitsets over domain() positions (bit i stands for domain()[i]),
  /// the unary constraints every homomorphism search into this database
  /// starts from.
  class PositionBitsets {
   public:
    /// The values occurring at argument `pos` of some `relation` fact.
    const SvoBitset& at(RelationId relation, std::size_t pos) const {
      return at_[relpos_base_[relation] + pos];
    }
    /// The diagonal of `relation` at p1 < p2: the values some fact carries
    /// at both positions.
    const SvoBitset& diagonal(RelationId relation, std::size_t p1,
                              std::size_t p2) const;

   private:
    friend class Database;
    // relation -> first at_ slot; one more entry closes the last relation.
    std::vector<std::uint32_t> relpos_base_;
    std::vector<SvoBitset> at_;
    std::vector<std::uint32_t> pair_base_;  // relation -> first diagonal_ slot.
    std::vector<SvoBitset> diagonal_;  // Pairs (0,1), (0,2), …, (1,2), ….
  };

  /// The position bitsets of this database. Built lazily from one pass over
  /// the facts, reset by every mutation and not carried by copies, and like
  /// domain() safe to hit cold from concurrent readers.
  const PositionBitsets& position_bitsets() const;

  /// Content digest: explicit FNV-1a-64 over canonical bytes of the schema
  /// and the *set* of facts, insensitive to fact insertion order and to
  /// value interning order (facts are hashed by relation and argument
  /// names, then combined commutatively). Two databases with equal schemas
  /// and equal fact sets — up to constant names — digest equally regardless
  /// of construction order; interned-but-unused constants do not
  /// contribute. The value is *stable across processes, platforms, and
  /// standard libraries* (no std::hash anywhere in its computation; golden
  /// values are pinned in DatabaseDigestTest and the format is specified in
  /// DESIGN.md §13), so it keys the persistent on-disk result cache and the
  /// file-based shard protocol as well as the in-memory serve cache
  /// (serve/eval_service.h, serve/disk_cache.h). Memoized thread-safely.
  std::uint64_t ContentDigest() const;

  /// Position of `value` in domain(), or kNoDomainIndex if absent.
  std::uint32_t DomainIndexOf(Value value) const;

  /// True if `value` occurs in some fact.
  bool InDomain(Value value) const;

  /// η(D): the entities, i.e., values e with η(e) ∈ D, in insertion order of
  /// the η facts. Requires the schema to designate an entity relation.
  std::vector<Value> Entities() const;

  /// True if η(value) ∈ D.
  bool IsEntity(Value value) const;

 private:
  // Core insertion shared by AddFact and InsertFact: dedups, appends to all
  // indexes, updates in_domain_. Does NOT touch the lazy-cache validity
  // flags — callers decide between invalidating (AddFact) and patching
  // (InsertFact). Records the distinct argument values in `touched` and the
  // values that newly entered dom(D) in `entered` when non-null.
  bool ApplyInsert(RelationId relation, std::vector<Value> args,
                   std::vector<Value>* touched, std::vector<Value>* entered);

  // The per-fact FNV-1a-64 hash folded (by wraparound addition) into the
  // facts part of ContentDigest().
  std::uint64_t FactContentHash(const Fact& fact) const;

  // Recombines the memoized digest parts with the current fact count.
  // Requires digest_schema_hash_/digest_facts_hash_ to be populated (i.e.
  // ContentDigest() ran at least once and mutations kept them patched).
  std::uint64_t ComposeDigest() const;

  // Rebuilds domain_index_cache_ from domain_cache_ after a sorted
  // insert/erase patch (O(num_values), vs. re-deriving domain_cache_ from
  // scratch which the DCL slow path does).
  void ReindexDomainCache() const;

  std::shared_ptr<const Schema> schema_;

  std::vector<std::string> value_names_;
  std::unordered_map<std::string, Value> values_by_name_;

  std::vector<Fact> facts_;
  std::unordered_set<Fact, FactHash> fact_set_;

  std::vector<std::vector<FactIndex>> facts_by_relation_;
  std::vector<std::vector<FactIndex>> facts_by_value_;
  // Keyed by (relation, pos) -> value -> fact indexes.
  std::vector<std::vector<PositionIndex>> facts_by_position_;

  // Lazily built caches, guarded by `cache_mutex_` under double-checked
  // locking: the `*_valid_` flag is read with acquire ordering outside the
  // mutex and published with release ordering after the cache is built, so
  // cold concurrent readers are safe. Mutators reset the flags (they
  // already require exclusive access).
  mutable std::mutex cache_mutex_;
  mutable std::vector<Value> domain_cache_;
  mutable std::vector<std::uint32_t> domain_index_cache_;
  mutable std::atomic<bool> domain_cache_valid_{false};
  mutable PositionBitsets bitsets_cache_;
  mutable std::atomic<bool> bitsets_valid_{false};
  mutable std::uint64_t digest_cache_ = 0;
  // The two components ContentDigest() is composed from, memoized alongside
  // it so the mutation API can patch the digest in O(fact): the schema part
  // is immutable, the facts part is a wraparound sum of per-fact hashes, so
  // insert/remove is += / -= of FactContentHash. Meaningful only while
  // digest_valid_ is true.
  mutable std::uint64_t digest_schema_hash_ = 0;
  mutable std::uint64_t digest_facts_hash_ = 0;
  mutable std::atomic<bool> digest_valid_{false};
  std::vector<bool> in_domain_;
};

/// Builds a database over a fresh single-use schema copy that shares
/// relation ids with `schema`. (Helper for tests and generators that want a
/// value-identical schema object they can own.)
std::shared_ptr<const Schema> MakeSharedSchema(Schema schema);

}  // namespace featsep

#endif  // FEATSEP_RELATIONAL_DATABASE_H_
