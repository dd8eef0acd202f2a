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
#include <utility>
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
/// a mutation drops every lazy index — `domain()`, `domain_index()` and
/// `position_bitsets()` — and the next reader rebuilds it; only the content
/// digest survives, patched in O(fact) when it is memoized. Mutating while
/// any other thread reads the database, or dereferences a reference an
/// accessor returned, is a data race and a programmer error. The safe
/// pattern is epoch-style: readers finish and establish a happens-before
/// edge to the mutator (a join or a task-queue handoff), the mutator runs
/// exclusively, then readers resume and re-fetch their references.
class Database {
 public:
  explicit Database(std::shared_ptr<const Schema> schema);

  Database(const Database& other) = default;
  Database& operator=(const Database& other) = default;
  Database(Database&& other) noexcept = default;
  Database& operator=(Database&& other) noexcept = default;

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

  /// Mutation API for delta maintenance (DESIGN.md §14). InsertFact is
  /// AddFact returning a structured Delta of the change. Both delta
  /// mutators *force* the content digest to be memoized so it is patched
  /// rather than re-folded: the first one on a database pays one full
  /// digest pass, every further mutation costs O(fact) digest work.
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
  /// the facts, dropped by every mutation and not carried by copies, and
  /// like domain() safe to hit cold from concurrent readers.
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
  // The lazily built caches, their validity flags and the mutex guarding
  // their construction: double-checked locking, where a `*_valid` flag is
  // read with acquire ordering outside the mutex and published with release
  // ordering after its cache is built, so cold concurrent readers are safe.
  // Mutators clear the flags without the mutex (they have exclusive
  // access). Copying and moving also require exclusive access to both
  // sides, so they transfer the fields without locking: a copy carries the
  // domain and the digest and starts with cold bitsets; a move takes
  // everything and leaves its source cold.
  struct LazyCaches {
    LazyCaches() = default;
    LazyCaches(const LazyCaches& other) { *this = other; }
    LazyCaches(LazyCaches&& other) noexcept { *this = std::move(other); }
    LazyCaches& operator=(const LazyCaches& other);
    LazyCaches& operator=(LazyCaches&& other) noexcept;

    std::mutex mutex;
    std::vector<Value> domain;
    std::vector<std::uint32_t> domain_index;
    std::atomic<bool> domain_valid{false};
    PositionBitsets bitsets;
    std::atomic<bool> bitsets_valid{false};
    // ContentDigest() and the two parts it is composed from: the schema
    // part is immutable and the facts part is a wraparound sum of per-fact
    // hashes, so a mutation patches it with += / -= FactContentHash.
    std::uint64_t digest = 0;
    std::uint64_t digest_schema_hash = 0;
    std::uint64_t digest_facts_hash = 0;
    std::atomic<bool> digest_valid{false};
  };

  // Every mutator ends here: drops domain(), domain_index() and
  // position_bitsets(), and adds `facts_hash_change` (wraparound) to the
  // facts part of a memoized digest, the only memo a mutation patches.
  void OnMutation(std::uint64_t facts_hash_change);

  // A no-op Delta of `kind` on relation(args), with the digest memoized and
  // recorded on both sides.
  Delta BeginDelta(Delta::Kind kind, RelationId relation,
                   const std::vector<Value>& args) const;

  // Marks `delta` applied and fills its footprint and new digest.
  void CompleteDelta(Delta& delta) const;

  // The per-fact FNV-1a-64 hash folded (by wraparound addition) into the
  // facts part of ContentDigest().
  std::uint64_t FactContentHash(const Fact& fact) const;

  // Recombines the memoized digest parts with the current fact count.
  std::uint64_t ComposeDigest() const;

  std::shared_ptr<const Schema> schema_;

  std::vector<std::string> value_names_;
  std::unordered_map<std::string, Value> values_by_name_;

  std::vector<Fact> facts_;
  std::unordered_set<Fact, FactHash> fact_set_;

  std::vector<std::vector<FactIndex>> facts_by_relation_;
  // Also the record of dom(D): a value is in the domain iff its list is
  // non-empty.
  std::vector<std::vector<FactIndex>> facts_by_value_;
  // Keyed by (relation, pos) -> value -> fact indexes.
  std::vector<std::vector<PositionIndex>> facts_by_position_;

  mutable LazyCaches caches_;
};

/// Builds a database over a fresh single-use schema copy that shares
/// relation ids with `schema`. (Helper for tests and generators that want a
/// value-identical schema object they can own.)
std::shared_ptr<const Schema> MakeSharedSchema(Schema schema);

}  // namespace featsep

#endif  // FEATSEP_RELATIONAL_DATABASE_H_
