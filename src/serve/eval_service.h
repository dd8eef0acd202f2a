#ifndef FEATSEP_SERVE_EVAL_SERVICE_H_
#define FEATSEP_SERVE_EVAL_SERVICE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cq/cq.h"
#include "linsep/linear_classifier.h"
#include "relational/database.h"
#include "serve/disk_cache.h"
#include "util/budget.h"

namespace featsep {
namespace serve {

/// Options for the batched evaluation service.
struct ServeOptions {
  /// Shards (total concurrency) for the (feature × entity-block) work
  /// queue: 0 = hardware concurrency, 1 = serial in the calling thread.
  /// Results are bit-identical for every setting.
  std::size_t num_shards = 0;
  /// Entities per work item. Small blocks load-balance hard features;
  /// large blocks amortize dispatch. The default suits the NP-hard
  /// per-entity kernel cost.
  std::size_t entity_block = 64;
  /// Capacity of the per-feature result cache, in entries (one entry per
  /// distinct (database digest, feature) pair); 0 disables caching.
  std::size_t cache_capacity = 1024;
  /// Directory of the persistent on-disk result cache (serve/disk_cache.h):
  /// a durable tier under the in-memory LRU, read through on LRU misses and
  /// written behind after fresh evaluations. Shared safely between
  /// processes and across restarts; empty disables the disk tier.
  std::string cache_dir;
  /// Shared work directory for sharded evaluation through the shard
  /// protocol (serve/shard_protocol.h): cache misses are published as shard
  /// jobs here and evaluated cooperatively by this process and any
  /// RunShardWorkerDir threads attached to the same directory, with
  /// results merged bit-identically to the in-process path. Empty disables
  /// shard mode. Budgeted (TryResolve) requests always evaluate in-process.
  std::string shard_dir;
  /// Filesystem backend for the durable tiers (disk cache + shard
  /// protocol); null = the real filesystem. Tests and the crashio fuzzer
  /// inject a FaultFsEnv here.
  std::shared_ptr<FsEnv> fs_env;
  /// Retry policy for transient disk-tier faults: total attempts per
  /// store/load/remove (1 = no retry) and the backoff before each retry
  /// (exponential, deterministically jittered).
  int disk_retry_attempts = 3;
  std::chrono::microseconds disk_retry_backoff{100};
  /// Disk circuit breaker: after this many *consecutive* store/load I/O
  /// failures the disk tier trips open and serving degrades gracefully to
  /// LRU + compute (answers stay bit-identical; the disk is simply not
  /// consulted). 0 disables the breaker. While open, after
  /// breaker_probe_interval the next disk operation is let through as a
  /// half-open probe: success closes the breaker, failure re-opens it.
  int breaker_failure_threshold = 5;
  std::chrono::milliseconds breaker_probe_interval{1000};
};

/// Health of the disk tier as seen by the circuit breaker.
enum class DiskHealth : std::uint8_t {
  kClosed = 0,  ///< Healthy: disk consulted normally.
  kOpen,        ///< Tripped: disk bypassed, serving from LRU + compute.
  kHalfOpen,    ///< Probing: one operation in flight to test recovery.
};

/// Counters for observability and tests. Snapshot via EvalService::stats().
struct ServeStats {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t features_evaluated = 0;  ///< Kernel-evaluated (cache misses).
  /// Matrix cells of the features counted in features_evaluated (each
  /// feature adds its database's entity count); aborted features add none.
  std::uint64_t entity_evaluations = 0;
  /// Work items (feature × entity-block shards) abandoned because the
  /// request's ExecutionBudget tripped mid-batch.
  std::uint64_t cancelled_shards = 0;
  /// Features re-requested after an earlier evaluation of the same
  /// (database, feature) key was aborted before completing.
  std::uint64_t evaluation_retries = 0;
  // Disk tier (zero unless ServeOptions::cache_dir is set).
  std::uint64_t disk_hits = 0;
  std::uint64_t disk_misses = 0;
  std::uint64_t disk_writes = 0;
  /// Entries ignored as corrupt, version-mismatched, or key-colliding.
  std::uint64_t disk_drops = 0;
  // Disk-tier fault handling (serve/disk_cache.h + the circuit breaker).
  std::uint64_t disk_io_errors = 0;   ///< Loads that faulted after retries.
  std::uint64_t disk_retries = 0;     ///< Extra load/store attempts.
  std::uint64_t disk_give_ups = 0;    ///< Loads+stores that exhausted retries.
  std::uint64_t breaker_trips = 0;    ///< closed/half-open → open transitions.
  std::uint64_t breaker_probes = 0;   ///< open → half-open probe admissions.
  std::uint64_t breaker_closes = 0;   ///< Successful probes (probe → closed).
  /// Disk operations skipped because the breaker was open (served from
  /// LRU + compute instead; answers unaffected).
  std::uint64_t breaker_short_circuits = 0;
  // Shard mode (zero unless ServeOptions::shard_dir is set).
  std::uint64_t shard_jobs = 0;          ///< Miss batches published as jobs.
  std::uint64_t local_shards = 0;        ///< Shards this process evaluated.
  std::uint64_t remote_shards = 0;       ///< Shards merged from workers.
  std::uint64_t reclaimed_leases = 0;    ///< Dead-worker shards re-queued.
  /// Shards pulled out of the protocol after repeated failures and
  /// evaluated in-memory by the coordinator (answers unaffected).
  std::uint64_t quarantined_shards = 0;
  std::uint64_t shard_corrupt_results = 0;  ///< Dropped, never trusted.
  std::uint64_t shard_claim_races = 0;
  std::uint64_t shard_claim_errors = 0;
  std::uint64_t shard_requeue_failures = 0;
  std::uint64_t shard_io_retries = 0;
  std::uint64_t shard_io_give_ups = 0;
};

/// The answer set q(D) ∩ η(D) of one feature query, content-addressed: the
/// selected entities are stored by *name*, matching the digest's
/// order-insensitivity, so the entry transfers between equal-content
/// databases even when their interning orders (and hence value ids) differ.
class FeatureAnswer {
 public:
  explicit FeatureAnswer(std::unordered_set<std::string> selected)
      : selected_(std::move(selected)) {}

  /// True iff `entity` of `db` is selected. `db` must have the digest the
  /// entry was cached under.
  bool Selects(const Database& db, Value entity) const {
    return selected_.count(db.value_name(entity)) > 0;
  }

  std::size_t size() const { return selected_.size(); }

  /// True iff the entity with this name is selected (name-level probe for
  /// callers that track entities by name across digests).
  bool SelectsName(const std::string& name) const {
    return selected_.count(name) > 0;
  }

  /// The selected entity names — the content the incremental maintainer
  /// patches (copy, mutate, re-wrap) and the disk tier serializes.
  const std::unordered_set<std::string>& names() const { return selected_; }

 private:
  std::unordered_set<std::string> selected_;
};

/// Batched CQ-feature evaluation over the bitset homomorphism kernel, for
/// fitting-style pipelines that evaluate many candidate features over the
/// same database(s) repeatedly (DESIGN.md §8):
///
///   - results are cached in an LRU keyed by (Database::ContentDigest(),
///     feature canonical string), so a repeated (database, feature) pair
///     costs hash lookups instead of NP-hard homomorphism searches;
///   - cache misses are computed as (feature × entity-block) work items on
///     the process-wide pool of util/parallel.h, at most `num_shards` at
///     once.
///
/// A service is safe to share between threads (the cache is
/// mutex-protected; concurrent batches share the pool) and may be called
/// from inside another parallel batch. Every query path has a serial
/// fallback: `num_shards = 1` never touches a worker thread,
/// `cache_capacity = 0` never caches, and all results are bit-identical to
/// the unserved paths in core/statistic.h, core/separability.h, and
/// qbe/qbe.h.
class EvalService {
 public:
  explicit EvalService(const ServeOptions& options = {});

  const ServeOptions& options() const { return options_; }

  /// Π^D(e) for all entities of D in the order of db.Entities(), with rows
  /// indexed like core/statistic.h's Statistic::Matrix — one entry of ±1
  /// per feature, in feature order.
  std::vector<FeatureVector> Matrix(
      const std::vector<ConjunctiveQuery>& features, const Database& db);

  /// Π^D(e) for a single entity. Warm features are answered from the
  /// cache; cold features are batch-evaluated (and cached) first, so a
  /// Vector call on a fresh database pays one Matrix-shaped evaluation and
  /// every subsequent call on equal content is pure lookup.
  FeatureVector Vector(const std::vector<ConjunctiveQuery>& features,
                       const Database& db, Value entity);

  /// Budgeted Resolve for per-request deadlines/cancellation. Features
  /// whose evaluation was interrupted come back as nullptr; non-null
  /// answers are always complete and definitive. An interrupted feature is
  /// NEVER cached, so an aborted request can't poison later ones; a budget
  /// already expired at entry returns all-nullptr without touching the
  /// kernel. Cancellation is cooperative: queued shards of an abandoned
  /// request notice the tripped budget at dispatch and return immediately
  /// (counted in stats().cancelled_shards).
  std::vector<std::shared_ptr<const FeatureAnswer>> TryResolve(
      const std::vector<ConjunctiveQuery>& features, const Database& db,
      ExecutionBudget* budget);

  ServeStats stats() const;
  std::size_t cache_size() const;
  void ClearCache();

  /// Current disk-tier breaker state (kClosed when the breaker is disabled
  /// or there is no disk tier).
  DiskHealth disk_health() const;

  // Delta-maintenance hooks, used by IncrementalMaintainer
  // (serve/incremental.h). They operate on one (digest, feature) entry at a
  // time across both tiers; normal Resolve traffic may run concurrently.

  /// The cached answer for (digest, feature) from the LRU or, read-through,
  /// the disk tier — without promoting, inserting, or counting a hit/miss
  /// in the in-memory stats. nullptr when cold in both tiers.
  std::shared_ptr<const FeatureAnswer> PeekCached(std::uint64_t digest,
                                                  const std::string& feature);

  /// Publishes a patched answer under the new digest in both tiers and
  /// drops the stale old-digest entry from both: after this returns, the
  /// old key can never be served again and the new key is warm.
  void Republish(std::uint64_t old_digest, std::uint64_t new_digest,
                 const std::string& feature,
                 std::shared_ptr<const FeatureAnswer> answer);

 private:
  using CacheKey = std::pair<std::uint64_t, std::string>;
  /// Buckets the in-memory LRU by the same stable FNV-1a-64 identity that
  /// names on-disk entries (serve/disk_cache.h), so the in-memory and
  /// serialized key spaces agree exactly — no std::hash anywhere.
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& key) const;
  };
  struct CacheEntry {
    CacheKey key;
    std::shared_ptr<const FeatureAnswer> answer;
  };
  struct Miss;

  /// Cache lookups + batched evaluation of the misses; the workhorse
  /// behind Matrix/Vector/TryResolve. Returns one answer per
  /// feature; with a non-null budget, interrupted features are nullptr.
  std::vector<std::shared_ptr<const FeatureAnswer>> Resolve(
      const std::vector<ConjunctiveQuery>& features, const Database& db,
      ExecutionBudget* budget);

  /// Evaluates the misses via the file-based shard protocol
  /// (options_.shard_dir), filling each miss's flags; returns false (and
  /// leaves flags untouched) if publishing failed, in which case the
  /// caller falls back to the in-process pool.
  bool ResolveMissesSharded(std::vector<Miss>& misses, const Database& db,
                            const std::vector<Value>& entities);

  std::shared_ptr<const FeatureAnswer> CacheGet(const CacheKey& key);
  void CachePut(CacheKey key, std::shared_ptr<const FeatureAnswer> answer);

  /// Breaker gate: true when the disk tier may be touched right now. While
  /// open, returns false (counting a short-circuit) until the probe
  /// interval elapses, then admits exactly one operation as the half-open
  /// probe. Every admitted store/load must report back via NoteDiskResult.
  bool DiskTierAllowed();
  /// Feeds one store/load outcome to the breaker: success closes a probing
  /// breaker and resets the consecutive-failure run; an I/O failure extends
  /// it and trips the breaker at the threshold.
  void NoteDiskResult(bool io_ok);

  ServeOptions options_;
  /// Durable tier; null when cache_dir is empty. Thread-safe itself, so
  /// accessed outside cache_mutex_.
  std::unique_ptr<DiskResultCache> disk_;

  mutable std::mutex cache_mutex_;
  std::list<CacheEntry> lru_;  // Front = most recently used.
  std::unordered_map<CacheKey, std::list<CacheEntry>::iterator, CacheKeyHash>
      cache_;
  /// Keys whose evaluation was aborted mid-batch; a later re-request of
  /// such a key counts as an evaluation retry. Guarded by cache_mutex_.
  std::unordered_set<CacheKey, CacheKeyHash> aborted_keys_;
  ServeStats stats_;

  /// Circuit-breaker state for the disk tier. Guarded by breaker_mutex_
  /// (never held while doing I/O, and never nested with cache_mutex_).
  mutable std::mutex breaker_mutex_;
  DiskHealth breaker_state_ = DiskHealth::kClosed;
  int breaker_failures_ = 0;  // Consecutive store/load I/O failures.
  std::chrono::steady_clock::time_point breaker_opened_at_{};
  std::uint64_t breaker_trips_ = 0;
  std::uint64_t breaker_probes_ = 0;
  std::uint64_t breaker_closes_ = 0;
  std::uint64_t breaker_short_circuits_ = 0;
};

}  // namespace serve
}  // namespace featsep

#endif  // FEATSEP_SERVE_EVAL_SERVICE_H_
