#ifndef FEATSEP_SERVE_SHARD_PROTOCOL_H_
#define FEATSEP_SERVE_SHARD_PROTOCOL_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cq/cq.h"
#include "relational/database.h"
#include "serve/disk_cache.h"
#include "util/fs_env.h"
#include "util/result.h"
#include "util/retry.h"

namespace featsep {
namespace serve {

/// File-based shard protocol for (feature × entity-block) evaluation
/// sweeps (DESIGN.md §13): a coordinator and any number of worker threads
/// (RunShardWorkerDir) cooperate through one shared directory. One *job*
/// lives in one directory:
///
///   <job>/job.fsj       — checksummed job spec: database bytes, feature
///                         canonical strings, content digest, block size,
///                         optional shared disk-cache directory
///   <job>/todo/s<id>    — one (empty) file per unclaimed shard
///   <job>/leases/s<id>  — a claimed shard; mtime = claim/renewal time
///   <job>/results/s<id>.fsr — checksummed per-shard result flags
///   <job>/quarantine/s<id>  — a shard pulled out of the protocol after
///                         repeated failures (coordinator evaluates it
///                         in-memory; the marker records why)
///   <job>/done          — coordinator marker: job merged, workers move on
///
/// Claiming is a rename todo/s<id> → leases/s<id>: atomic on POSIX, so
/// exactly one process wins a shard. A worker renews its lease mtime while
/// evaluating; the coordinator reclaims leases older than the lease window
/// (rename back to todo) so shards claimed by dead workers are re-run.
/// Results are published by atomic rename like disk-cache entries, and the
/// kernel is deterministic, so a reclaimed-but-alive worker double-writing
/// a shard produces bit-identical bytes — last rename wins harmlessly.
///
/// Shard ids are `feature_index * blocks_per_feature + block_index`; every
/// result carries disjoint, deterministic slots, so the merged answer is
/// bit-identical to the serial path regardless of worker count, claim
/// order, or timing.
///
/// All filesystem access goes through an injectable FsEnv (DESIGN.md §15).
/// A failed claim rename is never treated as won: a missing source is a
/// lost race (counted), any other failure is a fault (counted separately,
/// and evidence toward quarantine). Requeue failures are retried and
/// surfaced, never dropped.

/// I/O-boundary counters shared by workers and the coordinator.
struct ShardIoStats {
  /// Claim renames lost because the todo file was gone — another process
  /// won the shard (or it is already resolved). Normal under contention.
  std::uint64_t claim_races = 0;
  /// Claim renames that *faulted*. The claim is not won; the shard stays
  /// claimable and the fault counts toward quarantine evidence.
  std::uint64_t claim_errors = 0;
  /// lease→todo requeues (reclaim, corrupt-result recovery) that faulted
  /// after retries.
  std::uint64_t requeue_failures = 0;
  /// Lease mtime renewals that faulted (non-fatal: the next entity retries,
  /// but a long run of these gets the lease reclaimed under a live worker).
  std::uint64_t lease_renew_failures = 0;
  /// Extra attempts beyond the first on reads/publishes, per RetryPolicy.
  std::uint64_t io_retries = 0;
  /// Reads/publishes that exhausted their retries.
  std::uint64_t io_give_ups = 0;
  /// Directory scans that failed or were detectably partial.
  std::uint64_t list_errors = 0;

  void Add(const ShardIoStats& other) {
    claim_races += other.claim_races;
    claim_errors += other.claim_errors;
    requeue_failures += other.requeue_failures;
    lease_renew_failures += other.lease_renew_failures;
    io_retries += other.io_retries;
    io_give_ups += other.io_give_ups;
    list_errors += other.list_errors;
  }
};

/// A parsed (or in-memory) job.
struct ShardJob {
  /// Storage for a database parsed from job.fsj; null when the coordinator
  /// built the job around a live database it does not own.
  std::shared_ptr<Database> owned_db;
  const Database* db = nullptr;
  std::vector<ConjunctiveQuery> features;
  std::vector<std::string> feature_strings;
  std::uint64_t digest = 0;
  std::size_t entity_block = 64;
  /// Shared DiskResultCache directory; empty = no write-through.
  std::string cache_dir;
  /// db->Entities(), cached at load/publish time; the evaluation order
  /// every process agrees on.
  std::vector<Value> entities;
  /// Runtime-only (never serialized): the filesystem backend every protocol
  /// operation on this job uses, and the retry policy for transient faults.
  /// Null env = the real filesystem.
  FsEnv* env = nullptr;
  RetryPolicy retry;

  FsEnv* fs() const { return env != nullptr ? env : RealFs(); }

  std::size_t blocks_per_feature() const {
    return (entities.size() + entity_block - 1) / entity_block;
  }
  std::size_t num_shards() const {
    return features.size() * blocks_per_feature();
  }
};

/// The error message LoadShardJob uses when a job's spelled digest
/// disagrees with its database bytes. RunShardWorkerDir keys its digest
/// refusal off this: the one load failure that is poison rather than a
/// job not yet fully published.
inline constexpr std::string_view kDigestRefusalMessage =
    "job digest disagrees with database content";

/// Serializes and publishes a job into `job_dir` (created if absent):
/// writes job.fsj atomically plus one todo file per shard. Returns the
/// shard count. `env` = nullptr uses the real filesystem.
Result<std::size_t> PublishShardJob(const std::string& job_dir,
                                    const Database& db,
                                    const std::vector<std::string>& features,
                                    std::size_t entity_block,
                                    const std::string& cache_dir,
                                    FsEnv* env = nullptr);

/// Loads and verifies job.fsj (checksum, parseable database and features,
/// database content digest matching the spelled digest — a worker whose
/// digest computation disagrees must refuse rather than poison caches;
/// that error's message is kDigestRefusalMessage). The loaded job carries
/// `env` for all subsequent protocol operations.
Result<ShardJob> LoadShardJob(const std::string& job_dir,
                              FsEnv* env = nullptr);

/// True once the coordinator has merged the job and marked it done.
bool ShardJobDone(const std::string& job_dir, FsEnv* env = nullptr);

/// Shard ids currently quarantined in `job_dir` (sorted).
std::vector<std::size_t> QuarantinedShards(const std::string& job_dir,
                                           FsEnv* env = nullptr);

/// Claims the lowest-id unclaimed shard (rename into leases/); nullopt when
/// no shard could be claimed right now. A faulted rename is never treated
/// as a win — it counts io->claim_errors and the scan moves on (a lost
/// race counts io->claim_races). `io` may be null.
std::optional<std::size_t> ClaimShard(const std::string& job_dir,
                                      const ShardJob& job,
                                      ShardIoStats* io = nullptr);

/// Evaluates one claimed shard and publishes its result file, renewing the
/// lease mtime after each entity. Removes the lease on success. When the
/// job names a cache_dir and this shard completes its feature (all blocks'
/// results present), also merges the feature's answer and writes it through
/// the shared disk cache — so warm restarts hit even if the coordinator
/// died before merging. Returns whether that write-through happened; an
/// error means the result could not be published after retries (the caller
/// should requeue the lease).
Result<bool> EvaluateClaimedShard(const std::string& job_dir,
                                  const ShardJob& job, std::size_t shard,
                                  ShardIoStats* io = nullptr);

/// Renames leases older than `lease` (with no result) back into todo/;
/// returns how many shards were reclaimed. Requeue faults are retried per
/// job.retry and then surfaced via io->requeue_failures — a shard must
/// never silently vanish from the protocol. `attempted` (optional)
/// receives the ids of shards whose lease expired (reclaimed or not):
/// each is one piece of that-shard-failed-once evidence for the
/// coordinator's quarantine accounting.
std::size_t ReclaimExpiredLeases(const std::string& job_dir,
                                 const ShardJob& job,
                                 std::chrono::milliseconds lease,
                                 ShardIoStats* io = nullptr,
                                 std::vector<std::size_t>* attempted = nullptr);

struct ShardWorkerOptions {
  std::chrono::milliseconds poll{25};
  /// Stop after this many shards (0 = unlimited).
  std::size_t max_shards = 0;
};

struct ShardWorkerStats {
  std::uint64_t shards_completed = 0;
  std::uint64_t entities_evaluated = 0;
  std::uint64_t features_cached = 0;  ///< Features written through the cache.
  /// Jobs refused because their digest disagreed with their database bytes
  /// (RunShardWorkerDir; poison — each counted once, never retried).
  std::uint64_t digest_refusals = 0;
  ShardIoStats io;
};

/// Worker loop over one job: claim → evaluate → publish until every shard
/// is resolved (result or quarantine, or the done marker appears, or
/// max_shards is reached).
Result<ShardWorkerStats> WorkOnShardJob(const std::string& job_dir,
                                        const ShardJob& job,
                                        const ShardWorkerOptions& options = {});

struct ShardCoordinatorOptions {
  /// Leases older than this are reclaimed (dead or stuck workers).
  std::chrono::milliseconds lease{10000};
  std::chrono::milliseconds poll{10};
  /// The coordinator claims and evaluates shards itself while waiting, so
  /// a job always finishes even with zero workers attached.
  bool evaluate_locally = true;
  /// After this many failure observations for one shard (faulted claims,
  /// expired leases, corrupt results, failed publishes) the shard is
  /// quarantined: pulled out of the distributed protocol, marked under
  /// <job>/quarantine/, and evaluated in-memory by the coordinator — the
  /// job still completes bit-identical, and the poison shard stops being
  /// requeued forever. 0 disables quarantine.
  std::size_t quarantine_after = 3;
};

struct ShardMergeResult {
  /// flags[feature][entity] ∈ {0,1} in job.entities order — the same shape
  /// the in-process evaluation produces.
  std::vector<std::vector<char>> flags;
  std::uint64_t local_shards = 0;
  std::uint64_t remote_shards = 0;
  std::uint64_t reclaimed_leases = 0;
  /// Shards quarantined and evaluated in-memory by the coordinator.
  std::uint64_t quarantined_shards = 0;
  /// Corrupt/unreadable result files deleted and re-queued during merges.
  std::uint64_t corrupt_results = 0;
  ShardIoStats io;
};

/// Coordinator: drives the job to completion (evaluating locally when
/// enabled, reclaiming expired leases), verifies and merges every shard
/// result, writes the done marker. A corrupt result file is deleted and its
/// shard re-queued, never trusted; a shard that keeps failing is quarantined
/// and evaluated in-memory, so the merge always completes and is always
/// bit-identical to the serial path.
Result<ShardMergeResult> CoordinateShardJob(
    const std::string& job_dir, const ShardJob& job,
    const ShardCoordinatorOptions& options = {});

/// Scans `work_dir` for job subdirectories (any directory containing
/// job.fsj) that are not done, and works on each; run it on worker threads
/// beside a coordinator. Exits once `idle_exit` elapses with nothing to do
/// (0 = one pass only). A digest-refusing job is counted once in
/// stats.digest_refusals and skipped for the rest of the call.
struct ShardWorkerPoolOptions {
  ShardWorkerOptions worker;
  std::chrono::milliseconds idle_exit{0};
  std::chrono::milliseconds poll{50};
  /// Filesystem backend for every job worked on (null = real).
  FsEnv* env = nullptr;
  RetryPolicy retry;
};
Result<ShardWorkerStats> RunShardWorkerDir(
    const std::string& work_dir, const ShardWorkerPoolOptions& options = {});

}  // namespace serve
}  // namespace featsep

#endif  // FEATSEP_SERVE_SHARD_PROTOCOL_H_
