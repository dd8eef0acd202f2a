#include "serve/shard_protocol.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "cq/evaluation.h"
#include "io/cq_parser.h"
#include "io/reader.h"
#include "io/writer.h"
#include "serve/wire_format.h"
#include "util/hash.h"

namespace featsep {
namespace serve {

namespace {

namespace fs = std::filesystem;

constexpr std::string_view kJobMagic = "featsep-shard-job";
constexpr std::string_view kResultMagic = "featsep-shard-result";
constexpr int kShardFormatVersion = 1;

std::uint64_t ProcessId() {
#ifndef _WIN32
  return static_cast<std::uint64_t>(::getpid());
#else
  return 0;
#endif
}

fs::path TodoPath(const std::string& job_dir, std::size_t shard) {
  return fs::path(job_dir) / "todo" / ("s" + std::to_string(shard));
}
fs::path LeasePath(const std::string& job_dir, std::size_t shard) {
  return fs::path(job_dir) / "leases" / ("s" + std::to_string(shard));
}
fs::path ResultPath(const std::string& job_dir, std::size_t shard) {
  return fs::path(job_dir) / "results" / ("s" + std::to_string(shard) + ".fsr");
}
fs::path QuarantinePath(const std::string& job_dir, std::size_t shard) {
  return fs::path(job_dir) / "quarantine" / ("s" + std::to_string(shard));
}
fs::path DonePath(const std::string& job_dir) {
  return fs::path(job_dir) / "done";
}

/// Writes bytes to a unique temp file in <job>/tmp and renames onto
/// `final_path` — the same publish idiom as disk-cache entries — retrying
/// transient faults per `retry`. Each attempt uses a fresh tmp name, so a
/// failed attempt at worst orphans a tmp file, never tears the target.
bool AtomicWrite(FsEnv* env, const RetryPolicy& retry,
                 const std::string& job_dir, const fs::path& final_path,
                 std::string_view bytes, ShardIoStats* io) {
  static std::atomic<std::uint64_t> counter{0};
  RetryOutcome outcome = RetryCall(retry, nullptr, [&]() {
    fs::path tmp = fs::path(job_dir) / "tmp" /
                   (final_path.filename().string() + "." +
                    std::to_string(ProcessId()) + "." +
                    std::to_string(counter.fetch_add(1)) + ".tmp");
    return env->Publish(tmp.string(), final_path.string(), bytes) ==
           FsStatus::kOk;
  });
  if (io != nullptr) {
    io->io_retries += outcome.retries();
    if (!outcome.ok) ++io->io_give_ups;
  }
  return outcome.ok;
}

/// Reads a whole file with retries on transient faults. Returns kOk,
/// kNotFound (settled immediately, never retried), or kError (gave up).
FsStatus ReadBytes(FsEnv* env, const RetryPolicy& retry,
                   const std::string& path, std::string* out,
                   ShardIoStats* io) {
  FsStatus status = FsStatus::kError;
  RetryOutcome outcome = RetryCall(retry, nullptr, [&]() {
    status = env->ReadFile(path, out);
    return status != FsStatus::kError;
  });
  if (io != nullptr) {
    io->io_retries += outcome.retries();
    if (!outcome.ok) ++io->io_give_ups;
  }
  return outcome.ok ? status : FsStatus::kError;
}

/// Reads "<keyword> <len> <bytes>\n" at the cursor.
bool ReadKeywordSized(wire::Cursor& cursor, std::string_view keyword,
                      std::string_view* out) {
  if (cursor.bytes.substr(cursor.pos, keyword.size()) != keyword) return false;
  std::size_t after = cursor.pos + keyword.size();
  if (after >= cursor.bytes.size() || cursor.bytes[after] != ' ') return false;
  cursor.pos = after + 1;
  return cursor.ReadSized(out);
}

std::string SerializeJob(const Database& db,
                         const std::vector<std::string>& features,
                         std::size_t entity_block,
                         const std::string& cache_dir) {
  std::ostringstream out;
  out << kJobMagic << " " << kShardFormatVersion << "\n";
  out << "digest " << wire::DigestHex(db.ContentDigest()) << "\n";
  out << "entity_block " << entity_block << "\n";
  out << "cache_dir " << cache_dir.size() << " " << cache_dir << "\n";
  out << "features " << features.size() << "\n";
  for (const std::string& feature : features) {
    out << feature.size() << " " << feature << "\n";
  }
  std::string db_bytes = WriteDatabase(db);
  out << "db " << db_bytes.size() << " " << db_bytes << "\n";
  return wire::WithChecksum(out.str());
}

std::string SerializeShardResult(const ShardJob& job, std::size_t shard,
                                 std::string_view flags) {
  std::ostringstream out;
  out << kResultMagic << " " << kShardFormatVersion << "\n";
  out << "digest " << wire::DigestHex(job.digest) << "\n";
  out << "shard " << shard << "\n";
  out << "flags " << flags.size() << " " << flags << "\n";
  return wire::WithChecksum(out.str());
}

/// Parses and verifies one shard result; returns the flag bytes for the
/// shard's entity range, or an error for anything untrustworthy.
Result<std::string> ParseShardResult(const ShardJob& job, std::size_t shard,
                                     std::string_view bytes) {
  wire::Cursor cursor{bytes};
  std::string_view line;
  std::uint64_t version = 0;
  if (!cursor.ReadLine(&line) ||
      !wire::ParseKeyedU64(line, kResultMagic, &version)) {
    return Error("bad result magic");
  }
  if (version != static_cast<std::uint64_t>(kShardFormatVersion)) {
    return Error("result version mismatch");
  }
  std::uint64_t digest = 0;
  if (!cursor.ReadLine(&line) ||
      !wire::ParseKeyedU64(line, "digest", &digest, 16) ||
      digest != job.digest) {
    return Error("result digest mismatch");
  }
  std::uint64_t id = 0;
  if (!cursor.ReadLine(&line) || !wire::ParseKeyedU64(line, "shard", &id) ||
      id != shard) {
    return Error("result shard mismatch");
  }
  std::string_view flags;
  if (!ReadKeywordSized(cursor, "flags", &flags)) {
    return Error("truncated flags");
  }
  if (!wire::VerifyChecksum(cursor)) return Error("result checksum mismatch");
  const std::size_t block = job.entity_block;
  const std::size_t begin = (shard % job.blocks_per_feature()) * block;
  const std::size_t end = std::min(begin + block, job.entities.size());
  if (flags.size() != end - begin) return Error("result flag count mismatch");
  for (char c : flags) {
    if (c != '+' && c != '-') return Error("bad flag byte");
  }
  return std::string(flags);
}

/// A shard is resolved once it has a result or has been quarantined (the
/// coordinator answers quarantined shards in-memory, so no one should wait
/// on them).
bool AllShardsResolved(const std::string& job_dir, const ShardJob& job) {
  FsEnv* env = job.fs();
  for (std::size_t s = 0; s < job.num_shards(); ++s) {
    if (!env->Exists(ResultPath(job_dir, s).string()) &&
        !env->Exists(QuarantinePath(job_dir, s).string())) {
      return false;
    }
  }
  return true;
}

/// When all blocks of `feature` have results, merges them and writes the
/// feature's answer through the shared disk cache. Quietly does nothing on
/// missing/corrupt blocks — the coordinator is the authority; this path
/// only makes warm restarts survive a dead coordinator.
bool TryCacheCompletedFeature(const std::string& job_dir, const ShardJob& job,
                              std::size_t feature, ShardIoStats* io) {
  if (job.cache_dir.empty()) return false;
  FsEnv* env = job.fs();
  const std::size_t bpf = job.blocks_per_feature();
  std::vector<std::string> selected;
  for (std::size_t b = 0; b < bpf; ++b) {
    const std::size_t shard = feature * bpf + b;
    std::string bytes;
    if (ReadBytes(env, job.retry, ResultPath(job_dir, shard).string(),
                  &bytes, io) != FsStatus::kOk) {
      return false;
    }
    Result<std::string> flags = ParseShardResult(job, shard, bytes);
    if (!flags.ok()) return false;
    const std::size_t begin = b * job.entity_block;
    for (std::size_t i = 0; i < flags.value().size(); ++i) {
      if (flags.value()[i] == '+') {
        selected.push_back(job.db->value_name(job.entities[begin + i]));
      }
    }
  }
  DiskCacheOptions cache_options;
  cache_options.env = env;
  cache_options.retry = job.retry;
  cache_options.tmp_gc_on_open = false;  // The write-through is a hot path.
  DiskResultCache cache(job.cache_dir, cache_options);
  return cache.Store(job.digest, job.feature_strings[feature],
                     std::move(selected));
}

std::vector<std::size_t> ListShardIds(FsEnv* env, const fs::path& dir,
                                      ShardIoStats* io) {
  FsListResult listing = env->ListDir(dir.string());
  if (io != nullptr &&
      (listing.status != FsStatus::kOk || listing.scan_errors > 0)) {
    ++io->list_errors;
  }
  std::vector<std::size_t> ids;
  for (const FsDirEntry& entry : listing.entries) {
    const std::string& name = entry.name;
    if (name.size() < 2 || name[0] != 's') continue;
    std::string_view digits(name);
    digits.remove_prefix(1);
    // Strip a ".fsr" result suffix if present.
    std::size_t dot = digits.find('.');
    if (dot != std::string_view::npos) digits = digits.substr(0, dot);
    std::uint64_t id = 0;
    if (wire::ParseU64(digits, &id)) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Tries to claim each candidate shard in order. A faulted rename is never
/// a win: it counts io->claim_errors, feeds `on_claim_error` (the
/// coordinator's quarantine evidence), and the scan moves on.
std::optional<std::size_t> ClaimFromCandidates(
    const std::string& job_dir, const ShardJob& job,
    const std::vector<std::size_t>& candidates, ShardIoStats* io,
    const std::function<void(std::size_t)>& on_claim_error) {
  FsEnv* env = job.fs();
  for (std::size_t id : candidates) {
    if (id >= job.num_shards()) continue;
    const FsStatus status = env->Rename(TodoPath(job_dir, id).string(),
                                        LeasePath(job_dir, id).string());
    if (status == FsStatus::kOk) {
      return id;  // The rename is atomic: we are the sole owner.
    }
    if (status == FsStatus::kNotFound) {
      // The todo file is gone: someone else won the shard (or it is
      // resolved). A race, not a fault.
      if (io != nullptr) ++io->claim_races;
      continue;
    }
    if (io != nullptr) ++io->claim_errors;
    if (on_claim_error) on_claim_error(id);
  }
  return std::nullopt;
}

}  // namespace

Result<std::size_t> PublishShardJob(const std::string& job_dir,
                                    const Database& db,
                                    const std::vector<std::string>& features,
                                    std::size_t entity_block,
                                    const std::string& cache_dir,
                                    FsEnv* env) {
  if (env == nullptr) env = RealFs();
  entity_block = std::max<std::size_t>(1, entity_block);
  for (const char* sub : {"tmp", "todo", "leases", "results", "quarantine"}) {
    if (env->CreateDirs((fs::path(job_dir) / sub).string()) !=
        FsStatus::kOk) {
      return Error("cannot create " + (fs::path(job_dir) / sub).string());
    }
  }
  if (!AtomicWrite(env, RetryPolicy{}, job_dir, fs::path(job_dir) / "job.fsj",
                   SerializeJob(db, features, entity_block, cache_dir),
                   nullptr)) {
    return Error("cannot write job spec in " + job_dir);
  }
  const std::size_t blocks =
      (db.Entities().size() + entity_block - 1) / entity_block;
  const std::size_t shards = features.size() * blocks;
  for (std::size_t s = 0; s < shards; ++s) {
    // Existence is the whole content; claiming renames the file away.
    if (env->WriteFile(TodoPath(job_dir, s).string(), "") != FsStatus::kOk) {
      return Error("cannot write todo shard in " + job_dir);
    }
  }
  return shards;
}

Result<ShardJob> LoadShardJob(const std::string& job_dir, FsEnv* env) {
  if (env == nullptr) env = RealFs();
  std::string bytes;
  if (env->ReadFile((fs::path(job_dir) / "job.fsj").string(), &bytes) !=
      FsStatus::kOk) {
    return Error("no job spec in " + job_dir);
  }
  wire::Cursor cursor{bytes};
  std::string_view line;
  std::uint64_t version = 0;
  if (!cursor.ReadLine(&line) ||
      !wire::ParseKeyedU64(line, kJobMagic, &version)) {
    return Error("bad job magic");
  }
  if (version != static_cast<std::uint64_t>(kShardFormatVersion)) {
    return Error("job version mismatch: " + std::to_string(version));
  }
  ShardJob job;
  job.env = env;
  if (!cursor.ReadLine(&line) ||
      !wire::ParseKeyedU64(line, "digest", &job.digest, 16)) {
    return Error("bad job digest line");
  }
  std::uint64_t block = 0;
  if (!cursor.ReadLine(&line) ||
      !wire::ParseKeyedU64(line, "entity_block", &block) || block == 0) {
    return Error("bad entity_block line");
  }
  job.entity_block = static_cast<std::size_t>(block);
  std::string_view cache_dir;
  if (!ReadKeywordSized(cursor, "cache_dir", &cache_dir)) {
    return Error("bad cache_dir line");
  }
  job.cache_dir = std::string(cache_dir);
  std::uint64_t count = 0;
  if (!cursor.ReadLine(&line) ||
      !wire::ParseKeyedU64(line, "features", &count) ||
      count > bytes.size()) {
    return Error("bad features line");
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string_view feature;
    if (!cursor.ReadSized(&feature)) return Error("truncated feature");
    job.feature_strings.emplace_back(feature);
  }
  std::string_view db_bytes;
  if (!ReadKeywordSized(cursor, "db", &db_bytes)) {
    return Error("truncated database");
  }
  if (!wire::VerifyChecksum(cursor)) return Error("job checksum mismatch");

  Result<std::shared_ptr<Database>> db = ReadDatabase(db_bytes);
  if (!db.ok()) return Error("job database: " + db.error().message());
  job.owned_db = db.value();
  job.db = job.owned_db.get();
  // A worker whose digest computation disagrees with the coordinator's
  // must refuse the job outright — evaluating under the wrong key would
  // poison every shared cache.
  if (job.db->ContentDigest() != job.digest) {
    return Error(std::string(kDigestRefusalMessage));
  }
  for (const std::string& feature : job.feature_strings) {
    Result<ConjunctiveQuery> query = ParseCq(job.db->schema_ptr(), feature);
    if (!query.ok()) return Error("job feature: " + query.error().message());
    job.features.push_back(std::move(query.value()));
  }
  job.entities = job.db->Entities();
  return job;
}

bool ShardJobDone(const std::string& job_dir, FsEnv* env) {
  if (env == nullptr) env = RealFs();
  return env->Exists(DonePath(job_dir).string());
}

std::vector<std::size_t> QuarantinedShards(const std::string& job_dir,
                                           FsEnv* env) {
  if (env == nullptr) env = RealFs();
  return ListShardIds(env, fs::path(job_dir) / "quarantine", nullptr);
}

std::optional<std::size_t> ClaimShard(const std::string& job_dir,
                                      const ShardJob& job, ShardIoStats* io) {
  // Lowest id first: claim order is deterministic per scan, and the merged
  // answer is slot-keyed so racing processes cannot perturb results.
  return ClaimFromCandidates(
      job_dir, job, ListShardIds(job.fs(), fs::path(job_dir) / "todo", io),
      io, nullptr);
}

Result<bool> EvaluateClaimedShard(const std::string& job_dir,
                                  const ShardJob& job, std::size_t shard,
                                  ShardIoStats* io) {
  FsEnv* env = job.fs();
  const std::size_t bpf = job.blocks_per_feature();
  if (bpf == 0 || shard >= job.num_shards()) {
    return Error("shard id out of range");
  }
  const std::size_t feature = shard / bpf;
  const std::size_t begin = (shard % bpf) * job.entity_block;
  const std::size_t end =
      std::min(begin + job.entity_block, job.entities.size());

  CqEvaluator evaluator(job.features[feature]);
  CqEvaluator::Binding binding = evaluator.Bind(*job.db);
  std::string flags;
  flags.reserve(end - begin);
  const std::string lease = LeasePath(job_dir, shard).string();
  for (std::size_t e = begin; e < end; ++e) {
    flags.push_back(binding.SelectsEntity(job.entities[e]) ? '+' : '-');
    // Renew the lease so a long shard is not reclaimed under a live worker
    // (entity evaluations are the NP-hard unit of progress). A faulted
    // renewal is non-fatal — the next entity retries — but counted: enough
    // of them and the lease goes stale under a live worker.
    if (env->Touch(lease) == FsStatus::kError && io != nullptr) {
      ++io->lease_renew_failures;
    }
  }
  if (!AtomicWrite(env, job.retry, job_dir, ResultPath(job_dir, shard),
                   SerializeShardResult(job, shard, flags), io)) {
    return Error("cannot publish shard result");
  }
  env->Remove(lease);
  return TryCacheCompletedFeature(job_dir, job, feature, io);
}

std::size_t ReclaimExpiredLeases(const std::string& job_dir,
                                 const ShardJob& job,
                                 std::chrono::milliseconds lease,
                                 ShardIoStats* io,
                                 std::vector<std::size_t>* attempted) {
  FsEnv* env = job.fs();
  std::size_t reclaimed = 0;
  for (std::size_t id : ListShardIds(env, fs::path(job_dir) / "leases", io)) {
    if (id >= job.num_shards()) continue;
    if (env->Exists(ResultPath(job_dir, id).string())) {
      // Finished but the worker died before cleanup: drop the stale lease.
      env->Remove(LeasePath(job_dir, id).string());
      continue;
    }
    std::optional<fs::file_time_type> mtime =
        env->Mtime(LeasePath(job_dir, id).string());
    if (!mtime.has_value()) continue;  // Raced with the owner's cleanup.
    const auto age = fs::file_time_type::clock::now() - *mtime;
    if (age < lease) continue;
    FsStatus status = FsStatus::kError;
    RetryOutcome outcome = RetryCall(job.retry, nullptr, [&]() {
      status = env->Rename(LeasePath(job_dir, id).string(),
                           TodoPath(job_dir, id).string());
      return status != FsStatus::kError;
    });
    if (io != nullptr) io->io_retries += outcome.retries();
    if (!outcome.ok) {
      // The expired lease could not be requeued: surfaced, and the shard is
      // still lease-visible so the next pass retries — never silently lost.
      if (io != nullptr) ++io->requeue_failures;
      if (attempted != nullptr) attempted->push_back(id);
      continue;
    }
    if (status == FsStatus::kOk) {
      ++reclaimed;
      if (attempted != nullptr) attempted->push_back(id);
    }
    // kNotFound: the owner finished or cleaned up concurrently — no-op.
  }
  return reclaimed;
}

Result<ShardWorkerStats> WorkOnShardJob(const std::string& job_dir,
                                        const ShardJob& job,
                                        const ShardWorkerOptions& options) {
  ShardWorkerStats stats;
  FsEnv* env = job.fs();
  // Passes that claimed nothing while observing fresh I/O faults. A worker
  // on a dead disk must give up rather than spin: it cannot even see
  // whether the job still exists.
  std::size_t fruitless_faulted_passes = 0;
  constexpr std::size_t kMaxFruitlessFaultedPasses = 8;
  while (!ShardJobDone(job_dir, env)) {
    if (options.max_shards != 0 && stats.shards_completed >= options.max_shards)
      break;
    const std::uint64_t faults_before =
        stats.io.claim_errors + stats.io.list_errors;
    std::optional<std::size_t> shard = ClaimShard(job_dir, job, &stats.io);
    if (shard.has_value()) {
      fruitless_faulted_passes = 0;
      const std::size_t begin =
          (*shard % job.blocks_per_feature()) * job.entity_block;
      const std::size_t end =
          std::min(begin + job.entity_block, job.entities.size());
      Result<bool> done =
          EvaluateClaimedShard(job_dir, job, *shard, &stats.io);
      if (!done.ok()) {
        // The result could not be published after retries. Requeue our
        // lease so the shard is not stranded until lease expiry, then
        // surface the give-up.
        if (env->Rename(LeasePath(job_dir, *shard).string(),
                        TodoPath(job_dir, *shard).string()) ==
            FsStatus::kError) {
          ++stats.io.requeue_failures;
        }
        return done.error();
      }
      ++stats.shards_completed;
      stats.entities_evaluated += end - begin;
      if (done.value()) ++stats.features_cached;
      continue;
    }
    if (AllShardsResolved(job_dir, job)) break;
    if (stats.io.claim_errors + stats.io.list_errors > faults_before) {
      if (++fruitless_faulted_passes >= kMaxFruitlessFaultedPasses) {
        return Error(
            "shard worker giving up after persistent I/O faults");
      }
    } else {
      fruitless_faulted_passes = 0;
    }
    std::this_thread::sleep_for(options.poll);
  }
  return stats;
}

Result<ShardMergeResult> CoordinateShardJob(
    const std::string& job_dir, const ShardJob& job,
    const ShardCoordinatorOptions& options) {
  FsEnv* env = job.fs();
  ShardMergeResult merge;
  merge.flags.assign(job.features.size(),
                     std::vector<char>(job.entities.size(), 0));
  const std::size_t num_shards = job.num_shards();
  const std::size_t bpf = job.blocks_per_feature();

  // Per-shard failure evidence: faulted claims, expired leases, corrupt
  // results, failed publishes and requeues all count. At quarantine_after
  // the shard leaves the distributed protocol for good.
  std::vector<std::size_t> attempts(num_shards, 0);
  // merged[s]: the shard's slots in merge.flags are final (verified result
  // file or in-memory quarantine evaluation).
  std::vector<char> merged(num_shards, 0);

  auto evaluate_in_memory = [&](std::size_t s) {
    const std::size_t feature = s / bpf;
    const std::size_t begin = (s % bpf) * job.entity_block;
    const std::size_t end =
        std::min(begin + job.entity_block, job.entities.size());
    CqEvaluator evaluator(job.features[feature]);
    CqEvaluator::Binding binding = evaluator.Bind(*job.db);
    for (std::size_t e = begin; e < end; ++e) {
      merge.flags[feature][e] = binding.SelectsEntity(job.entities[e]) ? 1 : 0;
    }
  };

  auto quarantine = [&](std::size_t s, const char* reason) {
    // Pull the shard out of the protocol (nothing left to claim, a marker
    // explaining why) and answer it authoritatively in-memory — evaluation
    // is pure compute, so no filesystem fault can stop the job from
    // completing, and the merged answer stays bit-identical to serial.
    env->Remove(TodoPath(job_dir, s).string());
    env->Remove(LeasePath(job_dir, s).string());
    env->WriteFile(QuarantinePath(job_dir, s).string(),
                   std::string(reason) + "\n");  // Best effort.
    evaluate_in_memory(s);
    merged[s] = 1;
    ++merge.quarantined_shards;
  };

  auto note_failure = [&](std::size_t s, const char* reason) {
    if (s >= num_shards || merged[s]) return;
    ++attempts[s];
    if (options.quarantine_after != 0 &&
        attempts[s] >= options.quarantine_after) {
      quarantine(s, reason);
    }
  };

  while (true) {
    // Drive the job until every shard is resolved: claim locally when
    // allowed, reclaim leases of dead workers, and quarantine shards that
    // keep failing.
    while (true) {
      bool all_resolved = true;
      for (std::size_t s = 0; s < num_shards; ++s) {
        if (!merged[s] && !env->Exists(ResultPath(job_dir, s).string())) {
          all_resolved = false;
          break;
        }
      }
      if (all_resolved) break;
      bool progress = false;
      if (options.evaluate_locally) {
        // Candidates come from the todo listing; when the listing itself
        // faults, fall back to probing every unresolved shard directly so a
        // dead disk still produces per-shard failure evidence instead of an
        // infinite wait.
        std::vector<std::size_t> candidates =
            ListShardIds(env, fs::path(job_dir) / "todo", &merge.io);
        if (candidates.empty()) {
          for (std::size_t s = 0; s < num_shards; ++s) {
            if (!merged[s] && !env->Exists(ResultPath(job_dir, s).string()) &&
                !env->Exists(LeasePath(job_dir, s).string())) {
              candidates.push_back(s);
            }
          }
        }
        std::optional<std::size_t> shard = ClaimFromCandidates(
            job_dir, job, candidates, &merge.io,
            [&](std::size_t s) { note_failure(s, "claim faulted"); });
        if (shard.has_value() && !merged[*shard]) {
          Result<bool> done =
              EvaluateClaimedShard(job_dir, job, *shard, &merge.io);
          if (done.ok()) {
            ++merge.local_shards;
          } else {
            // Publish gave up: requeue the lease and record the failure.
            if (env->Rename(LeasePath(job_dir, *shard).string(),
                            TodoPath(job_dir, *shard).string()) ==
                FsStatus::kError) {
              ++merge.io.requeue_failures;
            }
            note_failure(*shard, "publish failed");
          }
          progress = true;
        }
      }
      if (!progress) {
        std::vector<std::size_t> attempted;
        merge.reclaimed_leases +=
            ReclaimExpiredLeases(job_dir, job, options.lease, &merge.io,
                                 &attempted);
        for (std::size_t s : attempted) note_failure(s, "lease expired");
        std::this_thread::sleep_for(options.poll);
      }
    }

    // Merge. Results are slot-keyed by shard id, so the merged flags are
    // bit-identical to the serial path no matter which process produced
    // which shard. A corrupt/unreadable result is deleted and its shard
    // re-queued — never trusted.
    std::vector<std::size_t> requeue;
    for (std::size_t s = 0; s < num_shards; ++s) {
      if (merged[s]) continue;
      std::string bytes;
      Result<std::string> flags = Error("unreadable result");
      if (ReadBytes(env, job.retry, ResultPath(job_dir, s).string(), &bytes,
                    &merge.io) == FsStatus::kOk) {
        flags = ParseShardResult(job, s, bytes);
      }
      if (!flags.ok()) {
        ++merge.corrupt_results;
        env->Remove(ResultPath(job_dir, s).string());
        note_failure(s, "corrupt result");  // May quarantine (merged[s]=1).
        if (!merged[s]) requeue.push_back(s);
        continue;
      }
      const std::size_t begin = (s % bpf) * job.entity_block;
      for (std::size_t i = 0; i < flags.value().size(); ++i) {
        merge.flags[s / bpf][begin + i] = flags.value()[i] == '+' ? 1 : 0;
      }
      merged[s] = 1;
    }
    if (requeue.empty()) break;
    for (std::size_t s : requeue) {
      env->Remove(LeasePath(job_dir, s).string());  // Unblock the rename.
      RetryOutcome requeued = RetryCall(job.retry, nullptr, [&]() {
        return env->WriteFile(TodoPath(job_dir, s).string(), "") ==
               FsStatus::kOk;
      });
      merge.io.io_retries += requeued.retries();
      if (!requeued.ok) {
        // Surfaced and retried via the next drive pass (claim probing keeps
        // accumulating evidence until the shard quarantines) — a corrupt
        // shard is never silently dropped.
        ++merge.io.requeue_failures;
        note_failure(s, "requeue failed");
      }
    }
  }
  const std::uint64_t accounted =
      merge.local_shards + merge.quarantined_shards;
  merge.remote_shards =
      accounted >= num_shards ? 0 : num_shards - accounted;

  if (!AtomicWrite(env, job.retry, job_dir, DonePath(job_dir), "done\n",
                   &merge.io)) {
    // Non-fatal: workers will still observe AllShardsResolved and stop.
  }
  return merge;
}

Result<ShardWorkerStats> RunShardWorkerDir(
    const std::string& work_dir, const ShardWorkerPoolOptions& options) {
  FsEnv* env = options.env != nullptr ? options.env : RealFs();
  ShardWorkerStats total;
  // Jobs refused for a digest disagreement, skipped for the rest of the
  // call: loading one again would re-parse and re-hash the same bytes only
  // to count the same refusal again.
  std::set<std::string> refused;
  auto last_activity = std::chrono::steady_clock::now();
  while (true) {
    bool worked = false;
    FsListResult listing = env->ListDir(work_dir);
    if (listing.status != FsStatus::kOk || listing.scan_errors > 0) {
      ++total.io.list_errors;
    }
    std::vector<std::string> jobs;
    for (const FsDirEntry& entry : listing.entries) {
      if (!entry.is_dir) continue;
      const fs::path dir = fs::path(work_dir) / entry.name;
      if (env->Exists((dir / "job.fsj").string())) {
        jobs.push_back(dir.string());
      }
    }
    std::sort(jobs.begin(), jobs.end());
    for (const std::string& dir : jobs) {
      if (refused.count(dir) != 0 || ShardJobDone(dir, env)) continue;
      Result<ShardJob> job = LoadShardJob(dir, env);
      if (!job.ok()) {
        // A digest refusal is poison — evaluating would poison shared
        // caches — and distinct from a partially published or
        // foreign-version job, which simply is not ready yet.
        if (job.error().message() == kDigestRefusalMessage) {
          refused.insert(dir);
          ++total.digest_refusals;
        }
        continue;
      }
      job.value().retry = options.retry;
      Result<ShardWorkerStats> stats =
          WorkOnShardJob(dir, job.value(), options.worker);
      if (!stats.ok()) return stats.error();
      total.shards_completed += stats.value().shards_completed;
      total.entities_evaluated += stats.value().entities_evaluated;
      total.features_cached += stats.value().features_cached;
      total.io.Add(stats.value().io);
      if (stats.value().shards_completed > 0) worked = true;
    }
    auto now = std::chrono::steady_clock::now();
    if (worked) last_activity = now;
    if (options.idle_exit.count() == 0) break;  // Single pass.
    if (!worked && now - last_activity >= options.idle_exit) break;
    if (!worked) std::this_thread::sleep_for(options.poll);
  }
  return total;
}

}  // namespace serve
}  // namespace featsep
