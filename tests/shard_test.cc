#include "serve/shard_protocol.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "core/statistic.h"
#include "cq/evaluation.h"
#include "serve/disk_cache.h"
#include "serve/eval_service.h"
#include "serve/wire_format.h"
#include "test_util.h"
#include "util/fs_env.h"

namespace featsep {
namespace {

namespace fs = std::filesystem;

using ::featsep::testing::ExpiredBudget;
using ::featsep::testing::MakeWorld;
using ::featsep::testing::OutInFeatures;
using serve::ClaimShard;
using serve::CoordinateShardJob;
using serve::DiskLoadResult;
using serve::DiskResultCache;
using serve::EvalService;
using serve::EvaluateClaimedShard;
using serve::LoadShardJob;
using serve::PublishShardJob;
using serve::ReclaimExpiredLeases;
using serve::ServeOptions;
using serve::ShardCoordinatorOptions;
using serve::ServeStats;
using serve::ShardJob;
using serve::ShardJobDone;
using serve::ShardMergeResult;
using serve::ShardIoStats;
using serve::RunShardWorkerDir;
using serve::ShardWorkerOptions;
using serve::ShardWorkerPoolOptions;
using serve::ShardWorkerStats;
using serve::WorkOnShardJob;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    std::uint64_t pid = 0;
#ifndef _WIN32
    pid = static_cast<std::uint64_t>(::getpid());
#endif
    path_ = fs::temp_directory_path() / (tag + "-" + std::to_string(pid));
    std::error_code ec;
    fs::remove_all(path_, ec);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

std::vector<std::string> FeatureStrings() {
  std::vector<std::string> strings;
  for (const ConjunctiveQuery& feature : OutInFeatures()) {
    strings.push_back(feature.ToString());
  }
  return strings;
}

/// The in-memory job a coordinator builds around a live database.
ShardJob LocalJob(const Database& db, std::size_t entity_block,
                  const std::string& cache_dir) {
  ShardJob job;
  job.db = &db;
  job.features = OutInFeatures();
  job.feature_strings = FeatureStrings();
  job.digest = db.ContentDigest();
  job.entity_block = entity_block;
  job.cache_dir = cache_dir;
  job.entities = db.Entities();
  return job;
}

/// flags[feature][entity] from plain serial evaluation — the reference
/// every merge must equal bit-for-bit.
std::vector<std::vector<char>> SerialFlags(const Database& db) {
  std::vector<std::vector<char>> flags;
  for (const ConjunctiveQuery& feature : OutInFeatures()) {
    CqEvaluator evaluator(feature);
    std::vector<char> row;
    for (Value e : db.Entities()) {
      row.push_back(evaluator.SelectsEntity(db, e) ? 1 : 0);
    }
    flags.push_back(std::move(row));
  }
  return flags;
}

/// Rewrites the job spec in `job_dir` so its checksum is valid but its
/// spelled digest no longer matches the database content.
void ForgeJobDigest(const fs::path& job_dir, const Database& db) {
  const fs::path spec = job_dir / "job.fsj";
  std::string bytes;
  {
    std::ifstream in(spec, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Replace the digest line's hex with a different value and re-checksum.
  const std::string good = serve::wire::DigestHex(db.ContentDigest());
  const std::string bad = serve::wire::DigestHex(db.ContentDigest() ^ 1);
  const std::size_t at = bytes.find(good);
  ASSERT_NE(at, std::string::npos);
  bytes.replace(at, good.size(), bad);
  const std::size_t checksum_at = bytes.rfind("checksum ");
  ASSERT_NE(checksum_at, std::string::npos);
  bytes = serve::wire::WithChecksum(bytes.substr(0, checksum_at));
  std::ofstream out(spec, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// Number of entries in `dir` (0 when it does not exist).
std::size_t CountEntries(const fs::path& dir) {
  std::error_code ec;
  std::size_t count = 0;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    ++count;
  }
  return count;
}

TEST(ShardProtocolTest, PublishLoadRoundTrip) {
  TempDir dir("featsep-shard-roundtrip");
  Database db = MakeWorld();
  Result<std::size_t> shards =
      PublishShardJob(dir.str(), db, FeatureStrings(), 2, "/some/cache");
  ASSERT_TRUE(shards.ok()) << shards.error().message();
  // 3 entities, block 2 → 2 blocks per feature, 2 features.
  EXPECT_EQ(shards.value(), 4u);

  Result<ShardJob> loaded = LoadShardJob(dir.str());
  ASSERT_TRUE(loaded.ok()) << loaded.error().message();
  const ShardJob& job = loaded.value();
  EXPECT_EQ(job.digest, db.ContentDigest());
  EXPECT_EQ(job.feature_strings, FeatureStrings());
  EXPECT_EQ(job.features.size(), 2u);
  EXPECT_EQ(job.entity_block, 2u);
  EXPECT_EQ(job.cache_dir, "/some/cache");
  EXPECT_EQ(job.entities.size(), db.Entities().size());
  EXPECT_EQ(job.num_shards(), 4u);
  // The worker's round-tripped database answers like the original.
  EXPECT_EQ(SerialFlags(*job.db), SerialFlags(db));
}

TEST(ShardProtocolTest, TamperedJobSpecIsRefused) {
  TempDir dir("featsep-shard-tamper");
  Database db = MakeWorld();
  ASSERT_TRUE(PublishShardJob(dir.str(), db, FeatureStrings(), 2, "").ok());
  const fs::path spec = dir.path() / "job.fsj";
  std::string bytes;
  {
    std::ifstream in(spec, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  bytes[bytes.size() / 2] ^= 0x01;
  {
    std::ofstream out(spec, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  EXPECT_FALSE(LoadShardJob(dir.str()).ok());
}

TEST(ShardProtocolTest, DigestContentDisagreementIsRefused) {
  // A job whose checksum is VALID but whose spelled digest does not match
  // the database content must be refused: evaluating under the wrong key
  // would poison every shared cache. (Simulates a coordinator whose digest
  // computation disagrees — the bug class this PR fixes.)
  TempDir dir("featsep-shard-digest");
  Database db = MakeWorld();
  ASSERT_TRUE(PublishShardJob(dir.str(), db, FeatureStrings(), 2, "").ok());
  ForgeJobDigest(dir.path(), db);
  Result<ShardJob> loaded = LoadShardJob(dir.str());
  ASSERT_FALSE(loaded.ok());
  // The exact message is a contract: RunShardWorkerDir tells poison from a
  // job that is not yet fully published by a byte-equal comparison with it.
  EXPECT_EQ(loaded.error().message(),
            std::string(serve::kDigestRefusalMessage));
}

TEST(ShardProtocolTest, WorkerDirRefusesAPoisonJobOnce) {
  // One worker pass over a directory holding a forged-digest job and a good
  // one. The poison job is refused once for the whole call, however many
  // idle passes follow, and never touched; the good job is drained.
  TempDir work("featsep-shard-poison");
  Database db = MakeWorld();
  const fs::path bad = work.path() / "a-bad";
  const fs::path good = work.path() / "b-good";
  Result<std::size_t> bad_shards =
      PublishShardJob(bad.string(), db, FeatureStrings(), 1, "");
  Result<std::size_t> good_shards =
      PublishShardJob(good.string(), db, FeatureStrings(), 1, "");
  ASSERT_TRUE(bad_shards.ok() && good_shards.ok());
  ForgeJobDigest(bad, db);

  ShardWorkerPoolOptions pool;
  pool.idle_exit = std::chrono::milliseconds(200);
  pool.poll = std::chrono::milliseconds(10);
  Result<ShardWorkerStats> stats = RunShardWorkerDir(work.str(), pool);
  ASSERT_TRUE(stats.ok()) << stats.error().message();
  EXPECT_EQ(stats.value().digest_refusals, 1u);
  EXPECT_EQ(CountEntries(bad / "results"), 0u);
  EXPECT_EQ(CountEntries(bad / "todo"), bad_shards.value());
  EXPECT_EQ(stats.value().shards_completed, good_shards.value());
  for (std::size_t s = 0; s < good_shards.value(); ++s) {
    EXPECT_TRUE(
        fs::exists(good / "results" / ("s" + std::to_string(s) + ".fsr")))
        << "shard " << s;
  }
}

TEST(ShardProtocolTest, CoordinatorAloneCompletesAndMatchesSerial) {
  TempDir dir("featsep-shard-solo");
  Database db = MakeWorld();
  ASSERT_TRUE(PublishShardJob(dir.str(), db, FeatureStrings(), 1, "").ok());
  ShardJob job = LocalJob(db, 1, "");

  Result<ShardMergeResult> merged = CoordinateShardJob(dir.str(), job);
  ASSERT_TRUE(merged.ok()) << merged.error().message();
  EXPECT_EQ(merged.value().flags, SerialFlags(db));
  EXPECT_EQ(merged.value().local_shards, job.num_shards());
  EXPECT_EQ(merged.value().remote_shards, 0u);
  // On a healthy filesystem nothing is ever quarantined or dropped.
  EXPECT_EQ(merged.value().quarantined_shards, 0u);
  EXPECT_EQ(merged.value().corrupt_results, 0u);
  EXPECT_TRUE(ShardJobDone(dir.str()));
}

TEST(ShardProtocolTest, WorkerCompletesJobAndCoordinatorOnlyMerges) {
  TempDir dir("featsep-shard-worker");
  Database db = MakeWorld();
  ASSERT_TRUE(PublishShardJob(dir.str(), db, FeatureStrings(), 1, "").ok());

  // The "remote process": loads the job from disk (own database instance,
  // own value ids) and completes every shard.
  Result<ShardJob> loaded = LoadShardJob(dir.str());
  ASSERT_TRUE(loaded.ok()) << loaded.error().message();
  std::thread worker([&] {
    Result<ShardWorkerStats> stats = WorkOnShardJob(dir.str(), loaded.value());
    ASSERT_TRUE(stats.ok()) << stats.error().message();
    EXPECT_EQ(stats.value().shards_completed, loaded.value().num_shards());
  });

  ShardJob job = LocalJob(db, 1, "");
  ShardCoordinatorOptions options;
  options.evaluate_locally = false;  // Merge-only coordinator.
  Result<ShardMergeResult> merged = CoordinateShardJob(dir.str(), job, options);
  worker.join();
  ASSERT_TRUE(merged.ok()) << merged.error().message();
  EXPECT_EQ(merged.value().flags, SerialFlags(db));
  EXPECT_EQ(merged.value().local_shards, 0u);
  EXPECT_EQ(merged.value().remote_shards, job.num_shards());
}

TEST(ShardProtocolTest, WorkerDirThreadsDrainAJobBitIdentical) {
  // Two RunShardWorkerDir threads attached to the work directory drain a
  // published job for a merge-only coordinator, and write every completed
  // feature through the job's disk cache.
  TempDir work("featsep-shard-dir-work");
  TempDir cache("featsep-shard-dir-cache");
  Database db = MakeWorld();
  const std::string job_dir = (work.path() / "job").string();
  ASSERT_TRUE(
      PublishShardJob(job_dir, db, FeatureStrings(), 1, cache.str()).ok());

  std::vector<Result<ShardWorkerStats>> worker_stats(
      2, Result<ShardWorkerStats>(ShardWorkerStats{}));
  std::vector<std::thread> workers;
  for (Result<ShardWorkerStats>& slot : worker_stats) {
    workers.emplace_back([&work, &slot] {
      ShardWorkerPoolOptions pool;
      pool.idle_exit = std::chrono::milliseconds(200);
      pool.poll = std::chrono::milliseconds(2);
      pool.worker.poll = std::chrono::milliseconds(2);
      slot = RunShardWorkerDir(work.str(), pool);
    });
  }
  ShardJob job = LocalJob(db, 1, cache.str());
  ShardCoordinatorOptions options;
  options.evaluate_locally = false;
  options.poll = std::chrono::milliseconds(1);
  Result<ShardMergeResult> merged = CoordinateShardJob(job_dir, job, options);
  for (std::thread& worker : workers) worker.join();

  ASSERT_TRUE(merged.ok()) << merged.error().message();
  const std::vector<std::vector<char>> serial = SerialFlags(db);
  EXPECT_EQ(merged.value().flags, serial);
  EXPECT_EQ(merged.value().remote_shards, job.num_shards());
  std::uint64_t completed = 0;
  for (const Result<ShardWorkerStats>& stats : worker_stats) {
    ASSERT_TRUE(stats.ok()) << stats.error().message();
    completed += stats.value().shards_completed;
  }
  EXPECT_EQ(completed, job.num_shards());

  DiskResultCache disk(cache.str());
  const std::vector<Value> entities = db.Entities();
  for (std::size_t f = 0; f < job.features.size(); ++f) {
    std::vector<std::string> selected;
    for (std::size_t e = 0; e < entities.size(); ++e) {
      if (serial[f][e]) selected.push_back(db.value_name(entities[e]));
    }
    DiskLoadResult cached = disk.LoadEntry(job.digest, job.feature_strings[f]);
    ASSERT_TRUE(cached.hit()) << "feature " << f << " not cached";
    EXPECT_EQ(cached.selected, selected) << "feature " << f;
  }
}

TEST(ShardProtocolTest, ExpiredLeaseIsReclaimed) {
  TempDir dir("featsep-shard-lease");
  Database db = MakeWorld();
  ASSERT_TRUE(PublishShardJob(dir.str(), db, FeatureStrings(), 1, "").ok());
  ShardJob job = LocalJob(db, 1, "");

  // A worker claims shard 0 and dies (no result, no lease renewal).
  std::optional<std::size_t> claimed = ClaimShard(dir.str(), job);
  ASSERT_TRUE(claimed.has_value());
  EXPECT_EQ(*claimed, 0u);
  EXPECT_FALSE(fs::exists(dir.path() / "todo" / "s0"));
  ASSERT_TRUE(fs::exists(dir.path() / "leases" / "s0"));
  // Backdate the lease beyond any window.
  fs::last_write_time(dir.path() / "leases" / "s0",
                      fs::file_time_type::clock::now() -
                          std::chrono::hours(1));

  // A fresh lease is NOT reclaimed...
  std::optional<std::size_t> second = ClaimShard(dir.str(), job);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(ReclaimExpiredLeases(dir.str(), job,
                                 std::chrono::milliseconds(60000)),
            1u);
  // ...the expired one is, and becomes claimable again.
  EXPECT_TRUE(fs::exists(dir.path() / "todo" / "s0"));
  EXPECT_TRUE(fs::exists(dir.path() / "leases" /
                         ("s" + std::to_string(*second))));

  // The whole job still completes and matches serial.
  Result<ShardMergeResult> merged = CoordinateShardJob(dir.str(), job);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().flags, SerialFlags(db));
}

TEST(ShardProtocolTest, FinishedShardsStaleLeaseIsDroppedNotRequeued) {
  TempDir dir("featsep-shard-stale");
  Database db = MakeWorld();
  ASSERT_TRUE(PublishShardJob(dir.str(), db, FeatureStrings(), 1, "").ok());
  ShardJob job = LocalJob(db, 1, "");
  std::optional<std::size_t> claimed = ClaimShard(dir.str(), job);
  ASSERT_TRUE(claimed.has_value());
  ASSERT_TRUE(EvaluateClaimedShard(dir.str(), job, *claimed).ok());
  // The worker died after publishing its result but a stale lease file
  // reappears (e.g. it was mid-renewal): reclaim must drop it, not re-run
  // the finished shard.
  { std::ofstream lease(dir.path() / "leases" / "s0"); }
  EXPECT_EQ(ReclaimExpiredLeases(dir.str(), job, std::chrono::milliseconds(0)),
            0u);
  EXPECT_FALSE(fs::exists(dir.path() / "leases" / "s0"));
  EXPECT_FALSE(fs::exists(dir.path() / "todo" / "s0"));
}

TEST(ShardProtocolTest, CorruptResultIsRequeuedAndRerun) {
  TempDir dir("featsep-shard-corrupt");
  Database db = MakeWorld();
  ASSERT_TRUE(PublishShardJob(dir.str(), db, FeatureStrings(), 1, "").ok());
  ShardJob job = LocalJob(db, 1, "");

  // A malicious/diseased worker published garbage for shard 0 and "claimed"
  // it done. The coordinator must never trust it: the result is dropped,
  // the shard re-run, and the merge still bit-identical to serial.
  { std::ofstream todo(dir.path() / "todo" / "s0"); }
  fs::remove(dir.path() / "todo" / "s0");
  {
    std::ofstream result(dir.path() / "results" / "s0.fsr",
                         std::ios::binary | std::ios::trunc);
    result << "featsep-shard-result 1\nutter nonsense\n";
  }
  Result<ShardMergeResult> merged = CoordinateShardJob(dir.str(), job);
  ASSERT_TRUE(merged.ok()) << merged.error().message();
  EXPECT_EQ(merged.value().flags, SerialFlags(db));
}

TEST(ShardProtocolTest, WorkersWriteCompletedFeaturesThroughDiskCache) {
  TempDir work("featsep-shard-wt-work");
  TempDir cache("featsep-shard-wt-cache");
  Database db = MakeWorld();
  // One block per feature (block ≥ entity count): every completed shard
  // completes its feature, so the write-through happens even if the
  // coordinator never merges.
  ASSERT_TRUE(
      PublishShardJob(work.str(), db, FeatureStrings(), 64, cache.str()).ok());
  Result<ShardJob> loaded = LoadShardJob(work.str());
  ASSERT_TRUE(loaded.ok());
  Result<ShardWorkerStats> stats = WorkOnShardJob(work.str(), loaded.value());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().features_cached, 2u);

  // A restarted EvalService over the same cache dir serves from disk with
  // zero kernel work — the coordinator died, the work still counts.
  ServeOptions options;
  options.cache_dir = cache.str();
  EvalService service(options);
  Statistic statistic(OutInFeatures());
  EXPECT_EQ(service.Matrix(statistic.features(), db), statistic.Matrix(db));
  EXPECT_EQ(service.stats().features_evaluated, 0u);
  EXPECT_EQ(service.stats().disk_hits, 2u);
}

// ---------------------------------------------------------------------------
// EvalService shard mode (ServeOptions::shard_dir).

TEST(EvalServiceShardTest, ShardModeMatchesSerialBitForBit) {
  TempDir work("featsep-svcshard-work");
  TempDir cache("featsep-svcshard-cache");
  Database db = MakeWorld();
  Statistic statistic(OutInFeatures());
  const std::vector<FeatureVector> serial = statistic.Matrix(db);

  ServeOptions options;
  options.shard_dir = work.str();
  options.cache_dir = cache.str();
  options.entity_block = 1;
  EvalService service(options);
  EXPECT_EQ(service.Matrix(statistic.features(), db), serial);
  ServeStats stats = service.stats();
  EXPECT_EQ(stats.shard_jobs, 1u);
  EXPECT_EQ(stats.local_shards + stats.remote_shards,
            statistic.features().size() * db.Entities().size());
  // The job directory is scratch, cleaned up after the merge.
  EXPECT_EQ(CountEntries(work.path()), 0u);

  // Warm call: answered from the LRU, no second job.
  EXPECT_EQ(service.Matrix(statistic.features(), db), serial);
  EXPECT_EQ(service.stats().shard_jobs, 1u);
}

TEST(EvalServiceShardTest, BudgetedRequestsStayInProcess) {
  TempDir work("featsep-svcshard-budget");
  ServeOptions options;
  options.shard_dir = work.str();
  EvalService service(options);
  Database db = MakeWorld();
  ExecutionBudget budget = ExpiredBudget();
  auto answers = service.TryResolve(OutInFeatures(), db, &budget);
  for (const auto& answer : answers) EXPECT_EQ(answer, nullptr);
  EXPECT_EQ(service.stats().shard_jobs, 0u);

  // An unbudgeted retry of the same keys goes through the shard path and
  // produces definitive answers.
  auto retried = service.TryResolve(OutInFeatures(), db, nullptr);
  for (const auto& answer : retried) ASSERT_NE(answer, nullptr);
  EXPECT_EQ(service.stats().shard_jobs, 1u);
}

// ---------------------------------------------------------------------------
// Fault handling: claim/requeue accounting and quarantine.

TEST(ShardProtocolTest, FaultedClaimIsCountedAndNeverTreatedAsAWin) {
  TempDir dir("featsep-shard-claimfault");
  Database db = MakeWorld();
  ASSERT_TRUE(PublishShardJob(dir.str(), db, FeatureStrings(), 1, "").ok());
  FaultFsEnv env(FaultFsOptions{});
  Result<ShardJob> job = LoadShardJob(dir.str(), &env);
  ASSERT_TRUE(job.ok()) << job.error().message();

  // The first candidate's claim rename faults: counted as a claim_error
  // (not a race, not a win) and the scan claims the next shard instead.
  env.FailNext(FsOp::kRename, 1);
  ShardIoStats io;
  std::optional<std::size_t> claimed = ClaimShard(dir.str(), job.value(), &io);
  ASSERT_TRUE(claimed.has_value());
  EXPECT_EQ(io.claim_errors, 1u);
  EXPECT_EQ(io.claim_races, 0u);

  // A fully dead rename path claims nothing, and every fault is counted.
  env.FailNext(FsOp::kRename, 1000);
  ShardIoStats dead;
  EXPECT_FALSE(ClaimShard(dir.str(), job.value(), &dead).has_value());
  EXPECT_GT(dead.claim_errors, 0u);
}

TEST(ShardProtocolTest, RequeueFaultIsSurfacedAndRetriedNextPass) {
  TempDir dir("featsep-shard-requeue");
  Database db = MakeWorld();
  ASSERT_TRUE(PublishShardJob(dir.str(), db, FeatureStrings(), 1, "").ok());
  FaultFsEnv env(FaultFsOptions{});
  Result<ShardJob> job = LoadShardJob(dir.str(), &env);
  ASSERT_TRUE(job.ok()) << job.error().message();
  ShardIoStats claim_io;
  std::optional<std::size_t> claimed =
      ClaimShard(dir.str(), job.value(), &claim_io);
  ASSERT_TRUE(claimed.has_value());

  // The worker "dies" holding the lease, and the requeue rename faults: the
  // failure is surfaced (and the shard reported as failure evidence for
  // quarantine accounting) — a shard must never silently leave the
  // protocol.
  env.FailNext(FsOp::kRename, 1);
  ShardIoStats io;
  std::vector<std::size_t> attempted;
  EXPECT_EQ(ReclaimExpiredLeases(dir.str(), job.value(),
                                 std::chrono::milliseconds(0), &io,
                                 &attempted),
            0u);
  EXPECT_EQ(io.requeue_failures, 1u);
  EXPECT_EQ(attempted, std::vector<std::size_t>{*claimed});

  // Next pass with the fault cleared: the shard returns to todo/ and is
  // claimable again.
  ShardIoStats clean_io;
  std::vector<std::size_t> attempted_again;
  EXPECT_EQ(ReclaimExpiredLeases(dir.str(), job.value(),
                                 std::chrono::milliseconds(0), &clean_io,
                                 &attempted_again),
            1u);
  EXPECT_EQ(clean_io.requeue_failures, 0u);
  EXPECT_EQ(attempted_again, std::vector<std::size_t>{*claimed});
  EXPECT_EQ(ClaimShard(dir.str(), job.value(), nullptr), claimed);
}

TEST(ShardProtocolTest, QuarantineCompletesJobBitIdenticalUnderFaults) {
  // A filesystem sick enough that shards keep failing: after
  // quarantine_after observations each failing shard is pulled out of the
  // protocol and evaluated in-memory, so the job still completes and the
  // merge is still bit-identical to serial.
  TempDir dir("featsep-shard-quarantine");
  Database db = MakeWorld();
  ASSERT_TRUE(PublishShardJob(dir.str(), db, FeatureStrings(), 1, "").ok());
  FaultFsOptions fault;
  fault.seed = 99;
  FaultFsEnv env(fault);
  Result<ShardJob> job = LoadShardJob(dir.str(), &env);  // Loads clean.
  ASSERT_TRUE(job.ok()) << job.error().message();
  job.value().retry.max_attempts = 2;
  env.set_fail_chance(0.85);

  ShardCoordinatorOptions options;
  options.lease = std::chrono::milliseconds(0);
  options.poll = std::chrono::milliseconds(0);
  options.quarantine_after = 2;
  Result<ShardMergeResult> merged =
      CoordinateShardJob(dir.str(), job.value(), options);
  ASSERT_TRUE(merged.ok()) << merged.error().message();
  EXPECT_EQ(merged.value().flags, SerialFlags(db));
  EXPECT_GT(merged.value().quarantined_shards, 0u)
      << "no shard was quarantined despite persistent faults";
}

}  // namespace
}  // namespace featsep
