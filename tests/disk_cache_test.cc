#include "serve/disk_cache.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "core/statistic.h"
#include "serve/eval_service.h"
#include "serve/wire_format.h"
#include "test_util.h"
#include "util/fs_env.h"

namespace featsep {
namespace {

namespace fs = std::filesystem;

using ::featsep::testing::ExpiredBudget;
using ::featsep::testing::MakeWorld;
using ::featsep::testing::MakeWorldReordered;
using ::featsep::testing::OutInFeatures;
using serve::DiskCacheEntry;
using serve::DiskCacheOptions;
using serve::DiskLoadResult;
using serve::DiskLoadStatus;
using serve::DiskResultCache;
using serve::EvalService;
using serve::ParseDiskCacheEntry;
using serve::SerializeDiskCacheEntry;
using serve::ServeOptions;
using serve::ServeStats;
using serve::StableCacheKeyDigest;

/// Unique per-process scratch directory, removed on destruction. ctest runs
/// each TEST as its own process, so the pid keeps parallel runs disjoint.
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

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(StableKeyTest, GoldenValueIsPinnedForever) {
  // The stable key identity names on-disk entries and buckets the in-memory
  // LRU; like Database::ContentDigest() it must never change for given
  // inputs. Do not update this constant — fix the hash instead.
  EXPECT_EQ(StableCacheKeyDigest(0x0123456789abcdefULL, "q(x) :- E(x,y)"),
            0xfcc293d3192e5cc5ULL);
  // Distinct digests and distinct features produce distinct keys.
  EXPECT_NE(StableCacheKeyDigest(1, "f"), StableCacheKeyDigest(2, "f"));
  EXPECT_NE(StableCacheKeyDigest(1, "f"), StableCacheKeyDigest(1, "g"));
}

TEST(DiskCacheEntryTest, SerializeParseRoundTrip) {
  std::string bytes = SerializeDiskCacheEntry(
      0xfeedULL, "q(x) :- E(x,y)", {"zeta", "alpha", "mid"});
  Result<DiskCacheEntry> entry = ParseDiskCacheEntry(bytes);
  ASSERT_TRUE(entry.ok()) << entry.error().message();
  EXPECT_EQ(entry.value().content_digest, 0xfeedULL);
  EXPECT_EQ(entry.value().feature, "q(x) :- E(x,y)");
  // Canonical order on disk: sorted, whatever order Store was handed.
  EXPECT_EQ(entry.value().selected,
            (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

TEST(DiskCacheEntryTest, EntityNamesMayContainAnything) {
  // Length-prefixed names survive spaces and newlines.
  std::string bytes = SerializeDiskCacheEntry(
      7, "f", {"a b", "with\nnewline", "13 digits lead"});
  Result<DiskCacheEntry> entry = ParseDiskCacheEntry(bytes);
  ASSERT_TRUE(entry.ok()) << entry.error().message();
  EXPECT_EQ(entry.value().selected.size(), 3u);
}

TEST(DiskCacheEntryTest, EveryTruncationIsRejected) {
  std::string bytes = SerializeDiskCacheEntry(42, "feat", {"e1", "e2"});
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(ParseDiskCacheEntry(bytes.substr(0, len)).ok())
        << "prefix of length " << len << " parsed";
  }
  EXPECT_TRUE(ParseDiskCacheEntry(bytes).ok());
  // Trailing garbage after the checksum is also corruption.
  EXPECT_FALSE(ParseDiskCacheEntry(bytes + "x").ok());
}

TEST(DiskCacheEntryTest, EverySingleByteFlipBreaksTheChecksum) {
  std::string bytes = SerializeDiskCacheEntry(42, "feat", {"e1"});
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] ^= 0x01;
    EXPECT_FALSE(ParseDiskCacheEntry(mutated).ok())
        << "flip at offset " << i << " parsed";
  }
}

TEST(DiskCacheEntryTest, OverlongDigestIsRejected) {
  // 17 hex digits overflow 64 bits; wrapping would read the line as
  // 0x2000000000000000 and file the entry under the wrong key.
  const std::string bytes = serve::wire::WithChecksum(
      "featsep-result-cache 1\n"
      "digest 12000000000000000\n"
      "feature 1\nf\n"
      "entities 0\n");
  EXPECT_FALSE(ParseDiskCacheEntry(bytes).ok());
  // The same entry with the 16-digit digest it would have wrapped to parses.
  EXPECT_TRUE(
      ParseDiskCacheEntry(SerializeDiskCacheEntry(0x2000000000000000ULL, "f",
                                                  {}))
          .ok());
}

TEST(WireFormatTest, ParseU64RejectsOverflowAtTheBoundary) {
  std::uint64_t value = 0;
  EXPECT_TRUE(serve::wire::ParseU64("18446744073709551615", &value));
  EXPECT_EQ(value, 18446744073709551615ULL);
  EXPECT_FALSE(serve::wire::ParseU64("18446744073709551616", &value));
  EXPECT_FALSE(serve::wire::ParseU64("30000000000000000000", &value));
  EXPECT_TRUE(serve::wire::ParseU64("ffffffffffffffff", &value, 16));
  EXPECT_EQ(value, 0xffffffffffffffffULL);
  EXPECT_FALSE(serve::wire::ParseU64("10000000000000000", &value, 16));
  EXPECT_FALSE(serve::wire::ParseU64("12000000000000000", &value, 16));
}

TEST(DiskResultCacheTest, StoreThenLoad) {
  TempDir dir("featsep-dc-roundtrip");
  DiskResultCache cache(dir.str());
  EXPECT_FALSE(cache.LoadEntry(1, "f").hit());
  EXPECT_TRUE(cache.Store(1, "f", {"b", "a"}));
  DiskLoadResult names = cache.LoadEntry(1, "f");
  ASSERT_TRUE(names.hit());
  EXPECT_EQ(names.selected, (std::vector<std::string>{"a", "b"}));
  // A different key misses without disturbing the stored entry.
  EXPECT_FALSE(cache.LoadEntry(2, "f").hit());
  EXPECT_FALSE(cache.LoadEntry(1, "g").hit());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().writes, 1u);
}

TEST(DiskResultCacheTest, EntriesSurviveProcessRestart) {
  // Simulated restart: a brand-new cache object (fresh stats, fresh
  // everything) over the same directory serves the entry.
  TempDir dir("featsep-dc-restart");
  { DiskResultCache(dir.str()).Store(9, "f", {"e"}); }
  DiskResultCache reopened(dir.str());
  DiskLoadResult names = reopened.LoadEntry(9, "f");
  ASSERT_TRUE(names.hit());
  EXPECT_EQ(names.selected, std::vector<std::string>{"e"});
}

TEST(DiskResultCacheTest, CorruptEntryIsDroppedAndDeletedNeverTrusted) {
  TempDir dir("featsep-dc-corrupt");
  DiskResultCache cache(dir.str());
  ASSERT_TRUE(cache.Store(5, "f", {"a"}));

  // Find the entry file and truncate it mid-payload.
  fs::path entry_path;
  for (const auto& it : fs::directory_iterator(dir.path())) {
    if (it.path().extension() == ".fse") entry_path = it.path();
  }
  ASSERT_FALSE(entry_path.empty());
  std::string bytes = ReadFile(entry_path);
  WriteFile(entry_path, bytes.substr(0, bytes.size() / 2));

  EXPECT_FALSE(cache.LoadEntry(5, "f").hit());
  EXPECT_EQ(cache.stats().corrupt_dropped, 1u);
  EXPECT_FALSE(fs::exists(entry_path)) << "corrupt entry not deleted";

  // The slot is reusable: a fresh Store replaces it with a good entry.
  ASSERT_TRUE(cache.Store(5, "f", {"a"}));
  EXPECT_TRUE(cache.LoadEntry(5, "f").hit());
}

TEST(DiskResultCacheTest, VersionMismatchIsIgnoredButPreserved) {
  TempDir dir("featsep-dc-version");
  DiskResultCache cache(dir.str());
  ASSERT_TRUE(cache.Store(5, "f", {"a"}));
  fs::path entry_path;
  for (const auto& it : fs::directory_iterator(dir.path())) {
    if (it.path().extension() == ".fse") entry_path = it.path();
  }
  ASSERT_FALSE(entry_path.empty());
  // A future format version: maybe written by a newer binary sharing the
  // directory. It must be a miss — but never deleted.
  WriteFile(entry_path, "featsep-result-cache 999\nwho knows what follows\n");

  EXPECT_FALSE(cache.LoadEntry(5, "f").hit());
  EXPECT_EQ(cache.stats().version_dropped, 1u);
  EXPECT_EQ(cache.stats().corrupt_dropped, 0u);
  EXPECT_TRUE(fs::exists(entry_path)) << "foreign-version entry deleted";
}

TEST(DiskResultCacheTest, KeyCollisionKeepsResidentEntry) {
  TempDir dir("featsep-dc-collide");
  DiskResultCache cache(dir.str());
  ASSERT_TRUE(cache.Store(5, "f", {"a"}));
  // Masquerade the valid entry under a different key's file name: the
  // payload spells its true key, so the reader refuses to serve it.
  fs::path entry_path;
  for (const auto& it : fs::directory_iterator(dir.path())) {
    if (it.path().extension() == ".fse") entry_path = it.path();
  }
  const std::string bytes = ReadFile(entry_path);
  DiskResultCache other(dir.str());
  other.Store(6, "g", {"b"});
  fs::path other_path;
  for (const auto& it : fs::directory_iterator(dir.path())) {
    if (it.path().extension() == ".fse" && it.path() != entry_path) {
      other_path = it.path();
    }
  }
  ASSERT_FALSE(other_path.empty());
  WriteFile(other_path, bytes);  // (6, "g")'s file now holds (5, "f").

  EXPECT_FALSE(other.LoadEntry(6, "g").hit());
  EXPECT_EQ(other.stats().key_mismatch_dropped, 1u);
}

// ---------------------------------------------------------------------------
// Sweep / Remove: the disk tier's size-bounded GC.

TEST(DiskResultCacheTest, RemoveDeletesTheEntry) {
  TempDir dir("featsep-dc-remove");
  DiskResultCache cache(dir.str());
  ASSERT_TRUE(cache.Store(5, "f", {"a"}));
  EXPECT_TRUE(cache.Remove(5, "f"));
  EXPECT_FALSE(cache.LoadEntry(5, "f").hit());
  EXPECT_EQ(cache.stats().removed, 1u);
  // Removing what is not there reports false without counting.
  EXPECT_FALSE(cache.Remove(5, "f"));
  EXPECT_EQ(cache.stats().removed, 1u);
}

// ---------------------------------------------------------------------------
// Fault injection: retries, I/O-error reporting, tmp GC, crash-mid-publish.

TEST(DiskResultCacheTest, TmpGcOnOpenCollectsStaleOrphansOnly) {
  TempDir dir("featsep-dc-tmpgc");
  { DiskResultCache warmup(dir.str()); }  // Creates tmp/.
  const fs::path orphan = dir.path() / "tmp" / "orphan.123.0.tmp";
  const fs::path fresh = dir.path() / "tmp" / "fresh.456.0.tmp";
  WriteFile(orphan, "partial bytes a crash left behind");
  // Backdate past the default hour-long GC age.
  fs::last_write_time(
      orphan, fs::file_time_type::clock::now() - std::chrono::hours(2));
  WriteFile(fresh, "another process's live publish");

  DiskResultCache cache(dir.str());  // Defaults: GC on open, hour age.
  EXPECT_EQ(cache.stats().tmp_collected, 1u);
  EXPECT_FALSE(fs::exists(orphan)) << "stale orphan survived startup GC";
  EXPECT_TRUE(fs::exists(fresh)) << "a possibly-live publish was collected";

  // An explicit zero-age pass collects everything left.
  EXPECT_EQ(cache.CollectStaleTmp(std::chrono::milliseconds(0)), 1u);
  EXPECT_EQ(cache.stats().tmp_collected, 2u);
  EXPECT_FALSE(fs::exists(fresh));
}

TEST(DiskResultCacheTest, StoreRetriesTransientFaultThenSucceeds) {
  TempDir dir("featsep-dc-retry-store");
  FaultFsEnv env(FaultFsOptions{});
  DiskCacheOptions options;
  options.env = &env;
  options.retry.max_attempts = 2;
  DiskResultCache cache(dir.str(), options);

  env.FailNext(FsOp::kWrite, 1);
  EXPECT_TRUE(cache.Store(1, "f", {"a"}));
  EXPECT_EQ(cache.stats().store_retries, 1u);
  EXPECT_EQ(cache.stats().write_failures, 0u);
  EXPECT_EQ(cache.stats().writes, 1u);
  DiskLoadResult names = cache.LoadEntry(1, "f");
  ASSERT_TRUE(names.hit());
  EXPECT_EQ(names.selected, std::vector<std::string>{"a"});
}

TEST(DiskResultCacheTest, StoreExhaustedRetriesCountsWriteFailure) {
  TempDir dir("featsep-dc-retry-exhaust");
  FaultFsEnv env(FaultFsOptions{});
  DiskCacheOptions options;
  options.env = &env;
  options.retry.max_attempts = 2;
  DiskResultCache cache(dir.str(), options);

  env.FailNext(FsOp::kWrite, 2);  // Both attempts fault.
  EXPECT_FALSE(cache.Store(1, "f", {"a"}));
  EXPECT_EQ(cache.stats().write_failures, 1u);
  EXPECT_EQ(cache.stats().store_retries, 1u);
  EXPECT_EQ(cache.stats().writes, 0u);
  // The failure is not sticky: once the fault clears, the key stores fine.
  EXPECT_TRUE(cache.Store(1, "f", {"a"}));
  EXPECT_TRUE(cache.LoadEntry(1, "f").hit());
}

TEST(DiskResultCacheTest, LoadIoErrorIsDistinctFromMiss) {
  TempDir dir("featsep-dc-ioerror");
  FaultFsEnv env(FaultFsOptions{});
  DiskCacheOptions options;
  options.env = &env;
  options.retry.max_attempts = 2;
  DiskResultCache cache(dir.str(), options);

  // A sick disk: retries exhausted on a read fault.
  env.FailNext(FsOp::kRead, 2);
  DiskLoadResult faulted = cache.LoadEntry(1, "f");
  EXPECT_EQ(faulted.status, DiskLoadStatus::kIoError);
  EXPECT_TRUE(faulted.io_error());
  EXPECT_EQ(cache.stats().io_errors, 1u);
  EXPECT_EQ(cache.stats().load_retries, 1u);

  // A cold cache: settled on the first attempt, never an io_error.
  DiskLoadResult missed = cache.LoadEntry(1, "f");
  EXPECT_EQ(missed.status, DiskLoadStatus::kMiss);
  EXPECT_FALSE(missed.io_error());
  EXPECT_EQ(cache.stats().io_errors, 1u);

  // A transient read fault on a present entry: retried into a hit.
  ASSERT_TRUE(cache.Store(1, "f", {"a"}));
  env.FailNext(FsOp::kRead, 1);
  DiskLoadResult recovered = cache.LoadEntry(1, "f");
  EXPECT_TRUE(recovered.hit());
  EXPECT_EQ(cache.stats().load_retries, 2u);
}

TEST(DiskResultCacheTest, TmpGcReportsPartialScanErrors) {
  TempDir dir("featsep-dc-tmpgc-partial");
  FaultFsOptions fault;
  fault.partial_list_chance = 1.0;
  FaultFsEnv env(fault);
  DiskCacheOptions options;
  options.env = &env;
  options.tmp_gc_on_open = false;
  DiskResultCache cache(dir.str(), options);
  for (int i = 0; i < 4; ++i) {
    WriteFile(dir.path() / "tmp" / ("orphan." + std::to_string(i) + ".tmp"),
              "partial bytes");
  }
  env.FailNext(FsOp::kList, 1);
  const std::uint64_t collected =
      cache.CollectStaleTmp(std::chrono::milliseconds(0));
  EXPECT_GT(cache.stats().scan_errors, 0u)
      << "a truncated scan must not report itself complete";
  // Every orphan is either collected or counted as missed by the scan.
  EXPECT_EQ(collected + cache.stats().scan_errors, 4u);
}

TEST(DiskResultCacheTest, CrashMidPublishIsInvisibleAfterRecovery) {
  // Kill the "process" at every I/O point of a store (with torn writes on)
  // and restart over the same directory: the entry is either fully absent
  // or fully present — never half-visible — and recovery GC leaves no tmp
  // orphans behind.
  TempDir dir("featsep-dc-crash");
  for (std::uint64_t crash_at = 1; crash_at <= 6; ++crash_at) {
    const fs::path sub = dir.path() / ("crash-" + std::to_string(crash_at));
    fs::create_directories(sub);
    {
      FaultFsOptions fault;
      fault.seed = crash_at * 1000 + 7;
      fault.torn_write_chance = 1.0;
      fault.crash_after_ops = crash_at;
      FaultFsEnv env(fault);
      DiskCacheOptions options;
      options.env = &env;
      options.tmp_gc_on_open = false;  // Land the crash inside the publish.
      DiskResultCache cache(sub.string(), options);
      cache.Store(1, "f", {"a", "b"});  // May die at any point inside.
    }
    // Restart: a fresh cache on the real filesystem, collecting tmp
    // orphans regardless of age.
    DiskCacheOptions recovery;
    recovery.tmp_gc_age = std::chrono::milliseconds(0);
    DiskResultCache reopened(sub.string(), recovery);
    DiskLoadResult result = reopened.LoadEntry(1, "f");
    ASSERT_TRUE(result.status == DiskLoadStatus::kMiss || result.hit())
        << "crash_at=" << crash_at << " left a half-visible entry";
    if (result.hit()) {
      EXPECT_EQ(result.selected, (std::vector<std::string>{"a", "b"}));
    }
    std::size_t tmp_files = 0;
    for (const auto& it : fs::directory_iterator(sub / "tmp")) {
      (void)it;
      ++tmp_files;
    }
    EXPECT_EQ(tmp_files, 0u) << "crash_at=" << crash_at << " orphaned tmp";
  }
}

// ---------------------------------------------------------------------------
// EvalService integration: the durable tier under the LRU.

TEST(EvalServiceDiskTest, ColdRunRestartWarmRunBitIdentical) {
  TempDir dir("featsep-svc-restart");
  Database db = MakeWorld();
  Statistic statistic(OutInFeatures());
  const std::vector<FeatureVector> serial = statistic.Matrix(db);

  ServeOptions options;
  options.cache_dir = dir.str();
  std::vector<FeatureVector> cold;
  {
    EvalService service(options);
    cold = service.Matrix(statistic.features(), db);
    ServeStats stats = service.stats();
    EXPECT_EQ(stats.disk_hits, 0u);
    EXPECT_EQ(stats.disk_writes, statistic.features().size());
    EXPECT_EQ(stats.features_evaluated, statistic.features().size());
  }  // Service destroyed: the "process" is gone, only the directory stays.

  EvalService restarted(options);
  std::vector<FeatureVector> warm = restarted.Matrix(statistic.features(), db);
  ServeStats stats = restarted.stats();
  EXPECT_EQ(stats.disk_hits, statistic.features().size());
  EXPECT_EQ(stats.features_evaluated, 0u) << "kernel ran despite disk cache";
  EXPECT_EQ(warm, cold);
  EXPECT_EQ(warm, serial);
}

TEST(EvalServiceDiskTest, DiskEntriesTransferBetweenEqualContentDatabases) {
  // Entries are keyed by content digest and store entity *names*, so a
  // database with the same content but different interning order hits.
  TempDir dir("featsep-svc-transfer");
  ServeOptions options;
  options.cache_dir = dir.str();
  Database a = MakeWorld();
  Database b = MakeWorldReordered();
  Statistic statistic(OutInFeatures());
  std::vector<FeatureVector> on_a;
  {
    EvalService service(options);
    on_a = service.Matrix(statistic.features(), a);
  }
  EvalService service(options);
  std::vector<FeatureVector> on_b = service.Matrix(statistic.features(), b);
  EXPECT_EQ(service.stats().disk_hits, statistic.features().size());
  EXPECT_EQ(service.stats().features_evaluated, 0u);
  EXPECT_EQ(on_b, statistic.Matrix(b));
}

TEST(EvalServiceDiskTest, CorruptDirectoryIsNotFatal) {
  TempDir dir("featsep-svc-corrupt");
  ServeOptions options;
  options.cache_dir = dir.str();
  Database db = MakeWorld();
  Statistic statistic(OutInFeatures());
  {
    EvalService service(options);
    service.Matrix(statistic.features(), db);
  }
  // Vandalize every entry.
  for (const auto& it : fs::directory_iterator(dir.path())) {
    if (it.path().extension() == ".fse") WriteFile(it.path(), "garbage");
  }
  EvalService service(options);
  std::vector<FeatureVector> matrix = service.Matrix(statistic.features(), db);
  EXPECT_EQ(matrix, statistic.Matrix(db));
  ServeStats stats = service.stats();
  EXPECT_EQ(stats.disk_hits, 0u);
  EXPECT_EQ(stats.disk_drops, statistic.features().size());
  EXPECT_EQ(stats.features_evaluated, statistic.features().size());
}

TEST(EvalServiceDiskTest, AbortedEvaluationsAreNeverPersisted) {
  // The PR 5 rule extended to disk: an expired budget yields nullptr
  // answers and must leave NOTHING durable behind.
  TempDir dir("featsep-svc-aborted");
  ServeOptions options;
  options.cache_dir = dir.str();
  Database db = MakeWorld();
  EvalService service(options);
  ExecutionBudget budget = ExpiredBudget();
  auto answers = service.TryResolve(OutInFeatures(), db, &budget);
  for (const auto& answer : answers) EXPECT_EQ(answer, nullptr);
  EXPECT_EQ(service.stats().disk_writes, 0u);
  std::size_t entries = 0;
  for (const auto& it : fs::directory_iterator(dir.path())) {
    if (it.path().extension() == ".fse") ++entries;
  }
  EXPECT_EQ(entries, 0u) << "aborted evaluation left a durable entry";
}

// ---------------------------------------------------------------------------
// The disk circuit breaker: a sick disk must degrade the durable tier to
// LRU+compute, never degrade answers.

TEST(EvalServiceBreakerTest, OpenBreakerShortCircuitsTheSickDisk) {
  TempDir dir("featsep-breaker-open");
  auto env = std::make_shared<FaultFsEnv>(FaultFsOptions{});
  ServeOptions options;
  options.cache_dir = dir.str();
  options.fs_env = env;
  options.disk_retry_attempts = 1;  // One attempt per op: clean counting.
  options.disk_retry_backoff = std::chrono::microseconds(0);
  options.breaker_failure_threshold = 1;
  options.breaker_probe_interval = std::chrono::hours(1);  // No probes here.
  Database db = MakeWorld();
  Statistic statistic(OutInFeatures());
  const std::vector<FeatureVector> serial = statistic.Matrix(db);

  EvalService service(options);
  EXPECT_EQ(service.disk_health(), serve::DiskHealth::kClosed);
  EXPECT_EQ(service.Matrix(statistic.features(), db), serial);
  EXPECT_EQ(service.disk_health(), serve::DiskHealth::kClosed);

  // The disk goes dark: the first faulted op trips the breaker, everything
  // after short-circuits, and the answers never notice.
  env->set_fail_chance(1.0);
  service.ClearCache();
  EXPECT_EQ(service.Matrix(statistic.features(), db), serial);
  EXPECT_EQ(service.disk_health(), serve::DiskHealth::kOpen);
  ServeStats stats = service.stats();
  EXPECT_EQ(stats.breaker_trips, 1u);
  EXPECT_GE(stats.breaker_short_circuits, 1u);
  EXPECT_EQ(stats.breaker_closes, 0u);

  // While open (and the probe interval far away), the disk is not touched
  // at all — that is the point of the breaker.
  const std::uint64_t attempts_when_open = env->stats().total_attempts;
  service.ClearCache();
  EXPECT_EQ(service.Matrix(statistic.features(), db), serial);
  EXPECT_EQ(env->stats().total_attempts, attempts_when_open)
      << "open breaker still sent operations to the sick disk";
}

TEST(EvalServiceBreakerTest, GracefulDegradationEndToEnd) {
  // The acceptance-criteria arc: healthy -> disk fails -> breaker opens and
  // requests keep serving bit-identically to the serial oracle -> faults
  // clear -> a half-open probe closes the breaker -> the disk tier resumes.
  TempDir dir("featsep-breaker-e2e");
  auto env = std::make_shared<FaultFsEnv>(FaultFsOptions{});
  ServeOptions options;
  options.cache_dir = dir.str();
  options.fs_env = env;
  options.disk_retry_attempts = 2;
  options.disk_retry_backoff = std::chrono::microseconds(0);
  options.breaker_failure_threshold = 2;
  options.breaker_probe_interval = std::chrono::milliseconds(0);
  Database db = MakeWorld();
  Statistic statistic(OutInFeatures());
  const std::vector<FeatureVector> serial = statistic.Matrix(db);

  // A no-disk, no-cache twin is the oracle for every phase.
  EvalService oracle{[] {
    ServeOptions serial_options;
    serial_options.cache_capacity = 0;
    return serial_options;
  }()};

  EvalService service(options);
  EXPECT_EQ(service.Matrix(statistic.features(), db),
            oracle.Matrix(statistic.features(), db));
  EXPECT_EQ(service.disk_health(), serve::DiskHealth::kClosed);

  env->set_fail_chance(1.0);
  for (int round = 0; round < 4; ++round) {
    service.ClearCache();
    EXPECT_EQ(service.Matrix(statistic.features(), db), serial)
        << "faulted round " << round << " degraded the answers";
  }
  ServeStats degraded = service.stats();
  EXPECT_GT(degraded.breaker_trips, 0u) << "breaker never opened";
  EXPECT_GT(degraded.disk_io_errors, 0u);

  // Faults clear; the zero-length probe interval lets the next operation
  // through as a half-open probe, which succeeds and closes the breaker.
  env->ClearFaults();
  service.ClearCache();
  EXPECT_EQ(service.Matrix(statistic.features(), db), serial);
  EXPECT_EQ(service.disk_health(), serve::DiskHealth::kClosed)
      << "breaker failed to close after the disk recovered";
  ServeStats recovered = service.stats();
  EXPECT_GT(recovered.breaker_closes, 0u);

  // The disk tier is genuinely back: entries stored after recovery are
  // served from disk on the next cold pass.
  service.ClearCache();
  const std::uint64_t hits_before = service.stats().disk_hits;
  EXPECT_EQ(service.Matrix(statistic.features(), db), serial);
  EXPECT_GT(service.stats().disk_hits, hits_before)
      << "recovered disk tier served no hits";
}

}  // namespace
}  // namespace featsep
