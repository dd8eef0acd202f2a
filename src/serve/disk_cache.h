#ifndef FEATSEP_SERVE_DISK_CACHE_H_
#define FEATSEP_SERVE_DISK_CACHE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/fs_env.h"
#include "util/result.h"
#include "util/retry.h"

namespace featsep {
namespace serve {

/// Stable identity of one (database content digest, feature canonical
/// string) cache key: FNV-1a-64 over the digest (8 LE bytes) followed by
/// the length-prefixed feature string. This single value names the entry's
/// file on disk, buckets the in-memory LRU, and is identical in every
/// process — it is part of the persistent format contract (DESIGN.md §13).
std::uint64_t StableCacheKeyDigest(std::uint64_t content_digest,
                                   std::string_view feature);

/// The payload of one on-disk entry: the key it was stored under plus the
/// selected entity names, sorted by byte order (canonical — equal answers
/// serialize to bit-identical files in every process).
struct DiskCacheEntry {
  std::uint64_t content_digest = 0;
  std::string feature;
  std::vector<std::string> selected;  ///< Sorted ascending by byte order.
};

/// Serializes an entry to its canonical on-disk bytes (version header,
/// length-prefixed strings, trailing FNV-1a-64 checksum over everything
/// before the checksum line). `selected` is sorted internally.
std::string SerializeDiskCacheEntry(std::uint64_t content_digest,
                                    std::string_view feature,
                                    std::vector<std::string> selected);

/// Parses entry bytes, verifying the magic, version, and checksum. Any
/// truncation, corruption, or version mismatch is an error — a bad entry is
/// never partially trusted.
Result<DiskCacheEntry> ParseDiskCacheEntry(std::string_view bytes);

/// Counters for observability and tests; snapshot via stats().
struct DiskCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writes = 0;
  /// Entries dropped because their bytes failed to parse or checksum
  /// (truncated/corrupt files; best-effort deleted so they get rewritten).
  std::uint64_t corrupt_dropped = 0;
  /// Entries dropped because they carry a different format version (left
  /// on disk untouched — they may belong to a newer binary).
  std::uint64_t version_dropped = 0;
  /// Entries dropped because the stored key disagrees with the requested
  /// one (a 64-bit file-name collision; treated as a miss).
  std::uint64_t key_mismatch_dropped = 0;
  std::uint64_t write_failures = 0;
  /// Entries explicitly deleted (Remove) — stale-digest drops after a
  /// delta re-publish.
  std::uint64_t removed = 0;
  /// Loads that exhausted their retries on a read *fault* (not absence).
  /// Distinct from `misses` bookkeeping-wise so the serve-layer circuit
  /// breaker can tell a cold cache from a sick disk.
  std::uint64_t io_errors = 0;
  /// Extra attempts beyond the first, per RetryPolicy, on loads / stores.
  std::uint64_t load_retries = 0;
  std::uint64_t store_retries = 0;
  /// Remove() calls that failed with an I/O fault (the entry may linger;
  /// harmless for correctness — entries are content-addressed — but counted
  /// for hygiene).
  std::uint64_t remove_failures = 0;
  /// Orphaned tmp files collected by startup/explicit GC.
  std::uint64_t tmp_collected = 0;
  /// Cumulative directory-scan errors observed by CollectStaleTmp —
  /// nonzero means some tmp GC pass ran over an incomplete listing.
  std::uint64_t scan_errors = 0;
};

/// How one LoadEntry resolved. Everything except kHit returns no answer;
/// kIoError is the only outcome caused by a filesystem *fault* rather than
/// by what is (or is not) durably stored.
enum class DiskLoadStatus : std::uint8_t {
  kHit = 0,
  kMiss,
  kCorrupt,
  kVersionSkew,
  kKeyCollision,
  kIoError,
};

struct DiskLoadResult {
  DiskLoadStatus status = DiskLoadStatus::kMiss;
  std::vector<std::string> selected;  ///< Filled iff status == kHit.
  bool hit() const { return status == DiskLoadStatus::kHit; }
  /// True when the lookup failed because of an I/O fault, not absence —
  /// what the serve-layer circuit breaker keys on.
  bool io_error() const { return status == DiskLoadStatus::kIoError; }
};

/// Construction-time knobs; the one-argument constructor uses the defaults
/// (real filesystem, no retries, collect hour-old tmp orphans on open).
struct DiskCacheOptions {
  /// Filesystem backend; nullptr = the real filesystem. Non-owning — the
  /// environment must outlive the cache (tests/fuzzers own a FaultFsEnv).
  FsEnv* env = nullptr;
  /// Applied to entry loads, stores, and removes on transient faults.
  RetryPolicy retry;
  /// tmp/ files older than this are orphans of a crash between tmp-write
  /// and rename; collected when the cache opens (and by CollectStaleTmp).
  std::chrono::milliseconds tmp_gc_age{60 * 60 * 1000};
  bool tmp_gc_on_open = true;
};

/// Persistent, cross-process result cache for feature answer sets, keyed by
/// (Database::ContentDigest(), feature canonical string) — the durable tier
/// under EvalService's in-memory LRU (DESIGN.md §13).
///
/// Layout: one file per entry, `<dir>/<hex16(StableCacheKeyDigest)>.fse`,
/// written atomically (serialize → unique temp file in `<dir>/tmp/` →
/// rename), so readers in any process only ever observe complete entries.
/// Entries are versioned and checksummed; LoadEntry never trusts a corrupt,
/// truncated, or version-mismatched file — it degrades to a miss.
/// Concurrent writers of the same key are harmless: answers are
/// deterministic, so both render bit-identical bytes and the second rename
/// replaces the first with equal content.
///
/// All filesystem access goes through an injectable FsEnv (DESIGN.md §15):
/// transient faults are retried per the RetryPolicy, a load that exhausts
/// its retries reports kIoError (distinguished from a plain miss), and
/// orphaned tmp files from a crash mid-publish are GC'd on open.
///
/// Thread-safe; all filesystem errors degrade to miss/failure counters,
/// never exceptions.
class DiskResultCache {
 public:
  /// Current on-disk format version, spelled in every entry's header.
  static constexpr int kFormatVersion = 1;

  /// Creates the directory (and its tmp/ subdirectory) if absent.
  explicit DiskResultCache(std::string dir)
      : DiskResultCache(std::move(dir), DiskCacheOptions{}) {}
  DiskResultCache(std::string dir, const DiskCacheOptions& options);

  const std::string& dir() const { return dir_; }

  /// The entry file path LoadEntry/Store use for this key.
  std::string EntryPath(std::uint64_t content_digest,
                        std::string_view feature) const;

  /// Reads the entry for the key with full outcome reporting. Returned
  /// names are sorted ascending.
  DiskLoadResult LoadEntry(std::uint64_t content_digest,
                           const std::string& feature);

  /// Atomically persists the entry; returns false (and counts a
  /// write_failure) if the filesystem refuses after retries. Never called
  /// with partial answers by EvalService — budget-aborted evaluations are
  /// not persisted.
  bool Store(std::uint64_t content_digest, const std::string& feature,
             std::vector<std::string> selected);

  /// Deletes the entry for the key if present; returns true iff a file was
  /// removed. Used by delta maintenance: once an answer is re-published
  /// under a new digest, the stale-digest entry must never be served again.
  bool Remove(std::uint64_t content_digest, const std::string& feature);

  /// Collects tmp/ files older than `age` — the orphans a crash between
  /// tmp-write and rename leaves behind. Returns the number collected.
  /// Runs automatically on open unless DiskCacheOptions says otherwise.
  std::uint64_t CollectStaleTmp(std::chrono::milliseconds age);

  DiskCacheStats stats() const;

 private:
  std::string dir_;
  FsEnv* env_;
  RetryPolicy retry_;
  std::atomic<std::uint64_t> tmp_counter_{0};
  mutable std::mutex mutex_;  // Guards stats_ only; file ops are lock-free.
  DiskCacheStats stats_;
};

}  // namespace serve
}  // namespace featsep

#endif  // FEATSEP_SERVE_DISK_CACHE_H_
