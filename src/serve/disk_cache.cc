#include "serve/disk_cache.h"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <utility>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "serve/wire_format.h"
#include "util/hash.h"

namespace featsep {
namespace serve {

namespace {

constexpr std::string_view kMagic = "featsep-result-cache";

std::uint64_t ProcessId() {
#ifndef _WIN32
  return static_cast<std::uint64_t>(::getpid());
#else
  return 0;
#endif
}

}  // namespace

std::uint64_t StableCacheKeyDigest(std::uint64_t content_digest,
                                   std::string_view feature) {
  std::uint64_t hash = Fnv1a64U64(kFnv64OffsetBasis, content_digest);
  return Fnv1a64String(hash, feature);
}

std::string SerializeDiskCacheEntry(std::uint64_t content_digest,
                                    std::string_view feature,
                                    std::vector<std::string> selected) {
  std::sort(selected.begin(), selected.end());
  std::ostringstream out;
  out << kMagic << " " << DiskResultCache::kFormatVersion << "\n";
  out << "digest " << wire::DigestHex(content_digest) << "\n";
  out << "feature " << feature.size() << "\n" << feature << "\n";
  out << "entities " << selected.size() << "\n";
  for (const std::string& name : selected) {
    out << name.size() << " " << name << "\n";
  }
  return wire::WithChecksum(out.str());
}

Result<DiskCacheEntry> ParseDiskCacheEntry(std::string_view bytes) {
  wire::Cursor cursor{bytes};
  std::string_view line;
  if (!cursor.ReadLine(&line)) return Error("truncated header");
  std::uint64_t version = 0;
  if (!wire::ParseKeyedU64(line, kMagic, &version)) return Error("bad magic");
  if (version != static_cast<std::uint64_t>(DiskResultCache::kFormatVersion)) {
    return Error("version mismatch: " + std::to_string(version));
  }

  DiskCacheEntry entry;
  if (!cursor.ReadLine(&line) ||
      !wire::ParseKeyedU64(line, "digest", &entry.content_digest, 16)) {
    return Error("bad digest line");
  }
  std::uint64_t feature_size = 0;
  if (!cursor.ReadLine(&line) ||
      !wire::ParseKeyedU64(line, "feature", &feature_size)) {
    return Error("bad feature line");
  }
  std::string_view feature;
  if (!cursor.ReadExact(feature_size, &feature)) {
    return Error("truncated feature");
  }
  entry.feature = std::string(feature);
  std::uint64_t count = 0;
  if (!cursor.ReadLine(&line) ||
      !wire::ParseKeyedU64(line, "entities", &count)) {
    return Error("bad entities line");
  }
  if (count > bytes.size()) return Error("implausible entity count");
  entry.selected.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string_view name;
    if (!cursor.ReadSized(&name)) return Error("truncated entity");
    entry.selected.emplace_back(name);
  }
  if (!wire::VerifyChecksum(cursor)) return Error("checksum mismatch");
  if (!std::is_sorted(entry.selected.begin(), entry.selected.end())) {
    return Error("entities not in canonical order");
  }
  return entry;
}

DiskResultCache::DiskResultCache(std::string dir,
                                 const DiskCacheOptions& options)
    : dir_(std::move(dir)),
      env_(options.env != nullptr ? options.env : RealFs()),
      retry_(options.retry) {
  env_->CreateDirs((std::filesystem::path(dir_) / "tmp").string());
  if (options.tmp_gc_on_open) CollectStaleTmp(options.tmp_gc_age);
}

std::string DiskResultCache::EntryPath(std::uint64_t content_digest,
                                       std::string_view feature) const {
  return (std::filesystem::path(dir_) /
          (wire::DigestHex(StableCacheKeyDigest(content_digest, feature)) +
           ".fse"))
      .string();
}

DiskLoadResult DiskResultCache::LoadEntry(std::uint64_t content_digest,
                                          const std::string& feature) {
  const std::string path = EntryPath(content_digest, feature);
  DiskLoadResult result;
  std::string bytes;
  FsStatus read = FsStatus::kError;
  RetryOutcome read_outcome =
      RetryCall(retry_, nullptr, [&]() {
        read = env_->ReadFile(path, &bytes);
        return read != FsStatus::kError;  // A miss is settled, not retried.
      });
  if (read_outcome.retries() > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.load_retries += read_outcome.retries();
  }
  if (!read_outcome.ok) {
    // The read kept faulting: the disk is sick, not cold. Reported apart
    // from a miss so the circuit breaker can react.
    result.status = DiskLoadStatus::kIoError;
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.io_errors;
    ++stats_.misses;
    return result;
  }
  if (read == FsStatus::kNotFound) {
    result.status = DiskLoadStatus::kMiss;
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.misses;
    return result;
  }
  // A different-version entry may belong to a newer binary sharing the
  // directory: drop it without trusting OR deleting it.
  std::uint64_t version = 0;
  std::string_view first = std::string_view(bytes);
  first = first.substr(0, first.find('\n'));
  if (wire::ParseKeyedU64(first, kMagic, &version) &&
      version != static_cast<std::uint64_t>(kFormatVersion)) {
    result.status = DiskLoadStatus::kVersionSkew;
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.version_dropped;
    ++stats_.misses;
    return result;
  }
  Result<DiskCacheEntry> entry = ParseDiskCacheEntry(bytes);
  if (!entry.ok()) {
    // Corrupt or truncated: never trusted, best-effort deleted so a later
    // write replaces it with a good entry.
    env_->Remove(path);
    result.status = DiskLoadStatus::kCorrupt;
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.corrupt_dropped;
    ++stats_.misses;
    return result;
  }
  if (entry.value().content_digest != content_digest ||
      entry.value().feature != feature) {
    // 64-bit file-name collision between distinct keys: keep the resident
    // entry, miss on ours.
    result.status = DiskLoadStatus::kKeyCollision;
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.key_mismatch_dropped;
    ++stats_.misses;
    return result;
  }
  result.status = DiskLoadStatus::kHit;
  result.selected = std::move(entry.value().selected);
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.hits;
  return result;
}

bool DiskResultCache::Store(std::uint64_t content_digest,
                            const std::string& feature,
                            std::vector<std::string> selected) {
  const std::string name =
      wire::DigestHex(StableCacheKeyDigest(content_digest, feature));
  const std::string final_path =
      (std::filesystem::path(dir_) / (name + ".fse")).string();
  std::string bytes =
      SerializeDiskCacheEntry(content_digest, feature, std::move(selected));

  // Each attempt publishes through a fresh unique tmp name: a failed
  // attempt can at worst orphan a tmp file (collected by startup GC), never
  // tear the published entry. A failed attempt also re-creates the cache
  // directories: if CreateDirs faulted when the cache opened, the store
  // path self-heals once the filesystem recovers instead of failing
  // forever against a missing tmp/.
  RetryOutcome outcome = RetryCall(retry_, nullptr, [&]() {
    const std::string tmp_path =
        (std::filesystem::path(dir_) / "tmp" /
         (name + "." + std::to_string(ProcessId()) + "." +
          std::to_string(
              tmp_counter_.fetch_add(1, std::memory_order_relaxed)) +
          ".tmp"))
            .string();
    if (env_->Publish(tmp_path, final_path, bytes) == FsStatus::kOk) {
      return true;
    }
    env_->CreateDirs((std::filesystem::path(dir_) / "tmp").string());
    return false;
  });
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.store_retries += outcome.retries();
  if (!outcome.ok) {
    ++stats_.write_failures;
    return false;
  }
  ++stats_.writes;
  return true;
}

bool DiskResultCache::Remove(std::uint64_t content_digest,
                             const std::string& feature) {
  const std::string path = EntryPath(content_digest, feature);
  FsStatus status = FsStatus::kError;
  RetryOutcome outcome = RetryCall(retry_, nullptr, [&]() {
    status = env_->Remove(path);
    return status != FsStatus::kError;
  });
  if (!outcome.ok) {
    // The stale entry may linger. Not a correctness problem — entries are
    // content-addressed, so it stays a correct answer for its own digest —
    // but worth counting.
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.remove_failures;
    return false;
  }
  if (status == FsStatus::kOk) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.removed;
    return true;
  }
  return false;
}

std::uint64_t DiskResultCache::CollectStaleTmp(std::chrono::milliseconds age) {
  const std::string tmp_dir = (std::filesystem::path(dir_) / "tmp").string();
  FsListResult listing = env_->ListDir(tmp_dir);
  std::uint64_t scan_errors = listing.scan_errors;
  if (listing.status != FsStatus::kOk) ++scan_errors;
  const auto now = std::filesystem::file_time_type::clock::now();
  std::uint64_t collected = 0;
  for (const FsDirEntry& item : listing.entries) {
    if (now - item.mtime < age) continue;  // Possibly a live publish.
    const std::string path =
        (std::filesystem::path(tmp_dir) / item.name).string();
    if (env_->Remove(path) == FsStatus::kOk) ++collected;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.tmp_collected += collected;
  stats_.scan_errors += scan_errors;
  return collected;
}

DiskCacheStats DiskResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace serve
}  // namespace featsep
