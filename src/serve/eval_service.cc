#include "serve/eval_service.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <optional>

#include "cq/evaluation.h"
#include "serve/shard_protocol.h"
#include "serve/wire_format.h"
#include "util/check.h"
#include "util/hash.h"
#include "util/parallel.h"

namespace featsep {
namespace serve {

/// One cold (feature × database) evaluation slot of a Resolve batch.
struct EvalService::Miss {
  std::size_t feature_index;
  CacheKey key;
  std::unique_ptr<CqEvaluator> evaluator;
  std::vector<char> flags;  // One per entity of db, in Entities() order.
};

std::size_t EvalService::CacheKeyHash::operator()(const CacheKey& key) const {
  // The stable key identity, truncated to size_t on 32-bit hosts — bucket
  // choice may differ there, but the serialized identity never does.
  return static_cast<std::size_t>(
      StableCacheKeyDigest(key.first, key.second));
}

namespace {

/// The retry policy both durable tiers (disk cache + shard protocol) run
/// under, built from the serve knobs.
RetryPolicy DurableRetryPolicy(const ServeOptions& options) {
  RetryPolicy retry;
  retry.max_attempts = std::max(1, options.disk_retry_attempts);
  retry.initial_backoff = options.disk_retry_backoff;
  retry.jitter_seed = 0x9e3779b97f4a7c15ULL;
  return retry;
}

/// Shard-mode lease: a shard claimed by a worker that died is reclaimed and
/// re-run after this long.
constexpr std::chrono::milliseconds kShardLease{10000};

}  // namespace

EvalService::EvalService(const ServeOptions& options) : options_(options) {
  if (!options_.cache_dir.empty()) {
    DiskCacheOptions disk_options;
    disk_options.env = options_.fs_env.get();
    disk_options.retry = DurableRetryPolicy(options_);
    disk_ = std::make_unique<DiskResultCache>(options_.cache_dir, disk_options);
  }
}

bool EvalService::DiskTierAllowed() {
  if (options_.breaker_failure_threshold <= 0) return true;
  std::lock_guard<std::mutex> lock(breaker_mutex_);
  switch (breaker_state_) {
    case DiskHealth::kClosed:
      return true;
    case DiskHealth::kOpen: {
      const auto now = std::chrono::steady_clock::now();
      if (now - breaker_opened_at_ >= options_.breaker_probe_interval) {
        breaker_state_ = DiskHealth::kHalfOpen;
        ++breaker_probes_;
        return true;  // This caller is the probe.
      }
      ++breaker_short_circuits_;
      return false;
    }
    case DiskHealth::kHalfOpen:
      // One probe at a time; everyone else keeps degrading until it lands.
      ++breaker_short_circuits_;
      return false;
  }
  return true;
}

void EvalService::NoteDiskResult(bool io_ok) {
  if (options_.breaker_failure_threshold <= 0) return;
  std::lock_guard<std::mutex> lock(breaker_mutex_);
  if (io_ok) {
    if (breaker_state_ == DiskHealth::kHalfOpen) ++breaker_closes_;
    breaker_state_ = DiskHealth::kClosed;
    breaker_failures_ = 0;
    return;
  }
  if (breaker_state_ == DiskHealth::kHalfOpen) {
    // The probe failed: straight back to open, restart the interval.
    breaker_state_ = DiskHealth::kOpen;
    breaker_opened_at_ = std::chrono::steady_clock::now();
    ++breaker_trips_;
    return;
  }
  ++breaker_failures_;
  if (breaker_state_ == DiskHealth::kClosed &&
      breaker_failures_ >= options_.breaker_failure_threshold) {
    breaker_state_ = DiskHealth::kOpen;
    breaker_opened_at_ = std::chrono::steady_clock::now();
    ++breaker_trips_;
  }
}

DiskHealth EvalService::disk_health() const {
  std::lock_guard<std::mutex> lock(breaker_mutex_);
  return breaker_state_;
}

std::shared_ptr<const FeatureAnswer> EvalService::CacheGet(
    const CacheKey& key) {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    ++stats_.cache_misses;
    return nullptr;
  }
  ++stats_.cache_hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // Move to front.
  return it->second->answer;
}

void EvalService::CachePut(CacheKey key,
                           std::shared_ptr<const FeatureAnswer> answer) {
  if (options_.cache_capacity == 0) return;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    it->second->answer = std::move(answer);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(CacheEntry{key, std::move(answer)});
  cache_.emplace(std::move(key), lru_.begin());
  while (cache_.size() > options_.cache_capacity) {
    cache_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.cache_evictions;
  }
}

bool EvalService::ResolveMissesSharded(std::vector<Miss>& misses,
                                       const Database& db,
                                       const std::vector<Value>& entities) {
  // One job directory per batch, unique to this process and call so two
  // coordinators can never entangle lifecycles (the shared disk cache is
  // where cross-process reuse happens; the job dir is scratch).
  static std::atomic<std::uint64_t> job_counter{0};
  std::vector<std::string> feature_strings;
  feature_strings.reserve(misses.size());
  std::uint64_t job_key = Fnv1a64U64(kFnv64OffsetBasis, db.ContentDigest());
  for (const Miss& miss : misses) {
    feature_strings.push_back(miss.key.second);
    job_key = Fnv1a64String(job_key, miss.key.second);
  }
  job_key = Fnv1a64U64(job_key, job_counter.fetch_add(1));
#ifndef _WIN32
  job_key = Fnv1a64U64(job_key, static_cast<std::uint64_t>(::getpid()));
#endif
  const std::string job_dir =
      (std::filesystem::path(options_.shard_dir) /
       ("job-" + wire::DigestHex(job_key)))
          .string();

  FsEnv* env = options_.fs_env.get();
  Result<std::size_t> published =
      PublishShardJob(job_dir, db, feature_strings,
                      std::max<std::size_t>(1, options_.entity_block),
                      options_.cache_dir, env);
  if (!published.ok()) return false;

  ShardJob job;
  job.db = &db;
  job.env = env;
  job.retry = DurableRetryPolicy(options_);
  for (const Miss& miss : misses) {
    job.features.push_back(miss.evaluator->query());
  }
  job.feature_strings = std::move(feature_strings);
  job.digest = db.ContentDigest();
  job.entity_block = std::max<std::size_t>(1, options_.entity_block);
  job.cache_dir = options_.cache_dir;
  job.entities = entities;

  ShardCoordinatorOptions coordinator;
  coordinator.lease = kShardLease;
  Result<ShardMergeResult> merged =
      CoordinateShardJob(job_dir, job, coordinator);
  if (!merged.ok()) return false;
  for (std::size_t m = 0; m < misses.size(); ++m) {
    misses[m].flags = std::move(merged.value().flags[m]);
  }
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    ++stats_.shard_jobs;
    stats_.local_shards += merged.value().local_shards;
    stats_.remote_shards += merged.value().remote_shards;
    stats_.reclaimed_leases += merged.value().reclaimed_leases;
    stats_.quarantined_shards += merged.value().quarantined_shards;
    stats_.shard_corrupt_results += merged.value().corrupt_results;
    const ShardIoStats& io = merged.value().io;
    stats_.shard_claim_races += io.claim_races;
    stats_.shard_claim_errors += io.claim_errors;
    stats_.shard_requeue_failures += io.requeue_failures;
    stats_.shard_io_retries += io.io_retries;
    stats_.shard_io_give_ups += io.io_give_ups;
  }
  // The job directory is scratch; reclaim the space once merged. Workers
  // see the done marker vanish with the directory and move on.
  std::error_code ec;
  std::filesystem::remove_all(job_dir, ec);
  return true;
}

std::vector<std::shared_ptr<const FeatureAnswer>> EvalService::Resolve(
    const std::vector<ConjunctiveQuery>& features, const Database& db,
    ExecutionBudget* budget) {
  const bool use_cache = options_.cache_capacity > 0;
  std::vector<std::shared_ptr<const FeatureAnswer>> answers(features.size());

  // A budget already expired/cancelled at entry: the request is abandoned
  // before any cache or kernel work; every answer is "incomplete".
  if (!RecheckBudget(budget)) return answers;
  const std::uint64_t digest = db.ContentDigest();

  // Cache pass: in-memory LRU first, then read-through to the disk tier.
  // Batch-internal duplicates (identical canonical strings) alias one
  // evaluation slot so each distinct feature runs at most once.
  std::vector<Miss> misses;
  std::vector<std::size_t> alias(features.size(), 0);
  std::unordered_map<CacheKey, std::size_t, CacheKeyHash> miss_of_key;
  for (std::size_t i = 0; i < features.size(); ++i) {
    CacheKey key{digest, features[i].ToString()};
    if (use_cache) {
      answers[i] = CacheGet(key);
      if (answers[i] != nullptr) continue;
    }
    if (disk_ != nullptr && miss_of_key.count(key) == 0 && DiskTierAllowed()) {
      DiskLoadResult loaded = disk_->LoadEntry(digest, key.second);
      NoteDiskResult(!loaded.io_error());
      if (loaded.hit()) {
        auto answer = std::make_shared<const FeatureAnswer>(
            std::unordered_set<std::string>(loaded.selected.begin(),
                                            loaded.selected.end()));
        CachePut(key, answer);
        answers[i] = std::move(answer);
        continue;
      }
    }
    auto [it, inserted] = miss_of_key.try_emplace(key, misses.size());
    alias[i] = it->second;
    if (inserted) {
      {
        // A key whose previous evaluation was aborted is being retried.
        std::lock_guard<std::mutex> lock(cache_mutex_);
        auto aborted = aborted_keys_.find(key);
        if (aborted != aborted_keys_.end()) {
          ++stats_.evaluation_retries;
          aborted_keys_.erase(aborted);
        }
      }
      misses.push_back(Miss{i, std::move(key), nullptr, {}});
    }
  }
  if (misses.empty()) return answers;

  // Sharded evaluation of the misses: (feature × entity-block) work items
  // on the shared pool — or, in shard-dir mode, published to the
  // file-based shard protocol. Each item writes disjoint flag slots, so the
  // result is bit-identical for every shard count and worker mix.
  const std::vector<Value> entities = db.Entities();
  const std::size_t block = std::max<std::size_t>(1, options_.entity_block);
  const std::size_t blocks_per_feature = (entities.size() + block - 1) / block;
  for (Miss& miss : misses) {
    miss.evaluator =
        std::make_unique<CqEvaluator>(features[miss.feature_index]);
    miss.flags.assign(entities.size(), 0);
  }
  // Per-miss "this feature's answer is incomplete" flags: several shards of
  // one feature may trip concurrently. C++20 value-initializes the atomics.
  std::vector<std::atomic<bool>> incomplete(misses.size());
  std::atomic<std::uint64_t> cancelled{0};
  // Budgeted requests stay in-process: a deadline cannot cancel work that
  // other processes already claimed, and an aborted shard must never leak
  // into the durable tiers.
  const bool sharded = !options_.shard_dir.empty() && budget == nullptr &&
                       ResolveMissesSharded(misses, db, entities);
  if (!sharded) {
    ParallelFor(
        options_.num_shards, misses.size() * blocks_per_feature,
        [&](std::size_t task) {
          const std::size_t m = task / blocks_per_feature;
          Miss& miss = misses[m];
          // Queued shards of an abandoned request bail at dispatch — this is
          // what bounds cancellation latency to one in-flight kernel step per
          // worker.
          if (budget != nullptr && budget->Interrupted()) {
            incomplete[m].store(true, std::memory_order_relaxed);
            cancelled.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          std::size_t begin = (task % blocks_per_feature) * block;
          std::size_t end = std::min(begin + block, entities.size());
          CqEvaluator::Binding binding = miss.evaluator->Bind(db);
          for (std::size_t e = begin; e < end; ++e) {
            std::optional<bool> selects =
                binding.TrySelectsEntity(entities[e], budget);
            if (!selects.has_value()) {
              incomplete[m].store(true, std::memory_order_relaxed);
              cancelled.fetch_add(1, std::memory_order_relaxed);
              return;
            }
            miss.flags[e] = *selects ? 1 : 0;
          }
        });
  }

  std::uint64_t evaluated = 0;
  for (std::size_t m = 0; m < misses.size(); ++m) {
    Miss& miss = misses[m];
    if (incomplete[m].load(std::memory_order_relaxed)) {
      // Aborted: the flags are partial, so the answer must NEVER reach the
      // cache — in memory or on disk. Remember the key so a later
      // re-request counts as a retry.
      std::lock_guard<std::mutex> lock(cache_mutex_);
      aborted_keys_.insert(miss.key);
      continue;  // answers[miss.feature_index] stays nullptr.
    }
    std::unordered_set<std::string> selected;
    for (std::size_t e = 0; e < entities.size(); ++e) {
      if (miss.flags[e] != 0) selected.insert(db.value_name(entities[e]));
    }
    auto answer = std::make_shared<const FeatureAnswer>(std::move(selected));
    CachePut(miss.key, answer);
    answers[miss.feature_index] = std::move(answer);
    ++evaluated;
  }
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    stats_.features_evaluated += evaluated;
    stats_.entity_evaluations += evaluated * entities.size();
    stats_.cancelled_shards += cancelled.load(std::memory_order_relaxed);
  }
  // Fill the aliased (and, with the cache disabled, repeated) slots; slots
  // aliasing an aborted miss stay nullptr.
  for (std::size_t i = 0; i < features.size(); ++i) {
    if (answers[i] == nullptr) {
      answers[i] = answers[misses[alias[i]].feature_index];
    }
  }
  // Write-behind to the durable tier, after the in-memory cache and the
  // response slots are already populated. Only complete, definitive
  // answers reach this point — aborted evaluations bailed out above.
  if (disk_ != nullptr) {
    for (std::size_t m = 0; m < misses.size(); ++m) {
      if (incomplete[m].load(std::memory_order_relaxed)) continue;
      // An open breaker skips write-behind entirely: the answer is already
      // in memory and in the response; only durability across restarts is
      // deferred until the disk recovers.
      if (!DiskTierAllowed()) continue;
      const Miss& miss = misses[m];
      std::vector<std::string> names;
      for (std::size_t e = 0; e < entities.size(); ++e) {
        if (miss.flags[e] != 0) names.push_back(db.value_name(entities[e]));
      }
      NoteDiskResult(disk_->Store(digest, miss.key.second, std::move(names)));
    }
  }
  return answers;
}

std::vector<std::shared_ptr<const FeatureAnswer>> EvalService::TryResolve(
    const std::vector<ConjunctiveQuery>& features, const Database& db,
    ExecutionBudget* budget) {
  return Resolve(features, db, budget);
}

std::vector<FeatureVector> EvalService::Matrix(
    const std::vector<ConjunctiveQuery>& features, const Database& db) {
  std::vector<std::shared_ptr<const FeatureAnswer>> answers =
      Resolve(features, db, nullptr);
  const std::vector<Value> entities = db.Entities();
  std::vector<FeatureVector> matrix(entities.size());
  for (std::size_t e = 0; e < entities.size(); ++e) {
    matrix[e].reserve(features.size());
    for (const auto& answer : answers) {
      matrix[e].push_back(answer->Selects(db, entities[e]) ? 1 : -1);
    }
  }
  return matrix;
}

FeatureVector EvalService::Vector(
    const std::vector<ConjunctiveQuery>& features, const Database& db,
    Value entity) {
  // Answers are computed over η(D), so the probe must be an entity (the
  // unserved Statistic::Vector accepts arbitrary values; the service's
  // statistic contract is Π^D(e) for e ∈ η(D)).
  FEATSEP_CHECK(db.IsEntity(entity))
      << "EvalService::Vector probe is not an entity";
  std::vector<std::shared_ptr<const FeatureAnswer>> answers =
      Resolve(features, db, nullptr);
  FeatureVector vector;
  vector.reserve(features.size());
  for (const auto& answer : answers) {
    vector.push_back(answer->Selects(db, entity) ? 1 : -1);
  }
  return vector;
}

ServeStats EvalService::stats() const {
  ServeStats stats;
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    stats = stats_;
  }
  if (disk_ != nullptr) {
    DiskCacheStats disk = disk_->stats();
    stats.disk_hits = disk.hits;
    stats.disk_misses = disk.misses;
    stats.disk_writes = disk.writes;
    stats.disk_drops =
        disk.corrupt_dropped + disk.version_dropped + disk.key_mismatch_dropped;
    stats.disk_io_errors = disk.io_errors;
    stats.disk_retries = disk.load_retries + disk.store_retries;
    stats.disk_give_ups = disk.io_errors + disk.write_failures;
  }
  {
    std::lock_guard<std::mutex> lock(breaker_mutex_);
    stats.breaker_trips = breaker_trips_;
    stats.breaker_probes = breaker_probes_;
    stats.breaker_closes = breaker_closes_;
    stats.breaker_short_circuits = breaker_short_circuits_;
  }
  return stats;
}

std::size_t EvalService::cache_size() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return cache_.size();
}

void EvalService::ClearCache() {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  cache_.clear();
  lru_.clear();
  aborted_keys_.clear();
}

std::shared_ptr<const FeatureAnswer> EvalService::PeekCached(
    std::uint64_t digest, const std::string& feature) {
  CacheKey key{digest, feature};
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second->answer;
  }
  if (disk_ != nullptr && DiskTierAllowed()) {
    DiskLoadResult loaded = disk_->LoadEntry(digest, feature);
    NoteDiskResult(!loaded.io_error());
    if (loaded.hit()) {
      return std::make_shared<const FeatureAnswer>(
          std::unordered_set<std::string>(loaded.selected.begin(),
                                          loaded.selected.end()));
    }
  }
  return nullptr;
}

void EvalService::Republish(std::uint64_t old_digest, std::uint64_t new_digest,
                            const std::string& feature,
                            std::shared_ptr<const FeatureAnswer> answer) {
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    CacheKey old_key{old_digest, feature};
    auto it = cache_.find(old_key);
    if (it != cache_.end()) {
      lru_.erase(it->second);
      cache_.erase(it);
    }
    aborted_keys_.erase(old_key);
  }
  CachePut(CacheKey{new_digest, feature}, answer);
  if (disk_ != nullptr && DiskTierAllowed()) {
    // A failed remove only leaves a stale-digest file behind: entries are
    // content-addressed, so it can never be served under the new digest —
    // counted by the cache as a remove_failure, not breaker evidence.
    disk_->Remove(old_digest, feature);
    NoteDiskResult(
        disk_->Store(new_digest, feature,
                     std::vector<std::string>(answer->names().begin(),
                                              answer->names().end())));
  }
}

}  // namespace serve
}  // namespace featsep
