// serve-zipf: an open loop. One generator thread sends requests to an
// AsyncEvalService on a seeded Poisson schedule at a fixed offered rate;
// each request names one database of a fixed pool, picked with Zipf-skewed
// popularity. Interactive requests ask for a small seeded subset of the
// CQ[2] bank, as a fitted model would, under a deadline equal to the
// latency limit; batch requests ask for the whole bank with no deadline.
// The disk tier starts pre-filled for the 48 most popular databases, as
// after a restart; the other 16 were never seen, and their rare first
// touches arrive through the whole run. With the LRU holding a third of the
// pre-filled answers, requests split across LRU hits, disk hits and a
// trickle of cold kernel misses. Two collector threads, one per priority
// class, wait on the handles; a single dispatcher evaluating serially keeps
// the load at four threads.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include <sys/prctl.h>

#include "core/statistic.h"
#include "cq/enumeration.h"
#include "serve/async_service.h"
#include "serve/disk_cache.h"
#include "serve/eval_service.h"
#include "workload/generators.h"
#include "workloads.h"

namespace featsep::perfbench {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kPoolSize = 64;
/// The most popular databases, whose answers are on disk at the start.
constexpr std::size_t kPrefilled = 48;
constexpr std::size_t kNodes = 32;
constexpr std::size_t kEdges = 64;
constexpr double kZipfExponent = 2.0;
constexpr double kOfferedRate = 400;  // Requests per second.
constexpr double kBatchShare = 0.15;
constexpr std::size_t kInteractiveFeatures = 6;
constexpr auto kLatencyLimit = std::chrono::milliseconds(500);
/// Set-up repetitions of the untraced run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Fixed tail percentiles, each inside one population of its latency
/// distribution: an interactive request is delayed in about 5% of cases
/// (behind a batch request or a cold miss), so its p99 measures those delays;
/// batch requests split into LRU-warm and disk-backed ones, and p95 lies
/// among the disk-backed.
constexpr double kTailPercentile = 99;
constexpr double kBatchTailPercentile = 95;
constexpr std::size_t kDiskLoadSamples = 300;
constexpr auto kSpinWindow = std::chrono::microseconds(100);

/// A random digraph over the graph schema with η on every other node.
std::shared_ptr<Database> MakeWorld(std::uint64_t seed) {
  auto db = std::make_shared<Database>(GraphWorkloadSchema());
  RelationId edge = db->schema().FindRelation("E");
  RelationId eta = db->schema().entity_relation();
  WorkloadRng rng(seed);
  std::vector<Value> nodes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    std::string name = "v";
    name += std::to_string(i);
    nodes.push_back(db->Intern(name));
  }
  std::size_t added = 0;
  for (std::size_t attempt = 0; added < kEdges && attempt < kEdges * 20;
       ++attempt) {
    Value a = nodes[rng.Below(kNodes)];
    Value b = nodes[rng.Below(kNodes)];
    if (a != b && db->AddFact(edge, {a, b})) ++added;
  }
  for (std::size_t i = 0; i < kNodes; i += 2) db->AddFact(eta, {nodes[i]});
  return db;
}

/// Sleeps until shortly before `due`, then spins, so that sends go out on
/// time instead of a timer slack late.
void WaitUntil(Clock::time_point due) {
  std::this_thread::sleep_until(due - kSpinWindow);
  while (Clock::now() < due) {
  }
}

struct Request {
  std::size_t db = 0;
  serve::RequestPriority priority = serve::RequestPriority::kInteractive;
  std::vector<std::size_t> feature_index;
  double due_ms = 0;  // Offset from the phase start.
};

struct Outcome {
  /// Copied out of the handle once terminal, so that the request itself
  /// (which holds its feature queries) can be freed.
  serve::RequestResult result;
  double latency_ms = 0;  // Terminal time minus due time.
  double late_ms = 0;     // How late the generator sent it.
  double submit_us = 0;
};

struct Phase {
  std::vector<Request> requests;  // The sent prefix of the schedule.
  std::vector<Outcome> outcomes;  // Parallel to requests.
  double seconds = 0;
  fs::path disk_dir;

  std::vector<double> Latencies(serve::RequestPriority priority) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (requests[i].priority == priority) {
        out.push_back(outcomes[i].latency_ms);
      }
    }
    return out;
  }
};

/// Waits on one priority class's handles in submission order. With one
/// dispatcher a class completes in that order, so each Wait returns as
/// soon as its request ends.
class Collector {
 public:
  Collector(std::vector<Outcome>* outcomes, Clock::time_point start)
      : outcomes_(outcomes), start_(start), thread_([this] { Loop(); }) {}

  ~Collector() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_one();
    thread_.join();
  }

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void Push(std::size_t index, double due_ms, serve::RequestHandle handle) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back({index, due_ms, std::move(handle)});
    }
    ready_.notify_one();
  }

 private:
  struct Item {
    std::size_t index = 0;
    double due_ms = 0;
    serve::RequestHandle handle;
  };

  void Loop() {
    for (;;) {
      Item item;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        ready_.wait(lock, [&] { return closed_ || !queue_.empty(); });
        if (queue_.empty()) return;
        item = std::move(queue_.front());
        queue_.pop_front();
      }
      Outcome& outcome = (*outcomes_)[item.index];
      {
        ScopedSpan span("serve.async.Wait", item.index + 1);
        item.handle.Wait();
      }
      outcome.latency_ms = MillisSince(start_) - item.due_ms;
      outcome.result = item.handle.Wait();
    }
  }

  std::vector<Outcome>* outcomes_;  // Pre-sized; this thread writes its slots.
  Clock::time_point start_;
  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<Item> queue_;  // Guarded by mutex_.
  bool closed_ = false;     // Guarded by mutex_.
  std::thread thread_;  // Declared last: it runs Loop over the members above.
};

class ServeZipf {
 public:
  explicit ServeZipf(const RunConfig& config) : config_(config) {
    bank_ = EnumerateFeatureQueries(GraphWorkloadSchema(), 2);
    bank_strings_.reserve(bank_.size());
    for (const ConjunctiveQuery& feature : bank_) {
      bank_strings_.push_back(feature.ToString());
    }
  }

  /// Builds the pool, the request schedule for `seconds`, a disk tier
  /// pre-filled for the most popular databases, and the service; returns
  /// the seconds spent, the pre-fill excepted: it stands for what an
  /// earlier process left on disk, and its file writes on shared storage
  /// would make set-up time swing from run to run.
  double Setup(double seconds, int generation) {
    service_.reset();
    std::error_code ec;
    if (!disk_dir_.empty()) fs::remove_all(disk_dir_, ec);
    disk_dir_ = config_.work_dir /
                ("serve-zipf-disk-" + std::to_string(generation));
    fs::remove_all(disk_dir_, ec);

    PhaseClock clock;
    clock.Resume();
    pool_.clear();
    for (std::size_t d = 0; d < kPoolSize; ++d) {
      pool_.push_back(MakeWorld(DeriveSeed(config_.seed, d)));
    }
    schedule_ = MakeSchedule(seconds);
    clock.Pause();
    PrefillDisk(disk_dir_);
    clock.Resume();
    serve::AsyncServeOptions options;
    options.serve = ServeOptionsFor(disk_dir_);
    options.num_dispatchers = 1;
    service_ = std::make_unique<serve::AsyncEvalService>(options);
    clock.Pause();
    return clock.seconds();
  }

  /// Sends the schedule on time and collects every request.
  Phase Run() {
    Phase phase;
    phase.disk_dir = disk_dir_;
    phase.outcomes.resize(schedule_.size());
    // The default 50 us timer slack would make every send late.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    Clock::time_point start = Clock::now();
    std::size_t sent = 0;
    {
      Collector interactive(&phase.outcomes, start);
      Collector batch(&phase.outcomes, start);
      for (; sent < schedule_.size(); ++sent) {
        const Request& request = schedule_[sent];
        std::vector<ConjunctiveQuery> features;
        features.reserve(request.feature_index.size());
        for (std::size_t f : request.feature_index) {
          features.push_back(bank_[f]);
        }
        Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            request.due_ms));
        WaitUntil(due);
        Outcome& outcome = phase.outcomes[sent];
        Clock::time_point send = Clock::now();
        outcome.late_ms = Millis(send - due);
        serve::SubmitOptions submit;
        submit.priority = request.priority;
        if (request.priority == serve::RequestPriority::kInteractive) {
          submit.timeout = kLatencyLimit;
        }
        serve::RequestHandle handle;
        {
          ScopedSpan span("serve.async.Submit", sent + 1);
          handle = service_->Submit(std::move(features), pool_[request.db],
                                    submit);
        }
        outcome.submit_us = MillisSince(send) * 1000.0;
        (request.priority == serve::RequestPriority::kInteractive
             ? interactive
             : batch)
            .Push(sent, request.due_ms, std::move(handle));
      }
    }  // The collectors drain and join here.
    phase.seconds = MillisSince(start) / 1000.0;
    phase.outcomes.resize(sent);
    phase.requests = std::move(schedule_);
    return phase;
  }

  /// Compares every completed answer with the oracle; counts failures.
  void Check(const Phase& phase, Report* report) {
    for (std::size_t i = 0; i < phase.outcomes.size(); ++i) {
      const Request& request = phase.requests[i];
      const serve::RequestResult& result = phase.outcomes[i].result;
      ++report->attempted;
      if (!result.complete()) {
        ++report->failed;  // Expired, rejected or cancelled: not wrong.
        continue;
      }
      const auto& expected = Oracle(request.db);
      for (std::size_t k = 0; k < request.feature_index.size(); ++k) {
        const auto& answer = result.answers[k];
        if (answer == nullptr ||
            answer->names() != expected[request.feature_index[k]]) {
          report->Wrong("serve-zipf: request " + std::to_string(i) +
                        " answer differs from the serial oracle");
          break;
        }
      }
    }
  }

  serve::AsyncEvalService& service() { return *service_; }
  const std::vector<std::shared_ptr<Database>>& pool() const { return pool_; }
  const std::vector<ConjunctiveQuery>& bank() const { return bank_; }
  const std::vector<std::string>& bank_strings() const {
    return bank_strings_;
  }

  /// The backend configuration, shared by the run and its replay.
  serve::ServeOptions ServeOptionsFor(const fs::path& disk_dir) const {
    serve::ServeOptions options;
    options.num_shards = 1;
    options.cache_capacity =
        config_.degrade == "nocache" ? 0 : kPrefilled * bank_.size() / 3;
    options.cache_dir = disk_dir.string();
    return options;
  }

  /// Writes the answers of the most popular databases to `disk_dir`, as a
  /// process that served them before a restart would have.
  void PrefillDisk(const fs::path& disk_dir) const {
    serve::ServeOptions options;
    options.num_shards = 1;
    options.cache_dir = disk_dir.string();
    serve::EvalService writer(options);
    for (std::size_t d = 0; d < kPrefilled; ++d) {
      writer.Matrix(bank_, *pool_[d]);
    }
  }

 private:
  /// The serial, uncached answer sets of database `d` of the pool, computed
  /// on first use, outside set-up and timing.
  const std::vector<std::unordered_set<std::string>>& Oracle(std::size_t d) {
    auto it = oracle_.find(d);
    if (it != oracle_.end()) return it->second;
    const Database& db = *pool_[d];
    std::vector<Value> entities = db.Entities();
    std::vector<FeatureVector> rows = Statistic(bank_).Matrix(db);
    std::vector<std::unordered_set<std::string>> answers(bank_.size());
    for (std::size_t e = 0; e < entities.size(); ++e) {
      for (std::size_t f = 0; f < bank_.size(); ++f) {
        if (rows[e][f] == 1) answers[f].insert(db.value_name(entities[e]));
      }
    }
    return oracle_.emplace(d, std::move(answers)).first->second;
  }

  std::vector<Request> MakeSchedule(double seconds) const {
    WorkloadRng rng(DeriveSeed(config_.seed, 0x5e4d));
    std::vector<double> cdf;
    double total = 0;
    for (std::size_t r = 1; r <= kPoolSize; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r), kZipfExponent);
      cdf.push_back(total);
    }
    std::vector<Request> schedule;
    double due_ms = 0;
    for (;;) {
      due_ms += -std::log(1.0 - rng.Uniform()) / kOfferedRate * 1000.0;
      if (due_ms >= seconds * 1000.0) break;
      Request request;
      request.due_ms = due_ms;
      const bool batch = rng.Chance(kBatchShare);
      // Batch jobs rescore the known part of the pool; interactive traffic
      // reaches the whole of it.
      double u = rng.Uniform() * (batch ? cdf[kPrefilled - 1] : total);
      request.db = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      request.db = std::min(request.db, kPoolSize - 1);
      if (batch) {
        request.priority = serve::RequestPriority::kBatch;
        for (std::size_t f = 0; f < bank_.size(); ++f) {
          request.feature_index.push_back(f);
        }
      } else {
        while (request.feature_index.size() < kInteractiveFeatures) {
          std::size_t f = rng.Below(bank_.size());
          if (std::find(request.feature_index.begin(),
                        request.feature_index.end(),
                        f) == request.feature_index.end()) {
            request.feature_index.push_back(f);
          }
        }
      }
      schedule.push_back(std::move(request));
    }
    return schedule;
  }

  RunConfig config_;
  std::vector<ConjunctiveQuery> bank_;
  std::vector<std::string> bank_strings_;
  std::unordered_map<std::size_t,
                     std::vector<std::unordered_set<std::string>>>
      oracle_;
  std::vector<std::shared_ptr<Database>> pool_;
  std::vector<Request> schedule_;
  fs::path disk_dir_;
  std::unique_ptr<serve::AsyncEvalService> service_;
};

void AddEndToEnd(const Phase& phase, Report* report) {
  AddLatency(report, "",
             phase.Latencies(serve::RequestPriority::kInteractive),
             kTailPercentile);
  AddLatency(report, "side_", phase.Latencies(serve::RequestPriority::kBatch),
             kBatchTailPercentile);
  std::size_t completed = 0;
  for (const Outcome& outcome : phase.outcomes) {
    if (outcome.result.complete()) ++completed;
  }
  report->Add("ops_per_s",
              phase.seconds > 0 ? completed / phase.seconds : 0, "1/s");
}

}  // namespace

Report MeasureServeZipf(const RunConfig& config) {
  ServeZipf workload(config);
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    setup_s.push_back(workload.Setup(config.seconds, r));
  }
  Phase phase = workload.Run();
  Report report;
  workload.Check(phase, &report);
  report.Add("setup_s", Median(setup_s), "s");
  AddEndToEnd(phase, &report);
  report.Note("side_* is batch-class requests; p50/tail are interactive");
  report.Note("disk_mb = " + std::to_string(DiskMb(phase.disk_dir)) +
              " MiB in the disk tier at the end of the run");
  return report;
}

Report TraceServeZipf(const RunConfig& config, std::vector<Span>* spans) {
  ServeZipf workload(config);
  Report report;
  SetTracing(false);
  workload.Setup(config.seconds / 2, 0);
  Phase untraced = workload.Run();
  workload.Check(untraced, &report);

  workload.Setup(config.seconds / 2, 1);
  SetTracing(true);
  Phase traced = workload.Run();
  serve::AsyncServeStats async_stats;
  serve::ServeStats stats;
  {
    ScopedSpan span("serve.async.stats");
    async_stats = workload.service().stats();
  }
  {
    ScopedSpan span("serve.eval.stats");
    stats = workload.service().backend().stats();
  }
  workload.Check(traced, &report);

  std::vector<double> submit_us, late_ms;
  for (const Outcome& outcome : traced.outcomes) {
    submit_us.push_back(outcome.submit_us);
    late_ms.push_back(outcome.late_ms);
  }
  report.Add("serve.async.submit_us", Median(submit_us), "us");
  std::size_t high_water = 0;
  std::uint64_t rejected = 0, expired = 0;
  for (const serve::RequestClassStats& cls : async_stats.classes) {
    high_water = std::max(high_water, cls.queue_high_water);
    rejected += cls.rejected;
    expired += cls.expired;
  }
  report.Add("serve.async.queue_high_water", static_cast<double>(high_water),
             "count");
  report.Add("serve.async.rejected", static_cast<double>(rejected), "count");
  report.Add("serve.async.expired", static_cast<double>(expired), "count");

  // Synchronous replay in dispatch order on an identically prepared
  // backend: a request's latency minus its own TryResolve time is the time
  // it spent queued and being dispatched.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < traced.outcomes.size(); ++i) {
    if (traced.outcomes[i].result.sequence > 0) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return traced.outcomes[a].result.sequence <
           traced.outcomes[b].result.sequence;
  });
  const fs::path replay_dir = config.work_dir / "serve-zipf-replay";
  std::error_code ec;
  fs::remove_all(replay_dir, ec);
  workload.PrefillDisk(replay_dir);
  std::vector<double> resolve_ms, outside_ms;
  {
    serve::EvalService replay(workload.ServeOptionsFor(replay_dir));
    for (std::size_t i : order) {
      const Request& request = traced.requests[i];
      std::vector<ConjunctiveQuery> features;
      for (std::size_t f : request.feature_index) {
        features.push_back(workload.bank()[f]);
      }
      Clock::time_point start = Clock::now();
      {
        ScopedSpan span("serve.eval.TryResolve", i + 1);
        replay.TryResolve(features, *workload.pool()[request.db], nullptr);
      }
      resolve_ms.push_back(MillisSince(start));
      outside_ms.push_back(traced.outcomes[i].latency_ms - resolve_ms.back());
    }
  }
  fs::remove_all(replay_dir, ec);
  AddP50AndTail(&report, "serve.async.outside_backend_ms", outside_ms, "ms");
  AddP50AndTail(&report, "serve.eval.resolve_ms", resolve_ms, "ms");

  const double lookups = static_cast<double>(stats.cache_hits +
                                             stats.cache_misses);
  report.Add("serve.eval.lru_hit_ratio",
             lookups > 0 ? stats.cache_hits / lookups : 0, "ratio");
  report.Add("serve.eval.evictions", static_cast<double>(stats.cache_evictions),
             "count");
  report.Add("serve.eval.cancelled_shards",
             static_cast<double>(stats.cancelled_shards), "count");
  report.Add("serve.eval.retries",
             static_cast<double>(stats.evaluation_retries), "count");
  report.Add("serve.disk.hits", static_cast<double>(stats.disk_hits), "count");
  report.Add("serve.disk.misses", static_cast<double>(stats.disk_misses),
             "count");
  report.Add("serve.disk.writes", static_cast<double>(stats.disk_writes),
             "count");
  report.Add("serve.disk.retries", static_cast<double>(stats.disk_retries),
             "count");
  report.Add("serve.disk.io_errors", static_cast<double>(stats.disk_io_errors),
             "count");
  report.Add("serve.disk.breaker_trips",
             static_cast<double>(stats.breaker_trips), "count");

  // Disk loads timed on the workload's own keys, straight on the tier.
  std::size_t entries = 0;
  const std::uint64_t bytes = DirectoryBytes(traced.disk_dir, &entries);
  std::vector<double> load_us;
  {
    serve::DiskResultCache disk(traced.disk_dir.string());
    WorkloadRng rng(DeriveSeed(config.seed, 0xd15c));
    for (std::size_t s = 0; s < kDiskLoadSamples; ++s) {
      const Request& request =
          traced.requests[rng.Below(traced.requests.size())];
      const Database& db = *workload.pool()[request.db];
      const std::string& feature =
          workload.bank_strings()[rng.Below(workload.bank().size())];
      Clock::time_point start = Clock::now();
      {
        ScopedSpan span("serve.disk.LoadEntry");
        disk.LoadEntry(db.ContentDigest(), feature);
      }
      load_us.push_back(MillisSince(start) * 1000.0);
    }
  }
  AddP50AndTail(&report, "serve.disk.load_us", load_us, "us");
  report.Add("serve.disk.bytes_per_entry",
             entries > 0 ? static_cast<double>(bytes) / entries : 0, "B");
  report.Add("serve.disk.dir_mb.serve-zipf", DiskMb(traced.disk_dir), "MiB");
  AddP50AndTail(&report, "bench.gen_late_ms", late_ms, "ms");
  AddTraceOverhead(
      &report, "serve-zipf",
      Median(untraced.Latencies(serve::RequestPriority::kInteractive)),
      Median(traced.Latencies(serve::RequestPriority::kInteractive)));
  SetTracing(false);
  std::vector<Span> recorded = DrainSpans();
  spans->insert(spans->end(), recorded.begin(), recorded.end());
  return report;
}

}  // namespace featsep::perfbench
