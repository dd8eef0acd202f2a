// Demo driver for the async serve front-end (serve/async_service.h): builds
// a random planted-feature graph world, enumerates the CQ[m] feature bank,
// and pushes a stream of mixed-priority requests with a deadline through an
// AsyncEvalService, then prints the request lifecycle counters and latency
// percentiles. A quick way to watch admission control, priority dispatch,
// and deadline expiry behave under load without running the full bench.
//
// Usage:
//   featsep_serve [--requests N] [--nodes N] [--m M] [--queue CAP]
//                 [--dispatchers N] [--shards N] [--deadline-ms D]
//                 [--batch-frac F] [--seed S] [--cache-dir DIR]
//                 [--require-warm-disk]
// A deadline of 0 means unbounded requests (nothing expires). Counts and
// the deadline are whole decimal numbers and F lies in [0, 1]; anything
// else exits 2 with the usage text.
//
// --cache-dir enables the persistent on-disk result tier (DESIGN.md §13):
// run the tool twice with the same directory and seed and the second
// process serves the whole feature bank from disk without re-running the
// kernel. --require-warm-disk turns that into an assertion (exit 1 unless
// at least one answer was served from the disk tier and nothing was
// kernel-evaluated that the cache already held) — the CI warm-restart
// smoke runs exactly that pair.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cq/enumeration.h"
#include "relational/training_database.h"
#include "serve/async_service.h"
#include "util/strings.h"
#include "workload/generators.h"

namespace {

void Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--requests N] [--nodes N] [--m M] [--queue CAP]\n"
               "       [--dispatchers N] [--shards N] [--deadline-ms D]\n"
               "       [--batch-frac F] [--seed S] [--cache-dir DIR]\n"
               "       [--require-warm-disk]\n";
}

[[noreturn]] void UsageError(const char* argv0, const std::string& message) {
  std::cerr << message << "\n";
  Usage(argv0);
  std::exit(2);
}

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  std::size_t index = static_cast<std::size_t>(p * (sorted.size() - 1));
  return sorted[index];
}

}  // namespace

int main(int argc, char** argv) {
  using featsep::serve::AsyncEvalService;
  using featsep::serve::AsyncServeOptions;
  using featsep::serve::RequestHandle;
  using featsep::serve::RequestPriority;
  using featsep::serve::SubmitOptions;
  using Clock = std::chrono::steady_clock;

  std::size_t requests = 200;
  std::size_t nodes = 30;
  std::size_t m = 1;
  double batch_frac = 0.5;
  std::uint64_t seed = 1;
  std::int64_t deadline_ms = 50;
  bool require_warm_disk = false;
  AsyncServeOptions options;

  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        UsageError(argv[0], "missing value for " + std::string(arg));
      }
      return argv[++i];
    };
    std::string_view text;  // The value being parsed.
    auto bad_value = [&] {
      UsageError(argv[0], "bad value for " + std::string(arg) + ": '" +
                              std::string(text) + "'");
    };
    // A whole decimal number: no trailing characters, no overflow, and no
    // sign for the unsigned counts.
    auto parse = [&](auto& value) {
      text = next();
      if (!featsep::ParseWhole(text, &value)) bad_value();
    };
    if (arg == "--requests") {
      parse(requests);
    } else if (arg == "--nodes") {
      parse(nodes);
    } else if (arg == "--m") {
      parse(m);
    } else if (arg == "--queue") {
      parse(options.queue_capacity);
    } else if (arg == "--dispatchers") {
      parse(options.num_dispatchers);
    } else if (arg == "--shards") {
      parse(options.serve.num_shards);
    } else if (arg == "--deadline-ms") {
      parse(deadline_ms);
      if (deadline_ms < 0) bad_value();
    } else if (arg == "--batch-frac") {
      parse(batch_frac);
      if (!(batch_frac >= 0.0 && batch_frac <= 1.0)) bad_value();
    } else if (arg == "--seed") {
      parse(seed);
    } else if (arg == "--cache-dir") {
      options.serve.cache_dir = next();
    } else if (arg == "--require-warm-disk") {
      require_warm_disk = true;
    } else {
      UsageError(argv[0], "unknown argument: " + std::string(arg));
    }
  }

  featsep::RandomGraphParams params;
  params.num_entities = std::max<std::size_t>(nodes / 3, 2);
  params.num_background_nodes = nodes;
  params.num_background_edges = nodes + nodes / 2;
  params.seed = seed;
  auto training = featsep::RandomPlantedGraph(params);
  std::shared_ptr<const featsep::Database> db = training->database_ptr();
  std::vector<featsep::ConjunctiveQuery> features =
      featsep::EnumerateFeatureQueries(featsep::GraphWorkloadSchema(), m);

  std::cout << "featsep_serve: " << requests << " requests, "
            << features.size() << " features (m=" << m << "), "
            << db->Entities().size() << " entities, queue="
            << options.queue_capacity << ", deadline=" << deadline_ms
            << "ms\n";

  AsyncEvalService service(options);
  featsep::WorkloadRng rng(seed ^ 0x5e57ebeefULL);
  std::vector<std::pair<RequestHandle, Clock::time_point>> in_flight;
  in_flight.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    SubmitOptions submit;
    submit.priority = rng.Chance(batch_frac) ? RequestPriority::kBatch
                                             : RequestPriority::kInteractive;
    if (deadline_ms > 0) {
      // Spread deadlines over [D/2, 3D/2] so some requests expire under
      // load while most complete.
      submit.timeout = std::chrono::milliseconds(
          deadline_ms / 2 + static_cast<std::int64_t>(rng.Below(
                                static_cast<std::size_t>(deadline_ms) + 1)));
    }
    in_flight.emplace_back(service.Submit(features, db, submit), Clock::now());
  }

  std::vector<double> latencies_ms;
  latencies_ms.reserve(in_flight.size());
  for (auto& [handle, submitted_at] : in_flight) {
    handle.Wait();
    latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - submitted_at)
            .count());
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());

  auto stats = service.stats();
  for (RequestPriority priority :
       {RequestPriority::kInteractive, RequestPriority::kBatch}) {
    const auto& cls = stats.of(priority);
    std::cout << "  " << featsep::serve::RequestPriorityName(priority)
              << ": submitted=" << cls.submitted
              << " accepted=" << cls.accepted << " rejected=" << cls.rejected
              << " completed=" << cls.completed << " expired=" << cls.expired
              << " cancelled=" << cls.cancelled
              << " queue_high_water=" << cls.queue_high_water << "\n";
  }
  auto backend = service.backend().stats();
  std::cout << "  backend: evaluated=" << backend.features_evaluated
            << " cache_hits=" << backend.cache_hits
            << " cancelled_shards=" << backend.cancelled_shards << "\n";
  if (!options.serve.cache_dir.empty()) {
    std::cout << "  disk: hits=" << backend.disk_hits
              << " misses=" << backend.disk_misses
              << " writes=" << backend.disk_writes
              << " drops=" << backend.disk_drops << "\n";
  }
  std::cout << "  wait-latency ms: p50=" << Percentile(latencies_ms, 0.5)
            << " p90=" << Percentile(latencies_ms, 0.9)
            << " p99=" << Percentile(latencies_ms, 0.99) << "\n";
  if (require_warm_disk) {
    // Warm-restart assertion for the two-process CI smoke: a second process
    // over the same cache directory must serve from the disk tier instead
    // of re-running the kernel.
    if (backend.disk_hits == 0) {
      std::cerr << "featsep_serve: --require-warm-disk but disk_hits=0\n";
      return 1;
    }
    if (backend.features_evaluated > 0) {
      std::cerr << "featsep_serve: --require-warm-disk but "
                << backend.features_evaluated << " features were re-run\n";
      return 1;
    }
  }
  return 0;
}
