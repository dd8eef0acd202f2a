#include "testing/fuzz.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "testing/corpus.h"
#include "testing/coverage.h"
#include "testing/instance.h"
#include "testing/mutate.h"
#include "util/budget.h"
#include "util/check.h"
#include "workload/generators.h"

namespace featsep {
namespace testing {

namespace {

std::string Reproduce(FuzzConfig config, std::uint64_t instance_seed) {
  std::ostringstream out;
  out << "featsep_fuzz --config " << FuzzConfigName(config) << " --seed "
      << instance_seed << " --iters 1";
  return out.str();
}

std::string ReproduceReplay(const std::string& path) {
  return "featsep_fuzz --replay " + path;
}

constexpr std::size_t kEdgeSpace =
    coverage_internal::kNumCoverageSites *
    coverage_internal::kBucketsPerSite;

/// Shared state of one coverage-guided run.
struct Scheduler {
  CoverageMap map;
  /// Inputs (not probe hits) that produced each edge; the energy
  /// denominator.
  std::vector<std::uint64_t> edge_freq = std::vector<std::uint64_t>(
      kEdgeSpace, 0);
  /// The edges each corpus entry produced when admitted or loaded.
  std::vector<std::vector<CoverageEdge>> entry_edges;

  void Observe(const std::vector<CoverageEdge>& edges) {
    for (CoverageEdge edge : edges) ++edge_freq[edge];
  }

  /// Energy-weighted corpus pick: an entry's weight is the summed rarity
  /// (1 / input frequency) of its edges, so inputs reaching rare behavior
  /// get mutated more.
  std::size_t PickEntry(const std::vector<std::size_t>& pool,
                        WorkloadRng& rng) const {
    FEATSEP_CHECK(!pool.empty());
    std::vector<double> weights;
    double total = 0;
    for (std::size_t index : pool) {
      double weight = 1e-6;
      for (CoverageEdge edge : entry_edges[index]) {
        weight += 1.0 / static_cast<double>(
                            std::max<std::uint64_t>(edge_freq[edge], 1));
      }
      weights.push_back(weight);
      total += weight;
    }
    double target = rng.Uniform() * total;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      target -= weights[i];
      if (target <= 0) return pool[i];
    }
    return pool.back();
  }
};

/// Runs the property check with the coverage probes bracketed around it
/// (when wanted) and returns the violation plus the input's edge set.
std::pair<PropertyCheck, std::vector<CoverageEdge>> CheckWithCoverage(
    const FuzzInstance& instance, bool want_coverage) {
  if (!want_coverage) return {CheckFuzzInstance(instance), {}};
  ResetCoverage();
  SetCoverageEnabled(true);
  PropertyCheck violation = CheckFuzzInstance(instance);
  SetCoverageEnabled(false);
  return {std::move(violation), CoverageEdges(SnapshotCoverage())};
}

/// Shrinks a failing instance (coverage off — only the failure matters)
/// and restates the discrepancy on the result.
std::pair<FuzzInstance, std::string> ShrinkFailure(FuzzInstance instance) {
  FuzzInstance shrunk = ShrinkFuzzInstance(
      std::move(instance), [](const FuzzInstance& candidate) {
        return CheckFuzzInstance(candidate).has_value();
      });
  PropertyCheck again = CheckFuzzInstance(shrunk);
  std::string report;
  if (again.has_value()) report = again->detail;
  return {std::move(shrunk), std::move(report)};
}

void StreamFailure(const FuzzFailure& failure, std::ostream* progress) {
  if (progress == nullptr) return;
  *progress << "FAIL [" << failure.config << "/" << failure.property
            << "] iteration " << failure.iteration << "\n"
            << failure.detail << "\n";
  if (!failure.shrunk.empty()) {
    *progress << "shrunk counterexample:\n" << failure.shrunk << "\n";
  }
  *progress << "reproduce: " << failure.reproduce << "\n";
}

FuzzReport RunReplay(const FuzzOptions& options, std::ostream* progress) {
  FuzzReport report;
  for (const std::string& path : options.replay_paths) {
    if (!RecheckBudget(options.budget)) break;
    ++report.iterations;
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    FuzzFailure failure;
    failure.iteration = report.iterations - 1;
    failure.reproduce = ReproduceReplay(path);
    Result<FuzzInstance> instance = DeserializeFuzzInstance(text.str());
    if (!instance.ok()) {
      const bool unreadable = !in.good() && text.str().empty();
      failure.config = "replay";
      failure.property =
          unreadable ? "corpus/unreadable" : "corpus/unparseable";
      failure.detail = unreadable
                           ? "cannot read " + path
                           : path + ": " + instance.error().message();
      StreamFailure(failure, progress);
      report.failures.push_back(std::move(failure));
      continue;
    }
    auto [violation, edges] =
        CheckWithCoverage(instance.value(), options.coverage_stats);
    if (!violation.has_value()) continue;
    failure.config = FuzzConfigName(instance.value().config);
    failure.property = violation->property;
    failure.detail = violation->detail;
    if (options.shrink) {
      failure.shrunk = ShrinkFailure(std::move(instance.value())).second;
    }
    StreamFailure(failure, progress);
    report.failures.push_back(std::move(failure));
  }
  return report;
}

}  // namespace

FuzzReport RunFuzz(const FuzzOptions& options, std::ostream* progress) {
  if (!options.replay_paths.empty()) return RunReplay(options, progress);

  FuzzReport report;
  const bool guided = options.mutate || !options.corpus_dir.empty();
  const bool want_coverage = guided || options.coverage_stats;
  Scheduler scheduler;
  Corpus corpus(options.corpus_dir);
  /// Corpus indexes eligible for mutation under the requested config.
  std::vector<std::size_t> pool;
  /// Scheduler decisions (fresh-vs-mutate, entry picks, mutations) draw
  /// from their own stream so fresh-instance generation stays a pure
  /// function of (config, FuzzInstanceSeed(options.seed, i)).
  WorkloadRng scheduler_rng(options.seed ^ 0xc0ffee5eedf00dULL);

  auto admissible = [&](const FuzzInstance& instance) {
    return options.config == FuzzConfig::kMixed ||
           instance.config == options.config;
  };

  if (guided) {
    std::vector<std::string> load_errors;
    corpus.Load(&load_errors);
    if (progress != nullptr) {
      for (const std::string& error : load_errors) {
        *progress << "corpus: skipping " << error << "\n";
      }
    }
    // Seed coverage by replaying the corpus; a regressed entry is a
    // failure, reproducible straight from its file.
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      if (!RecheckBudget(options.budget)) break;
      auto [violation, edges] =
          CheckWithCoverage(corpus.instance(i), /*want_coverage=*/true);
      scheduler.map.MergeNew(SnapshotCoverage());
      scheduler.Observe(edges);
      scheduler.entry_edges.push_back(std::move(edges));
      if (admissible(corpus.instance(i))) pool.push_back(i);
      if (violation.has_value()) {
        FuzzFailure failure;
        failure.config = FuzzConfigName(corpus.instance(i).config);
        failure.property = violation->property;
        failure.detail = violation->detail;
        failure.reproduce = corpus.path(i).empty()
                                ? "corpus entry " + std::to_string(i)
                                : ReproduceReplay(corpus.path(i));
        StreamFailure(failure, progress);
        report.failures.push_back(std::move(failure));
      }
    }
  }

  for (std::size_t i = 0; i < options.iterations; ++i) {
    if (!RecheckBudget(options.budget)) break;
    std::uint64_t instance_seed = FuzzInstanceSeed(options.seed, i);
    bool mutated = guided && !pool.empty() && !scheduler_rng.Chance(0.3);
    FuzzInstance instance =
        mutated
            ? MutateFuzzInstance(
                  corpus.instance(scheduler.PickEntry(pool, scheduler_rng)),
                  scheduler_rng)
            : GenerateFuzzInstance(options.config, instance_seed);

    auto [violation, edges] = CheckWithCoverage(instance, want_coverage);
    CoverageSnapshot snapshot = want_coverage ? SnapshotCoverage()
                                              : CoverageSnapshot{};
    ++report.iterations;
    scheduler.Observe(edges);

    if (violation.has_value()) {
      FuzzFailure failure;
      failure.iteration = i;
      failure.config = FuzzConfigName(instance.config);
      failure.property = violation->property;
      failure.detail = violation->detail;
      FuzzInstance reported = instance;
      if (options.shrink) {
        auto [shrunk, shrunk_report] = ShrinkFailure(std::move(instance));
        failure.shrunk = std::move(shrunk_report);
        if (!failure.shrunk.empty()) reported = std::move(shrunk);
      }
      if (mutated) {
        // Mutation chains are not replayable from a seed; persist the
        // (shrunk) crasher next to the corpus instead.
        if (!options.corpus_dir.empty()) {
          Result<std::string> path = WriteFuzzInstanceFile(
              options.corpus_dir + "/crashes", reported);
          failure.reproduce = path.ok()
                                  ? ReproduceReplay(path.value())
                                  : "crash write failed: " +
                                        path.error().message();
        } else {
          failure.reproduce =
              "serialized crasher:\n" + SerializeFuzzInstance(reported);
        }
      } else {
        failure.instance_seed = instance_seed;
        failure.reproduce = Reproduce(reported.config, instance_seed);
      }
      StreamFailure(failure, progress);
      report.failures.push_back(std::move(failure));
      continue;
    }

    if (!want_coverage) continue;
    std::vector<CoverageEdge> fresh = scheduler.map.MergeNew(snapshot);
    if (!guided || fresh.empty()) continue;
    // New coverage: minimize while the instance still passes AND still
    // reaches every newly discovered edge, then admit to the corpus.
    FuzzInstance minimized = ShrinkFuzzInstance(
        std::move(instance), [&](const FuzzInstance& candidate) {
          auto [candidate_violation, candidate_edges] =
              CheckWithCoverage(candidate, /*want_coverage=*/true);
          return !candidate_violation.has_value() &&
                 std::includes(candidate_edges.begin(),
                               candidate_edges.end(), fresh.begin(),
                               fresh.end());
        });
    auto [final_violation, final_edges] =
        CheckWithCoverage(minimized, /*want_coverage=*/true);
    if (final_violation.has_value() ||
        !std::includes(final_edges.begin(), final_edges.end(),
                       fresh.begin(), fresh.end())) {
      // Nondeterministic coverage (parallel sweeps) pulled the edges out
      // from under the minimizer; keep the original admission candidate
      // out rather than corrupt the corpus.
      continue;
    }
    Result<std::size_t> index = corpus.Add(minimized);
    if (!index.ok()) {
      if (progress != nullptr) {
        *progress << "corpus: " << index.error().message() << "\n";
      }
      continue;
    }
    scheduler.entry_edges.push_back(final_edges);
    scheduler.Observe(final_edges);
    if (admissible(minimized)) pool.push_back(index.value());
    ++report.corpus_added;
  }

  report.corpus_size = corpus.size();
  report.coverage_edges = scheduler.map.num_edges();
  if (options.coverage_stats) {
    for (CoverageEdge edge = 0; edge < kEdgeSpace; ++edge) {
      if (scheduler.edge_freq[edge] == 0) continue;
      report.coverage_lines.push_back(
          CoverageEdgeName(edge) + " " +
          std::to_string(scheduler.edge_freq[edge]));
    }
  }
  return report;
}

}  // namespace testing
}  // namespace featsep
