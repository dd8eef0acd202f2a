#ifndef FEATSEP_TESTING_FUZZ_H_
#define FEATSEP_TESTING_FUZZ_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace featsep {

class ExecutionBudget;

namespace testing {

/// Differential fuzz loop: generate a random instance, run the matching
/// property driver (properties.h), and greedily shrink any instance the
/// driver rejects. Deterministic: iteration i uses instance seed
/// `FuzzInstanceSeed(options.seed, i)`, so every failure prints a
/// `--seed S --iters 1` command that regenerates the identical instance.
///
/// Two search modes share the loop:
///   - blind: every iteration generates a fresh instance from its seed;
///   - coverage-guided (corpus_dir set or mutate on): the instrumented
///     kernels (coverage.h) are bracketed around each check, instances
///     whose edge signature adds to the accumulated CoverageMap are
///     minimized and admitted to the corpus, and most iterations mutate a
///     corpus entry (mutate.h) picked with energy proportional to how rare
///     its edges are, instead of generating from scratch.

enum class FuzzConfig {
  kHom,          ///< FindHomomorphism vs reference (+ composition closure).
  kEval,         ///< CqEvaluator / DecomposedEvaluator vs reference.
  kContainment,  ///< IsContainedIn vs canonical-database criterion.
  kCore,         ///< CoreOf laws + MinimizeCq oracle laws.
  kGhw,          ///< GHW witness/monotonicity laws.
  kSep,          ///< DecideCqSep determinism + Theorem 3.2 oracle.
  kQbe,          ///< QBE solver laws (thread determinism, screening,
                 ///< SolveCqmQbe agreement across thread counts).
  kCoverGame,    ///< Existential k-cover game metamorphic laws.
  kDimension,    ///< Sep[ℓ] monotonicity + Theorem 3.2 agreement + witness.
  kLinsep,       ///< Simplex / separability LP vs Fourier–Motzkin reference.
  kFaults,       ///< Injected cancellation/timeout/OOM never poisons a cache
                 ///< or changes an answer (CheckFaultInjectionProperties).
  kServe,        ///< Async front-end interleavings vs the serial path.
  kIncremental,  ///< Insert/remove/relabel traces vs full recompute.
  kCrashIo,      ///< Durable tier under filesystem faults and crashes.
  kMixed,        ///< Per-iteration uniform choice among the configs whose
                 ///< table row sets `mixed` (FuzzConfigSpec, instance.h).
};

/// Names and the config list come from the config table (instance.h). The
/// generation stream is seeded with config + 1, so configs never move and
/// new ones go before kMixed.
const char* FuzzConfigName(FuzzConfig config);
std::optional<FuzzConfig> ParseFuzzConfig(std::string_view name);
/// Every concrete config (kMixed excluded), in table order.
std::vector<FuzzConfig> AllFuzzConfigs();

/// The seed of iteration i of a run on `seed`: instance 0 runs on `seed`
/// (so `--seed <instance_seed> --iters 1` replays it), later ones step by
/// the 64-bit golden ratio, wrapping, so nearby run seeds share no instance.
constexpr std::uint64_t FuzzInstanceSeed(std::uint64_t seed, std::size_t i) {
  return seed + static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL;
}

struct FuzzOptions {
  std::uint64_t seed = 1;
  std::size_t iterations = 100;
  FuzzConfig config = FuzzConfig::kMixed;
  /// Greedily minimize failing instances before reporting.
  bool shrink = true;
  /// Corpus directory: entries are loaded (and replayed) up front and new
  /// coverage-earning inputs are persisted back. Empty: in-memory corpus
  /// only (still coverage-guided when `mutate` is set).
  std::string corpus_dir;
  /// Mutate corpus entries instead of always generating fresh instances.
  /// Implied on when corpus_dir is set.
  bool mutate = false;
  /// Collect per-edge statistics into FuzzReport::coverage_lines.
  bool coverage_stats = false;
  /// Replay-only mode: check exactly these serialized instances (no
  /// generation, no mutation). Used by the corpus regression test.
  std::vector<std::string> replay_paths;
  /// Cooperative budget on the whole run (nullptr = unbounded): checked
  /// between iterations and between corpus-replay entries, so a caller can
  /// deadline or cancel a long campaign; the in-flight property check
  /// finishes first (individual checks are not budget-threaded — they time
  /// the engines' own budget handling).
  ExecutionBudget* budget = nullptr;
};

struct FuzzFailure {
  std::size_t iteration = 0;
  /// Reproduce with `featsep_fuzz --config <config> --seed <instance_seed>
  /// --iters 1` (also spelled out in `reproduce`). Zero for failures found
  /// by mutation or replay, which reproduce from a serialized file instead.
  std::uint64_t instance_seed = 0;
  std::string config;
  std::string property;
  /// Discrepancy on the instance as generated.
  std::string detail;
  /// Discrepancy restated on the shrunk instance (empty when !shrink).
  std::string shrunk;
  std::string reproduce;
};

struct FuzzReport {
  std::size_t iterations = 0;
  std::vector<FuzzFailure> failures;
  /// Coverage-guided runs: corpus size after the run, how many entries this
  /// run added, and the number of distinct (site, bucket) edges seen.
  std::size_t corpus_size = 0;
  std::size_t corpus_added = 0;
  std::size_t coverage_edges = 0;
  /// "edge-name count" lines when FuzzOptions::coverage_stats is set.
  std::vector<std::string> coverage_lines;
  bool ok() const { return failures.empty(); }
};

/// Runs the loop. When `progress` is non-null, failures are streamed to it
/// as they are found (the report carries them regardless).
FuzzReport RunFuzz(const FuzzOptions& options, std::ostream* progress = nullptr);

}  // namespace testing
}  // namespace featsep

#endif  // FEATSEP_TESTING_FUZZ_H_
