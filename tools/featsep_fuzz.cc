// Differential fuzzer for the featsep engines.
//
// Loops generate -> check -> shrink over seeded random instances, comparing
// the optimized kernels against the naive reference oracle and metamorphic
// laws (see src/testing/). Every failure prints a `--seed S --iters 1`
// command line that regenerates the identical instance.
//
// With --corpus and/or --mutate the loop turns coverage-guided: the
// instrumented kernels (src/testing/coverage.h) are bracketed around every
// check, inputs producing new (site, hit-bucket) edges are minimized and
// admitted to the corpus, and most iterations mutate a corpus entry picked
// with energy proportional to how rare its edges are. Failures found by
// mutation are persisted under <corpus>/crashes/ and reproduce with
// --replay.
//
// Usage:
//   featsep_fuzz [--iters N] [--seed S] [--config NAME] [--no-shrink]
//                [--corpus DIR] [--mutate] [--coverage-stats]
//                [--replay FILE]...
// `--help` lists the config names. src/testing/fuzz.h says what each config
// checks; its row of the config table (src/testing/instance.cc) defines it.
// N and S are decimal counts; anything else exits 2 with the usage text.

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

#include "testing/fuzz.h"
#include "util/strings.h"

namespace {

using featsep::testing::FuzzConfig;
using featsep::testing::FuzzConfigName;

void Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--iters N] [--seed S] [--config NAME] [--no-shrink]\n"
               "       [--corpus DIR] [--mutate] [--coverage-stats] "
               "[--replay FILE]...\n"
               "configs:";
  for (FuzzConfig config : featsep::testing::AllFuzzConfigs()) {
    std::cerr << " " << FuzzConfigName(config);
  }
  std::cerr << " " << FuzzConfigName(FuzzConfig::kMixed) << " (default)\n";
}

[[noreturn]] void UsageError(const char* argv0, const std::string& message) {
  std::cerr << message << "\n";
  Usage(argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  featsep::testing::FuzzOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) UsageError(argv[0], "missing value for " + arg);
      return argv[++i];
    };
    // A whole decimal count: no sign, no trailing characters, no overflow.
    auto count = [&]() -> std::uint64_t {
      std::string_view text = next();
      std::uint64_t value = 0;
      if (featsep::ParseWhole(text, &value)) return value;
      UsageError(argv[0],
                 "bad value for " + arg + ": '" + std::string(text) + "'");
    };
    if (arg == "--iters") {
      options.iterations = count();
    } else if (arg == "--seed") {
      options.seed = count();
    } else if (arg == "--config") {
      const char* name = next();
      auto config = featsep::testing::ParseFuzzConfig(name);
      if (!config.has_value()) {
        UsageError(argv[0], "unknown config: " + std::string(name));
      }
      options.config = *config;
    } else if (arg == "--no-shrink") {
      options.shrink = false;
    } else if (arg == "--corpus") {
      options.corpus_dir = next();
    } else if (arg == "--mutate") {
      options.mutate = true;
    } else if (arg == "--coverage-stats") {
      options.coverage_stats = true;
    } else if (arg == "--replay") {
      options.replay_paths.emplace_back(next());
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      UsageError(argv[0], "unknown argument: " + arg);
    }
  }

  if (!options.replay_paths.empty()) {
    std::cout << "featsep_fuzz: replaying " << options.replay_paths.size()
              << " instance(s)" << (options.shrink ? "" : " (no shrink)")
              << std::endl;
  } else {
    std::cout << "featsep_fuzz: config="
              << FuzzConfigName(options.config)
              << " seed=" << options.seed << " iters=" << options.iterations
              << (options.mutate || !options.corpus_dir.empty()
                      ? " (coverage-guided)"
                      : "")
              << (options.corpus_dir.empty() ? ""
                                             : " corpus=" +
                                                   options.corpus_dir)
              << (options.shrink ? "" : " (no shrink)") << std::endl;
  }

  featsep::testing::FuzzReport report =
      featsep::testing::RunFuzz(options, &std::cerr);

  if (report.coverage_edges > 0 || report.corpus_size > 0) {
    std::cout << "coverage: " << report.coverage_edges
              << " edges; corpus: " << report.corpus_size << " entries (+"
              << report.corpus_added << " this run)" << std::endl;
  }
  for (const auto& line : report.coverage_lines) {
    std::cout << "  " << line << std::endl;
  }

  if (report.ok()) {
    std::cout << "OK: " << report.iterations
              << " iterations, no discrepancies" << std::endl;
    return 0;
  }
  std::cout << "FAILED: " << report.failures.size() << " discrepanc"
            << (report.failures.size() == 1 ? "y" : "ies") << " in "
            << report.iterations << " iterations" << std::endl;
  for (const auto& failure : report.failures) {
    std::cout << "  [" << failure.config << "/" << failure.property
              << "] reproduce: " << failure.reproduce << std::endl;
  }
  return 1;
}
