// Tests for the coverage-guided fuzzing engine: the coverage map
// (testing/coverage.h), the persistent corpus format (testing/corpus.h),
// the structure-aware mutators (testing/mutate.h), and the Fourier–Motzkin
// reference LP oracle (testing/reference_lp.h).

#include <cstdint>
#include <filesystem>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "linsep/separability_lp.h"
#include "linsep/simplex.h"
#include "testing/corpus.h"
#include "testing/coverage.h"
#include "testing/faults.h"
#include "testing/fuzz.h"
#include "testing/instance.h"
#include "testing/mutate.h"
#include "testing/reference_lp.h"
#include "workload/generators.h"

namespace featsep {
namespace {

using ::featsep::testing::CheckFuzzInstance;
using ::featsep::testing::AllFuzzConfigs;
using ::featsep::testing::Corpus;
using ::featsep::testing::CoverageBucket;
using ::featsep::testing::CoverageEdge;
using ::featsep::testing::CoverageEdgeName;
using ::featsep::testing::CoverageEdges;
using ::featsep::testing::CoverageMap;
using ::featsep::testing::CoverageSite;
using ::featsep::testing::CoverageSiteName;
using ::featsep::testing::CoverageSnapshot;
using ::featsep::testing::DeserializeFuzzInstance;
using ::featsep::testing::FaultKind;
using ::featsep::testing::FaultKindName;
using ::featsep::testing::FuzzConfig;
using ::featsep::testing::FuzzConfigName;
using ::featsep::testing::FuzzInstance;
using ::featsep::testing::FuzzInstanceSeed;
using ::featsep::testing::GenerateFuzzInstance;
using ::featsep::testing::MutateFuzzInstance;
using ::featsep::testing::PropertyCheck;
using ::featsep::testing::RefIsLinearlySeparable;
using ::featsep::testing::RefLpOutcome;
using ::featsep::testing::RefSolveLpValue;
using ::featsep::testing::ResetCoverage;
using ::featsep::testing::SerializeFuzzInstance;
using ::featsep::testing::SetCoverageEnabled;
using ::featsep::testing::SnapshotCoverage;

// ---------------------------------------------------------------------------
// Coverage probes and edge bookkeeping.

TEST(CoverageTest, DisabledProbesStayZero) {
  SetCoverageEnabled(false);
  ResetCoverage();
  // A hom instance drives the instrumented kernel; with coverage off the
  // counters must not move.
  FuzzInstance instance = GenerateFuzzInstance(FuzzConfig::kHom, 5);
  CheckFuzzInstance(instance);
  EXPECT_EQ(SnapshotCoverage().total(), 0u);
}

TEST(CoverageTest, EnabledProbesCount) {
  ResetCoverage();
  SetCoverageEnabled(true);
  FuzzInstance instance = GenerateFuzzInstance(FuzzConfig::kHom, 5);
  PropertyCheck check = CheckFuzzInstance(instance);
  SetCoverageEnabled(false);
  EXPECT_FALSE(check.has_value());
  CoverageSnapshot snapshot = SnapshotCoverage();
  EXPECT_GT(snapshot.total(), 0u);
  std::vector<CoverageEdge> edges = CoverageEdges(snapshot);
  EXPECT_FALSE(edges.empty());
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
  for (CoverageEdge edge : edges) {
    EXPECT_FALSE(CoverageEdgeName(edge).empty());
  }
  ResetCoverage();
  EXPECT_EQ(SnapshotCoverage().total(), 0u);
}

TEST(CoverageTest, BucketsSeparateShallowFromDeep) {
  EXPECT_EQ(CoverageBucket(1), 0u);
  EXPECT_EQ(CoverageBucket(2), 1u);
  EXPECT_EQ(CoverageBucket(3), 2u);
  EXPECT_EQ(CoverageBucket(4), 3u);
  EXPECT_EQ(CoverageBucket(7), 3u);
  EXPECT_EQ(CoverageBucket(8), 4u);
  EXPECT_EQ(CoverageBucket(1023), 10u);
  EXPECT_EQ(CoverageBucket(1024), 11u);
  EXPECT_EQ(CoverageBucket(1u << 20), 15u);
  // Monotone nondecreasing overall.
  std::size_t previous = 0;
  for (std::uint64_t count = 1; count < (1u << 16); ++count) {
    std::size_t bucket = CoverageBucket(count);
    EXPECT_GE(bucket, previous);
    previous = bucket;
  }
}

TEST(CoverageTest, MapAdmitsOnlyNewEdges) {
  CoverageMap map;
  CoverageSnapshot snapshot;
  snapshot.counts[0] = 1;
  snapshot.counts[3] = 100;
  std::vector<CoverageEdge> fresh = map.MergeNew(snapshot);
  EXPECT_EQ(fresh.size(), 2u);
  EXPECT_TRUE(map.Covers(fresh));
  EXPECT_EQ(map.num_edges(), 2u);
  // Identical signature: nothing new.
  EXPECT_TRUE(map.MergeNew(snapshot).empty());
  // Same site, different bucket: one new edge.
  snapshot.counts[0] = 2;
  EXPECT_EQ(map.MergeNew(snapshot).size(), 1u);
  EXPECT_EQ(map.num_edges(), 3u);
}

// ---------------------------------------------------------------------------
// Corpus serialization.

TEST(CorpusTest, SerializationReachesFixedPoint) {
  for (FuzzConfig config : AllFuzzConfigs()) {
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
      FuzzInstance generated = GenerateFuzzInstance(config, seed);
      std::string first = SerializeFuzzInstance(generated);
      auto reloaded = DeserializeFuzzInstance(first);
      ASSERT_TRUE(reloaded.ok())
          << first << "\n" << reloaded.error().message();
      // Isolated domain values (in no fact) do not survive a round trip, so
      // the first reserialization may differ; after that the text must be a
      // fixed point.
      std::string second = SerializeFuzzInstance(reloaded.value());
      auto again = DeserializeFuzzInstance(second);
      ASSERT_TRUE(again.ok()) << second << "\n" << again.error().message();
      EXPECT_EQ(second, SerializeFuzzInstance(again.value()))
          << FuzzConfigName(config) << " seed " << seed;
    }
  }
}

TEST(CorpusTest, ReloadedInstancesStillSatisfyProperties) {
  for (FuzzConfig config : AllFuzzConfigs()) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      FuzzInstance generated = GenerateFuzzInstance(config, seed);
      auto reloaded =
          DeserializeFuzzInstance(SerializeFuzzInstance(generated));
      ASSERT_TRUE(reloaded.ok());
      PropertyCheck check = CheckFuzzInstance(reloaded.value());
      EXPECT_FALSE(check.has_value())
          << check->property << ": " << check->detail;
    }
  }
}

TEST(CorpusTest, RejectsMalformedText) {
  EXPECT_FALSE(DeserializeFuzzInstance("").ok());
  EXPECT_FALSE(DeserializeFuzzInstance("hello world\n").ok());
  EXPECT_FALSE(DeserializeFuzzInstance("config nosuch\n").ok());
  // kMixed never names a concrete instance.
  EXPECT_FALSE(DeserializeFuzzInstance("config mixed\n").ok());
  // Value-referencing directives need their database first.
  EXPECT_FALSE(DeserializeFuzzInstance("config core\nfrozen v0\n").ok());
  EXPECT_FALSE(
      DeserializeFuzzInstance("config hom\n[db_a]\nrelation R 1\n").ok())
      << "unterminated database section must not parse";
}

// Fault lines name their site and kind, so adding or deleting a
// CoverageSite cannot silently retarget a saved entry at another site.
TEST(CorpusTest, FaultLinesRoundTripByName) {
  constexpr CoverageSite kFaultPointSites[] = {
      CoverageSite::kHomNode, CoverageSite::kHomBacktrack,
      CoverageSite::kGhwSubproblemSolved, CoverageSite::kCoverFixpointRound,
      CoverageSite::kSimplexPivot};
  FuzzInstance instance = GenerateFuzzInstance(FuzzConfig::kFaults, 0);
  for (CoverageSite site : kFaultPointSites) {
    for (FaultKind kind :
         {FaultKind::kCancel, FaultKind::kTimeout, FaultKind::kBadAlloc}) {
      instance.fault_site = static_cast<std::uint16_t>(site);
      instance.fault_kind = static_cast<std::uint8_t>(kind);
      instance.fault_visit = 7;
      std::string text = SerializeFuzzInstance(instance);
      std::string line = std::string("fault ") + CoverageSiteName(site) +
                         " " + FaultKindName(kind) + " 7\n";
      EXPECT_NE(text.find(line), std::string::npos) << text;
      auto reloaded = DeserializeFuzzInstance(text);
      ASSERT_TRUE(reloaded.ok()) << text << reloaded.error().message();
      EXPECT_EQ(reloaded.value().fault_site, instance.fault_site);
      EXPECT_EQ(reloaded.value().fault_kind, instance.fault_kind);
      EXPECT_EQ(reloaded.value().fault_visit, 7u);
    }
  }

  auto named =
      DeserializeFuzzInstance("config faults\n"
                              "fault covergame/fixpoint-round cancel 2\n");
  ASSERT_TRUE(named.ok()) << named.error().message();
  EXPECT_EQ(named.value().fault_site,
            static_cast<std::uint16_t>(CoverageSite::kCoverFixpointRound));
  EXPECT_EQ(named.value().fault_kind,
            static_cast<std::uint8_t>(FaultKind::kCancel));
  EXPECT_EQ(named.value().fault_visit, 2u);

  // Enum numbers and unknown names are rejected, not reinterpreted.
  EXPECT_FALSE(DeserializeFuzzInstance("config faults\nfault 24 0 2\n").ok());
  EXPECT_FALSE(
      DeserializeFuzzInstance("config faults\nfault hom/node 0 2\n").ok());
  EXPECT_FALSE(
      DeserializeFuzzInstance("config faults\nfault hom/nosuch cancel 2\n")
          .ok());
}

TEST(CorpusTest, PersistsAndReloadsFromDisk) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "featsep_corpus_test";
  std::filesystem::remove_all(dir);
  {
    Corpus corpus(dir.string());
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      auto added =
          corpus.Add(GenerateFuzzInstance(FuzzConfig::kCoverGame, seed));
      ASSERT_TRUE(added.ok()) << added.error().message();
      EXPECT_FALSE(corpus.path(added.value()).empty());
    }
    EXPECT_EQ(corpus.size(), 5u);
  }
  Corpus reloaded(dir.string());
  std::vector<std::string> errors;
  std::size_t loaded = reloaded.Load(&errors);
  EXPECT_TRUE(errors.empty()) << errors.front();
  // Distinct seeds may collapse to identical serializations (same content
  // hash, one file); every file that exists must load.
  EXPECT_GT(loaded, 0u);
  EXPECT_EQ(loaded, reloaded.size());
  for (std::size_t i = 0; i < reloaded.size(); ++i) {
    EXPECT_EQ(reloaded.instance(i).config, FuzzConfig::kCoverGame);
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Mutation.

TEST(MutateTest, DeterministicInRngState) {
  for (FuzzConfig config : AllFuzzConfigs()) {
    FuzzInstance base = GenerateFuzzInstance(config, 3);
    WorkloadRng rng1(17);
    WorkloadRng rng2(17);
    EXPECT_EQ(SerializeFuzzInstance(MutateFuzzInstance(base, rng1)),
              SerializeFuzzInstance(MutateFuzzInstance(base, rng2)));
  }
}

TEST(MutateTest, ChainsStaySanitizedAndLawful) {
  for (FuzzConfig config : AllFuzzConfigs()) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      FuzzInstance instance = GenerateFuzzInstance(config, seed);
      WorkloadRng rng(seed * 31 + 7);
      for (int round = 0; round < 6; ++round) {
        instance = MutateFuzzInstance(instance, rng);
        ASSERT_EQ(instance.config, config);
        // Every mutant must serialize, reload, and pass the property
        // drivers — the fuzzer's soundness depends on mutants being
        // lawful inputs, not just the generator's.
        auto reloaded =
            DeserializeFuzzInstance(SerializeFuzzInstance(instance));
        ASSERT_TRUE(reloaded.ok()) << reloaded.error().message();
        PropertyCheck check = CheckFuzzInstance(instance);
        EXPECT_FALSE(check.has_value())
            << check->property << ": " << check->detail;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Instance seeds.

TEST(FuzzSeedTest, NearbyRunSeedsShareNoInstance) {
  // Instance 0 is the run seed itself, so `--seed <instance_seed> --iters 1`
  // replays a reported failure.
  for (std::uint64_t seed : {0ULL, 1ULL, 2ULL, 404ULL, ~0ULL}) {
    EXPECT_EQ(FuzzInstanceSeed(seed, 0), seed);
  }
  // Runs on seeds 1 and 2 test disjoint instances.
  constexpr std::size_t kIterations = 10000;
  std::unordered_set<std::uint64_t> seed_one;
  for (std::size_t i = 0; i < kIterations; ++i) {
    seed_one.insert(FuzzInstanceSeed(1, i));
  }
  ASSERT_EQ(seed_one.size(), kIterations);
  for (std::size_t i = 0; i < kIterations; ++i) {
    EXPECT_EQ(seed_one.count(FuzzInstanceSeed(2, i)), 0u) << "instance " << i;
  }
}

// ---------------------------------------------------------------------------
// Fourier–Motzkin reference LP.

Rational Q(std::int64_t n) { return Rational(n); }

TEST(ReferenceLpTest, BoxOptimum) {
  // max x1 + x2 s.t. x1 <= 2, x2 <= 3, x >= 0.
  LpProblem lp;
  lp.a = {{Q(1), Q(0)}, {Q(0), Q(1)}};
  lp.b = {Q(2), Q(3)};
  lp.c = {Q(1), Q(1)};
  RefLpOutcome outcome = RefSolveLpValue(lp);
  ASSERT_EQ(outcome.status, LpStatus::kOptimal);
  EXPECT_EQ(outcome.objective, Q(5));
  LpSolution simplex = SolveLp(lp);
  ASSERT_EQ(simplex.status, LpStatus::kOptimal);
  EXPECT_EQ(simplex.objective, outcome.objective);
}

TEST(ReferenceLpTest, DetectsInfeasibility) {
  // x1 >= 1 and x1 <= 0 cannot both hold.
  LpProblem lp;
  lp.a = {{Q(-1)}, {Q(1)}};
  lp.b = {Q(-1), Q(0)};
  lp.c = {Q(1)};
  EXPECT_EQ(RefSolveLpValue(lp).status, LpStatus::kInfeasible);
  EXPECT_EQ(SolveLp(lp).status, LpStatus::kInfeasible);
}

TEST(ReferenceLpTest, DetectsUnboundedness) {
  // max x1 with only x2 constrained.
  LpProblem lp;
  lp.a = {{Q(0), Q(1)}};
  lp.b = {Q(1)};
  lp.c = {Q(1), Q(0)};
  EXPECT_EQ(RefSolveLpValue(lp).status, LpStatus::kUnbounded);
  EXPECT_EQ(SolveLp(lp).status, LpStatus::kUnbounded);
}

TEST(ReferenceLpTest, FractionalOptimum) {
  // max x1 s.t. 2*x1 <= 1: optimum 1/2, exercising non-integer rationals.
  LpProblem lp;
  lp.a = {{Q(2)}};
  lp.b = {Q(1)};
  lp.c = {Q(1)};
  RefLpOutcome outcome = RefSolveLpValue(lp);
  ASSERT_EQ(outcome.status, LpStatus::kOptimal);
  EXPECT_EQ(outcome.objective, Q(1) / Q(2));
}

TEST(ReferenceLpTest, SeparabilityAgreesWithSimplexOnXor) {
  // Single feature, consistent labels: separable.
  TrainingCollection separable = {{{1}, kPositive}, {{-1}, kNegative}};
  EXPECT_TRUE(RefIsLinearlySeparable(separable));
  EXPECT_TRUE(IsLinearlySeparable(separable));
  // XOR over two features: famously not.
  TrainingCollection xor_examples = {{{1, 1}, kPositive},
                                     {{-1, -1}, kPositive},
                                     {{1, -1}, kNegative},
                                     {{-1, 1}, kNegative}};
  EXPECT_FALSE(RefIsLinearlySeparable(xor_examples));
  EXPECT_FALSE(IsLinearlySeparable(xor_examples));
  // Contradictory labels on the same vector: never separable.
  TrainingCollection contradictory = {{{1}, kPositive}, {{1}, kNegative}};
  EXPECT_FALSE(RefIsLinearlySeparable(contradictory));
  EXPECT_FALSE(IsLinearlySeparable(contradictory));
  // Empty collections are vacuously separable.
  EXPECT_TRUE(RefIsLinearlySeparable({}));
  EXPECT_TRUE(IsLinearlySeparable({}));
}

}  // namespace
}  // namespace featsep
