#ifndef FEATSEP_TESTING_COVERAGE_H_
#define FEATSEP_TESTING_COVERAGE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace featsep {
namespace testing {

/// Structural-coverage map for the coverage-guided fuzzer (fuzz.h).
///
/// The hot decision procedures — the bitset homomorphism kernel (src/cq),
/// the detkdecomp-style GHW search (src/hypertree), the cover-game fixpoint
/// (src/covergame), and the exact simplex (src/linsep) — carry
/// FEATSEP_COVERAGE(site) probes at their branch points. Each probe bumps a
/// per-site counter; an input's *signature* is the set of (site, bucket)
/// edges where bucket is the AFL-style log₂ class of the hit count, so "the
/// search backtracked 1000 times" and "the search backtracked once" are
/// different edges even though they pass the same branches. The fuzz
/// scheduler admits an input to the corpus when its signature contains an
/// edge no earlier input produced.
///
/// Cost model: coverage is process-global and OFF by default. A disabled
/// probe is one relaxed atomic bool load and a predictable branch — within
/// measurement noise on the hom/serve benches (EXPERIMENTS.md E16). Probes
/// are placed at search *events* (node expansions, wipeouts, fixpoint
/// rounds, pivots), never inside word-level bit loops. Counters are relaxed
/// atomics because several property drivers run the instrumented kernels
/// from parallel sweeps; totals stay deterministic when the underlying work
/// is, but early-exit parallel searches may hit probes a thread-schedule-
/// dependent number of times (the same caveat any coverage-guided fuzzer
/// has — admission then errs toward keeping the input).
enum class CoverageSite : std::uint16_t {
  // Homomorphism kernel (src/cq/homomorphism.cc).
  kHomNode = 0,        ///< Search-tree node expanded (one Assign attempt).
  kHomBacktrack,       ///< A frame exhausted its candidates and popped.
  kHomFastCheck,       ///< CheckFact took the single-assigned fast path.
  kHomGeneralCheck,    ///< CheckFact scanned a candidate list.
  kHomClosedCheck,     ///< CheckFact resolved an all-assigned fact by lookup.
  kHomDeadFact,        ///< CheckFact found no compatible target fact.
  kHomPrune,           ///< PruneDomain strictly shrank a domain.
  kHomWipeout,         ///< PruneDomain emptied a domain.
  kHomUnaryWipeout,    ///< A variable died during unary-constraint setup.
  kHomSeedReject,      ///< A seed pair was unsatisfiable up front.
  kHomFound,           ///< Search ended kFound.
  kHomNone,            ///< Search ended kNone.
  kHomExhausted,       ///< Search ended kExhausted (budget).
  // GHW decision search (src/hypertree/ghw.cc).
  kGhwBagConnectorReject,  ///< Candidate bag missed the connector.
  kGhwBagProgressReject,   ///< Candidate bag made no progress.
  kGhwChildUnsolved,       ///< A child subproblem came back unsolvable.
  kGhwSubproblemSolved,    ///< A subproblem was solved and memoized.
  kGhwSubproblemFailed,    ///< A subproblem exhausted every bag.
  kGhwMemoHit,             ///< Memo lookup short-circuited a subproblem.
  // Cover-game solver (src/covergame/cover_game.cc).
  kCoverPosition,        ///< A game position was enumerated.
  kCoverMap,             ///< A candidate strategy map was recorded.
  kCoverBaseReject,      ///< Pebble map non-functional or pure-ā fact broken.
  kCoverPositionDead,    ///< A position lost all live strategies.
  kCoverFixpointRound,   ///< One worklist step: a shrunk position propagated.
  kCoverStrategyDeleted, ///< The fixpoint deleted ≥1 strategy of a position.
  kCoverWin,             ///< Decide returned true.
  kCoverLose,            ///< Decide returned false (post-filter).
  // Exact simplex (src/linsep/simplex.cc).
  kSimplexPivot,        ///< One pivot (phase 1 or 2).
  kSimplexPhase1,       ///< The LP needed artificials (phase 1 ran).
  kSimplexInfeasible,   ///< Phase 1 ended with a positive artificial sum.
  kSimplexUnbounded,    ///< Phase 2 found an unbounded ray.
  kSimplexOptimal,      ///< A finite optimum was reached.
  kSimplexDegenerate,   ///< A redundant row kept an artificial basic.
  kNumSites,  // Sentinel; keep last.
};

/// Short stable name of a site ("hom/node", "simplex/pivot", ...).
const char* CoverageSiteName(CoverageSite site);

/// The site named `name` (the inverse of CoverageSiteName), or nullopt.
std::optional<CoverageSite> CoverageSiteFromName(std::string_view name);

namespace coverage_internal {

inline constexpr std::size_t kNumCoverageSites =
    static_cast<std::size_t>(CoverageSite::kNumSites);

/// Hit-count buckets per site: 1, 2, 3, 4-7, 8-15, 16-31, 32-63, 64-127,
/// 128-255, 256-511, 512-1023, 1024-4095, 4096-16383, 16384-65535, 64K-1M,
/// > 1M. Sixteen buckets keep the edge space small (sites × 16) while still
/// separating shallow from deep searches.
inline constexpr std::size_t kBucketsPerSite = 16;

inline std::atomic<bool> g_coverage_enabled{false};
inline std::array<std::atomic<std::uint64_t>, kNumCoverageSites>
    g_coverage_counters{};

}  // namespace coverage_internal

/// The per-input hit counters, frozen at snapshot time.
struct CoverageSnapshot {
  std::array<std::uint64_t, coverage_internal::kNumCoverageSites> counts{};

  /// Total probes hit.
  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (std::uint64_t c : counts) sum += c;
    return sum;
  }
};

/// Turns the probes on or off (process-global). Off by default; the fuzz
/// scheduler brackets each property check with enable/reset/snapshot.
void SetCoverageEnabled(bool enabled);
bool CoverageEnabled();

/// Zeroes the per-input counters.
void ResetCoverage();

/// Reads the current counters.
CoverageSnapshot SnapshotCoverage();

/// An edge id: site * kBucketsPerSite + bucket(count). Only sites with a
/// nonzero count produce edges.
using CoverageEdge = std::uint32_t;

/// The log₂-bucket of a nonzero hit count (0..kBucketsPerSite-1).
std::size_t CoverageBucket(std::uint64_t count);

/// The edges of a snapshot, ascending.
std::vector<CoverageEdge> CoverageEdges(const CoverageSnapshot& snapshot);

/// Renders an edge as "site/name:bucket-lo..hi" for --coverage-stats.
std::string CoverageEdgeName(CoverageEdge edge);

/// Accumulated edge set across all inputs of a fuzzing run.
class CoverageMap {
 public:
  CoverageMap();

  /// Merges a snapshot's edges; returns the edges not seen before (empty
  /// when the input found nothing new).
  std::vector<CoverageEdge> MergeNew(const CoverageSnapshot& snapshot);

  /// True iff every edge is already present.
  bool Covers(const std::vector<CoverageEdge>& edges) const;

  /// Distinct edges seen so far.
  std::size_t num_edges() const { return num_edges_; }

 private:
  std::vector<bool> seen_;
  std::size_t num_edges_ = 0;
};

}  // namespace testing
}  // namespace featsep

/// Coverage probe: a no-op unless SetCoverageEnabled(true) is in effect.
/// `site` is an unqualified CoverageSite enumerator name. The disabled
/// cost is one relaxed load + predictable branch, within bench noise — see
/// EXPERIMENTS.md E16.
#define FEATSEP_COVERAGE(site)                                              \
  do {                                                                      \
    if (::featsep::testing::coverage_internal::g_coverage_enabled.load(     \
            std::memory_order_relaxed)) {                                   \
      ::featsep::testing::coverage_internal::g_coverage_counters            \
          [static_cast<std::size_t>(                                        \
               ::featsep::testing::CoverageSite::site)]                     \
              .fetch_add(1, std::memory_order_relaxed);                     \
    }                                                                       \
  } while (0)

#endif  // FEATSEP_TESTING_COVERAGE_H_
