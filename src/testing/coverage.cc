#include "testing/coverage.h"

#include <sstream>

#include "util/check.h"

namespace featsep {
namespace testing {

using coverage_internal::g_coverage_counters;
using coverage_internal::g_coverage_enabled;
using coverage_internal::kBucketsPerSite;
using coverage_internal::kNumCoverageSites;

const char* CoverageSiteName(CoverageSite site) {
  switch (site) {
    case CoverageSite::kHomNode: return "hom/node";
    case CoverageSite::kHomBacktrack: return "hom/backtrack";
    case CoverageSite::kHomFastCheck: return "hom/fast-check";
    case CoverageSite::kHomGeneralCheck: return "hom/general-check";
    case CoverageSite::kHomClosedCheck: return "hom/closed-check";
    case CoverageSite::kHomDeadFact: return "hom/dead-fact";
    case CoverageSite::kHomPrune: return "hom/prune";
    case CoverageSite::kHomWipeout: return "hom/wipeout";
    case CoverageSite::kHomUnaryWipeout: return "hom/unary-wipeout";
    case CoverageSite::kHomSeedReject: return "hom/seed-reject";
    case CoverageSite::kHomFound: return "hom/found";
    case CoverageSite::kHomNone: return "hom/none";
    case CoverageSite::kHomExhausted: return "hom/exhausted";
    case CoverageSite::kGhwBagConnectorReject:
      return "ghw/bag-connector-reject";
    case CoverageSite::kGhwBagProgressReject: return "ghw/bag-progress-reject";
    case CoverageSite::kGhwChildUnsolved: return "ghw/child-unsolved";
    case CoverageSite::kGhwSubproblemSolved: return "ghw/subproblem-solved";
    case CoverageSite::kGhwSubproblemFailed: return "ghw/subproblem-failed";
    case CoverageSite::kGhwMemoHit: return "ghw/memo-hit";
    case CoverageSite::kCoverPosition: return "covergame/position";
    case CoverageSite::kCoverMap: return "covergame/map";
    case CoverageSite::kCoverBaseReject: return "covergame/base-reject";
    case CoverageSite::kCoverPositionDead: return "covergame/position-dead";
    case CoverageSite::kCoverFixpointRound: return "covergame/fixpoint-round";
    case CoverageSite::kCoverStrategyDeleted:
      return "covergame/strategy-deleted";
    case CoverageSite::kCoverWin: return "covergame/win";
    case CoverageSite::kCoverLose: return "covergame/lose";
    case CoverageSite::kSimplexPivot: return "simplex/pivot";
    case CoverageSite::kSimplexPhase1: return "simplex/phase1";
    case CoverageSite::kSimplexInfeasible: return "simplex/infeasible";
    case CoverageSite::kSimplexUnbounded: return "simplex/unbounded";
    case CoverageSite::kSimplexOptimal: return "simplex/optimal";
    case CoverageSite::kSimplexDegenerate: return "simplex/degenerate";
    case CoverageSite::kNumSites: break;
  }
  return "unknown";
}

std::optional<CoverageSite> CoverageSiteFromName(std::string_view name) {
  for (std::size_t i = 0; i < kNumCoverageSites; ++i) {
    CoverageSite site = static_cast<CoverageSite>(i);
    if (name == CoverageSiteName(site)) return site;
  }
  return std::nullopt;
}

void SetCoverageEnabled(bool enabled) {
  g_coverage_enabled.store(enabled, std::memory_order_relaxed);
}

bool CoverageEnabled() {
  return g_coverage_enabled.load(std::memory_order_relaxed);
}

void ResetCoverage() {
  for (auto& counter : g_coverage_counters) {
    counter.store(0, std::memory_order_relaxed);
  }
}

CoverageSnapshot SnapshotCoverage() {
  CoverageSnapshot snapshot;
  for (std::size_t i = 0; i < kNumCoverageSites; ++i) {
    snapshot.counts[i] = g_coverage_counters[i].load(std::memory_order_relaxed);
  }
  return snapshot;
}

std::size_t CoverageBucket(std::uint64_t count) {
  FEATSEP_CHECK_GT(count, 0u);
  // 1, 2, 3 get their own buckets; then log₂ classes, compressed above 2¹⁰
  // so the top of the range still fits the 16 buckets.
  if (count <= 3) return count - 1;
  std::size_t log2 = 0;
  for (std::uint64_t c = count; c > 1; c >>= 1) ++log2;
  // count in [4,7] -> log2 2 -> bucket 3 ... [512,1023] -> 9 -> bucket 10.
  if (log2 <= 9) return log2 + 1;
  if (log2 <= 11) return 11;  // 1024..4095
  if (log2 <= 13) return 12;  // 4096..16383
  if (log2 <= 15) return 13;  // 16384..65535
  if (log2 <= 19) return 14;  // 64K..1M
  return 15;
}

std::vector<CoverageEdge> CoverageEdges(const CoverageSnapshot& snapshot) {
  std::vector<CoverageEdge> edges;
  for (std::size_t i = 0; i < kNumCoverageSites; ++i) {
    if (snapshot.counts[i] == 0) continue;
    edges.push_back(static_cast<CoverageEdge>(
        i * kBucketsPerSite + CoverageBucket(snapshot.counts[i])));
  }
  return edges;
}

std::string CoverageEdgeName(CoverageEdge edge) {
  std::size_t site = edge / kBucketsPerSite;
  std::size_t bucket = edge % kBucketsPerSite;
  std::ostringstream out;
  out << CoverageSiteName(static_cast<CoverageSite>(site)) << ":b" << bucket;
  return out.str();
}

CoverageMap::CoverageMap()
    : seen_(kNumCoverageSites * kBucketsPerSite, false) {}

std::vector<CoverageEdge> CoverageMap::MergeNew(
    const CoverageSnapshot& snapshot) {
  std::vector<CoverageEdge> fresh;
  for (CoverageEdge edge : CoverageEdges(snapshot)) {
    if (!seen_[edge]) {
      seen_[edge] = true;
      ++num_edges_;
      fresh.push_back(edge);
    }
  }
  return fresh;
}

bool CoverageMap::Covers(const std::vector<CoverageEdge>& edges) const {
  for (CoverageEdge edge : edges) {
    if (!seen_[edge]) return false;
  }
  return true;
}

}  // namespace testing
}  // namespace featsep
