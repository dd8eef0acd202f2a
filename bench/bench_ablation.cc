// Ablation studies for the design choices called out in DESIGN.md §3:
//   solver_shared / fresh  : reusing one cover-game solver across entity
//       pairs vs rebuilding it per pair (the amortization that makes the
//       separability preorder cheap).

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "covergame/cover_game.h"

namespace featsep {
namespace {

void BM_CoverSolverShared(benchmark::State& state) {
  std::size_t nodes = static_cast<std::size_t>(state.range(0));
  auto db = bench::RandomGraphDatabase(nodes, 2 * nodes, 93);
  const std::vector<Value>& domain = db->domain();
  for (auto _ : state) {
    CoverGameSolver solver(*db, *db, 1);
    for (std::size_t i = 0; i + 1 < domain.size(); i += 2) {
      benchmark::DoNotOptimize(
          solver.Decide({domain[i]}, {domain[i + 1]}));
    }
  }
}
void BM_CoverSolverFresh(benchmark::State& state) {
  std::size_t nodes = static_cast<std::size_t>(state.range(0));
  auto db = bench::RandomGraphDatabase(nodes, 2 * nodes, 93);
  const std::vector<Value>& domain = db->domain();
  for (auto _ : state) {
    for (std::size_t i = 0; i + 1 < domain.size(); i += 2) {
      CoverGameSolver solver(*db, *db, 1);
      benchmark::DoNotOptimize(
          solver.Decide({domain[i]}, {domain[i + 1]}));
    }
  }
}
BENCHMARK(BM_CoverSolverShared)->Arg(8)->Arg(16);
BENCHMARK(BM_CoverSolverFresh)->Arg(8)->Arg(16);

}  // namespace
}  // namespace featsep
