// Ablation studies for the design choices called out in DESIGN.md §3:
//   qbe_minimize_on / off  : core minimization of QBE explanations — the
//       canonical product is orders of magnitude larger than its core;
//   solver_shared / fresh  : reusing one cover-game solver across entity
//       pairs vs rebuilding it per pair (the amortization that makes the
//       separability preorder cheap).

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "covergame/cover_game.h"
#include "qbe/qbe.h"
#include "workload/movies.h"

namespace featsep {
namespace {

void RunQbeMinimization(benchmark::State& state, bool minimize) {
  auto db = MakeMovieDatabase();
  QbeInstance instance;
  instance.db = db.get();
  instance.positives = {db->FindValue("ada"), db->FindValue("bela")};
  instance.negatives = {db->FindValue("carlos"), db->FindValue("emil")};
  QbeOptions options;
  options.minimize_explanation = minimize;
  std::size_t atoms = 0;
  for (auto _ : state) {
    QbeResult result = SolveCqQbe(instance, options);
    if (result.explanation.has_value()) {
      atoms = result.explanation->NumAtoms(true);
    }
    benchmark::DoNotOptimize(result.exists);
  }
  state.counters["explanation_atoms"] = static_cast<double>(atoms);
}

void BM_QbeMinimizeOn(benchmark::State& state) {
  RunQbeMinimization(state, true);
}
void BM_QbeMinimizeOff(benchmark::State& state) {
  RunQbeMinimization(state, false);
}
BENCHMARK(BM_QbeMinimizeOn);
BENCHMARK(BM_QbeMinimizeOff);

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
