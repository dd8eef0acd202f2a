// Experiment E2 — Theorem 5.7: statistics separating GHW(k)-separable data
// may need (a) dimension linear in the number of entities and (b)
// exponentially large feature queries.
//
//   dimension/*: the alternating-path family (a linear family per
//     Prop 8.6): the implicit Algorithm-1 statistic has one feature per
//     →₁ class, i.e., dimension m+1 for path length m.
//   generated_atoms/*: materializing the GHW(1) statistic (Prop 5.6's
//     exponential-time generation) — total atom count of the generated
//     features grows with the family size.

#include <benchmark/benchmark.h>

#include "core/ghw_generation.h"
#include "core/ghw_separability.h"
#include "workload/thm57.h"

namespace featsep {
namespace {

void BM_Thm57Dimension(benchmark::State& state) {
  std::size_t m = static_cast<std::size_t>(state.range(0));
  auto training = AlternatingPathFamily(m);
  std::size_t dimension = 0;
  for (auto _ : state) {
    auto classifier = GhwClassifier::Train(training, 1);
    dimension = classifier->dimension();
    benchmark::DoNotOptimize(dimension);
  }
  state.counters["entities"] =
      static_cast<double>(training->Entities().size());
  state.counters["dimension"] = static_cast<double>(dimension);
}
BENCHMARK(BM_Thm57Dimension)->Arg(2)->Arg(4)->Arg(8)->Arg(12);

void BM_Thm57GeneratedAtoms(benchmark::State& state) {
  std::size_t m = static_cast<std::size_t>(state.range(0));
  auto training = AlternatingPathFamily(m);
  std::size_t total_atoms = 0;
  std::size_t dimension = 0;
  for (auto _ : state) {
    auto statistic = GenerateGhw1Statistic(*training);
    total_atoms = statistic->TotalAtoms();
    dimension = statistic->dimension();
    benchmark::DoNotOptimize(total_atoms);
  }
  state.counters["db_facts"] =
      static_cast<double>(training->database().size());
  state.counters["dimension"] = static_cast<double>(dimension);
  state.counters["total_feature_atoms"] = static_cast<double>(total_atoms);
}
BENCHMARK(BM_Thm57GeneratedAtoms)->Arg(2)->Arg(4)->Arg(6);

}  // namespace
}  // namespace featsep
