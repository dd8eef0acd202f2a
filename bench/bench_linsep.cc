// Experiment E8 — Proposition 7.2's source of hardness: exact linear
// separability is polynomial (LP, [19, 21]) while minimum-error separation
// is NP-complete ([17]). Series contrast the exact-LP decision with the
// branch-and-bound min-error search as the number of examples grows; on
// inseparable data the min-error search degrades while the LP stays flat.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/statistic.h"
#include "cq/enumeration.h"
#include "linsep/min_error.h"
#include "linsep/perceptron.h"
#include "linsep/separability_lp.h"

namespace featsep {
namespace {

TrainingCollection RandomCollection(std::size_t examples, std::size_t dims,
                                    std::uint64_t seed) {
  bench::Rng rng(seed);
  TrainingCollection collection;
  for (std::size_t i = 0; i < examples; ++i) {
    FeatureVector v;
    for (std::size_t j = 0; j < dims; ++j) {
      v.push_back(rng.Next() % 2 == 0 ? 1 : -1);
    }
    collection.emplace_back(std::move(v),
                            rng.Next() % 2 == 0 ? kPositive : kNegative);
  }
  return collection;
}

void BM_LpSeparability(benchmark::State& state) {
  auto collection =
      RandomCollection(static_cast<std::size_t>(state.range(0)), 4, 71);
  bool separable = false;
  for (auto _ : state) {
    separable = IsLinearlySeparable(collection);
    benchmark::DoNotOptimize(separable);
  }
  state.counters["separable"] = separable ? 1 : 0;
}
BENCHMARK(BM_LpSeparability)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

// The random 4-dimensional rows above nearly always put one vector under
// both labels. A CQ[2]-SEP fit instead solves the CQ[2] matrix of its
// training database: here that of a 16-entity planted graph over 1600
// background nodes and 2400 edges (perfbench's fit-cold item), seeded by
// the argument. Its 16 rows and 51 columns are mostly repeated rows and
// constant or identical columns.
void BM_LpSeparabilityCq2Matrix(benchmark::State& state) {
  RandomGraphParams params;
  params.num_entities = 16;
  params.num_background_nodes = 1600;
  params.num_background_edges = 2400;
  params.planted_path_length = 2;
  params.seed = static_cast<std::uint64_t>(state.range(0));
  auto training = RandomPlantedGraph(params);
  TrainingCollection collection = MakeTrainingCollection(
      Statistic(EnumerateFeatureQueries(training->database().schema_ptr(), 2)),
      *training);
  bool separable = false;
  for (auto _ : state) {
    separable = FindSeparator(collection).has_value();
    benchmark::DoNotOptimize(separable);
  }
  state.counters["rows"] = static_cast<double>(collection.size());
  state.counters["columns"] =
      static_cast<double>(collection.front().first.size());
  state.counters["separable"] = separable ? 1 : 0;
}
BENCHMARK(BM_LpSeparabilityCq2Matrix)
    ->Arg(1001)
    ->Arg(1002)
    ->Arg(1003)
    ->Unit(benchmark::kMicrosecond);

void BM_MinErrorExact(benchmark::State& state) {
  auto collection =
      RandomCollection(static_cast<std::size_t>(state.range(0)), 4, 71);
  std::size_t errors = 0;
  for (auto _ : state) {
    MinErrorResult result = MinimizeErrors(collection);
    errors = result.errors;
    benchmark::DoNotOptimize(result.errors);
  }
  state.counters["min_errors"] = static_cast<double>(errors);
}
BENCHMARK(BM_MinErrorExact)->Arg(8)->Arg(12)->Arg(16)->Arg(20);

void BM_PocketPerceptronHeuristic(benchmark::State& state) {
  auto collection =
      RandomCollection(static_cast<std::size_t>(state.range(0)), 4, 71);
  std::size_t errors = 0;
  for (auto _ : state) {
    auto [classifier, pocket_errors] = PocketPerceptron(collection);
    errors = pocket_errors;
    benchmark::DoNotOptimize(classifier.arity());
  }
  state.counters["pocket_errors"] = static_cast<double>(errors);
}
BENCHMARK(BM_PocketPerceptronHeuristic)->Arg(8)->Arg(16)->Arg(32);

}  // namespace
}  // namespace featsep
