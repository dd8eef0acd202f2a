// Experiment E9 — Theorem 6.1: CQ-QBE (coNEXPTIME) vs GHW(k)-QBE
// (EXPTIME) vs CQ[m]-QBE (NP in the schema). Measured on the movie
// database with example sets of growing size. The CQ and GHW solvers fold
// the positives two at a time and core each product; BM_CqQbe reports the
// largest product of the fold and the atoms of the returned core.

#include <benchmark/benchmark.h>

#include "qbe/qbe.h"
#include "workload/movies.h"

namespace featsep {
namespace {

QbeInstance SciFiInstance(const Database& db, std::size_t positives) {
  const char* names[] = {"ada", "bela", "dora", "fay"};
  QbeInstance instance;
  instance.db = &db;
  for (std::size_t i = 0; i < positives && i < 4; ++i) {
    instance.positives.push_back(db.FindValue(names[i]));
  }
  instance.negatives.push_back(db.FindValue("carlos"));
  instance.negatives.push_back(db.FindValue("emil"));
  return instance;
}

void BM_CqQbe(benchmark::State& state) {
  auto db = MakeMovieDatabase();
  QbeInstance instance =
      SciFiInstance(*db, static_cast<std::size_t>(state.range(0)));
  std::size_t product = 0;
  std::size_t atoms = 0;
  for (auto _ : state) {
    QbeResult result = SolveCqQbe(instance);
    product = result.product_facts;
    if (result.explanation.has_value()) {
      atoms = result.explanation->NumAtoms(true);
    }
    benchmark::DoNotOptimize(result.exists);
  }
  state.counters["product_facts"] = static_cast<double>(product);
  state.counters["explanation_atoms"] = static_cast<double>(atoms);
}
BENCHMARK(BM_CqQbe)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_GhwQbe(benchmark::State& state) {
  auto db = MakeMovieDatabase();
  QbeInstance instance =
      SciFiInstance(*db, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    QbeResult result = SolveGhwQbe(instance, 1);
    benchmark::DoNotOptimize(result.exists);
  }
}
BENCHMARK(BM_GhwQbe)->Arg(1)->Arg(2);

void BM_CqmQbe(benchmark::State& state) {
  auto db = MakeMovieDatabase();
  QbeInstance instance =
      SciFiInstance(*db, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    QbeResult result = SolveCqmQbe(instance, 2, 2);
    benchmark::DoNotOptimize(result.exists);
  }
}
BENCHMARK(BM_CqmQbe)->Arg(1)->Arg(2)->Arg(4);

}  // namespace
}  // namespace featsep
