// Evaluation-engine comparison underlying the GHW(k) tractability story
// (paper, Section 5 / [12]): decomposition-guided Yannakakis evaluation is
// polynomial O(|D|^k) per entity for GHW(k) queries, while the generic
// backtracking engine is worst-case exponential. Series sweep the database
// size for an acyclic (width-1) query and a cyclic (width-2) query.
// BM_CqBankMatrix times the cold CQ[2] feature matrix of a CQ[2]-SEP fit.

#include <optional>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/statistic.h"
#include "cq/decomposed_evaluation.h"
#include "cq/enumeration.h"
#include "cq/evaluation.h"
#include "io/cq_parser.h"
#include "serve/eval_service.h"
#include "workload/generators.h"

namespace featsep {
namespace {

ConjunctiveQuery CyclicQuery() {
  auto q = ParseCq(GraphWorkloadSchema(),
                   "q(x) :- Eta(x), E(x, y1), E(y1, y2), E(y2, y3), "
                   "E(y3, y1)");
  return q.value();
}

ConjunctiveQuery AcyclicQuery() {
  auto q = ParseCq(GraphWorkloadSchema(),
                   "q(x) :- Eta(x), E(x, y1), E(y1, y2), E(y2, y3)");
  return q.value();
}

std::shared_ptr<Database> World(std::size_t nodes) {
  auto db = bench::RandomGraphDatabase(nodes, nodes * 3, 101);
  // Mark a few entities.
  RelationId eta = db->schema().entity_relation();
  const std::vector<Value>& domain = db->domain();
  for (std::size_t i = 0; i < domain.size(); i += 4) {
    db->AddFact(eta, {domain[i]});
  }
  return db;
}

void BM_BacktrackingAcyclic(benchmark::State& state) {
  auto db = World(static_cast<std::size_t>(state.range(0)));
  CqEvaluator evaluator(AcyclicQuery());
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.Evaluate(*db).size());
  }
  state.counters["facts"] = static_cast<double>(db->size());
}
BENCHMARK(BM_BacktrackingAcyclic)->Arg(16)->Arg(32)->Arg(64);

void BM_DecomposedAcyclic(benchmark::State& state) {
  auto db = World(static_cast<std::size_t>(state.range(0)));
  auto evaluator = DecomposedEvaluator::Create(AcyclicQuery(), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator->Evaluate(*db).size());
  }
  state.counters["facts"] = static_cast<double>(db->size());
}
BENCHMARK(BM_DecomposedAcyclic)->Arg(16)->Arg(32)->Arg(64);

void BM_BacktrackingCyclic(benchmark::State& state) {
  auto db = World(static_cast<std::size_t>(state.range(0)));
  CqEvaluator evaluator(CyclicQuery());
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.Evaluate(*db).size());
  }
  state.counters["facts"] = static_cast<double>(db->size());
}
BENCHMARK(BM_BacktrackingCyclic)->Arg(16)->Arg(32)->Arg(64);

void BM_DecomposedCyclic(benchmark::State& state) {
  auto db = World(static_cast<std::size_t>(state.range(0)));
  auto evaluator = DecomposedEvaluator::Create(CyclicQuery(), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator->Evaluate(*db).size());
  }
  state.counters["facts"] = static_cast<double>(db->size());
  state.counters["width"] = static_cast<double>(evaluator->width());
}
BENCHMARK(BM_DecomposedCyclic)->Arg(16)->Arg(32)->Arg(64);

// The CQ[2] bank (51 features) evaluated on every entity of a 16-entity
// planted graph over 1600 background nodes and 2400 edges (perfbench's
// fit-cold item), seeded by the first argument. The second argument picks
// the path: 0 = serial Statistic::Matrix, 1 = EvalService with one shard,
// 2 = EvalService with one shard per CPU. The service caches nothing, and
// each iteration evaluates a fresh copy of the database, made and dropped
// outside the timed region, so no search finds its target's caches warm.
void BM_CqBankMatrix(benchmark::State& state) {
  RandomGraphParams params;
  params.num_entities = 16;
  params.num_background_nodes = 1600;
  params.num_background_edges = 2400;
  params.planted_path_length = 2;
  params.seed = static_cast<std::uint64_t>(state.range(0));
  auto training = RandomPlantedGraph(params);
  const std::vector<ConjunctiveQuery> bank =
      EnumerateFeatureQueries(training->database().schema_ptr(), 2);
  const Statistic statistic(bank);
  const bool serial = state.range(1) == 0;
  serve::ServeOptions options;
  options.num_shards =
      state.range(1) == 2 ? std::thread::hardware_concurrency() : 1;
  options.cache_capacity = 0;
  serve::EvalService service(options);
  std::optional<Database> db;
  for (auto _ : state) {
    state.PauseTiming();
    db.reset();
    db.emplace(training->database());
    state.ResumeTiming();
    std::vector<FeatureVector> matrix =
        serial ? statistic.Matrix(*db) : service.Matrix(bank, *db);
    benchmark::DoNotOptimize(matrix.data());
  }
  state.counters["features"] = static_cast<double>(bank.size());
  state.counters["shards"] =
      serial ? 0 : static_cast<double>(options.num_shards);
}
BENCHMARK(BM_CqBankMatrix)
    ->ArgsProduct({{1001, 1002, 1003}, {0, 1, 2}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace featsep
