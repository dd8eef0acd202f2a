// Experiments T1.d/e/f — Table 1, row L-SEP[ℓ] (bounded dimension).
//
//   T1.d (CQ-SEP[ℓ], coNEXPTIME-c.): the guess-and-check test of Lemma 6.3
//        drives a QBE oracle on the product of the positives, which has
//        |D|^{|S+|} facts. The solver folds the positives two at a time and
//        cores each step, so on this world the largest product it builds
//        (product_facts) stops growing after the second positive and the
//        cost grows roughly linearly in |S+|; the exponential worst case
//        needs positives whose cores stay large (bench_thm67_blowup).
//   T1.e (GHW(k)-SEP[ℓ], EXPTIME-c.): same cored products, judged by the
//        cover game instead of homomorphism.
//   T1.f (CQ[m]-SEP[*], NP-c. via Prop 6.9): vertex-cover reductions —
//        exponential growth in the number of entities/bipartitions even
//        though every oracle call is cheap.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/dimension_bounded.h"
#include "qbe/qbe.h"
#include "workload/generators.h"
#include "workload/vertex_cover.h"

namespace featsep {
namespace {

// --- T1.d / T1.e: oracle cost vs |S+| -------------------------------------

std::shared_ptr<Database> QbeWorld() {
  // Entities on paths of lengths 1..4 plus background.
  auto db = std::make_shared<Database>(GraphWorkloadSchema());
  RelationId eta = db->schema().entity_relation();
  RelationId e = db->schema().FindRelation("E");
  for (std::size_t i = 0; i < 6; ++i) {
    std::vector<Value> nodes;
    for (std::size_t j = 0; j <= 1 + i % 4; ++j) {
      nodes.push_back(
          db->Intern("p" + std::to_string(i) + "_" + std::to_string(j)));
    }
    for (std::size_t j = 0; j + 1 < nodes.size(); ++j) {
      db->AddFact(e, {nodes[j], nodes[j + 1]});
    }
    db->AddFact(eta, {nodes[0]});
  }
  return db;
}

void BM_CqQbeProductGrowth(benchmark::State& state) {
  auto db = QbeWorld();
  std::vector<Value> entities = db->Entities();
  std::size_t positives = static_cast<std::size_t>(state.range(0));
  QbeInstance instance;
  instance.db = db.get();
  for (std::size_t i = 0; i < positives; ++i) {
    instance.positives.push_back(entities[i]);
  }
  instance.negatives.push_back(entities.back());

  std::size_t product_facts = 0;
  QbeOptions options;
  options.max_product_facts = 50000000;
  for (auto _ : state) {
    QbeResult result = SolveCqQbe(instance, options);
    product_facts = result.product_facts;
    benchmark::DoNotOptimize(result.exists);
  }
  state.counters["product_facts"] = static_cast<double>(product_facts);
  state.counters["db_facts"] = static_cast<double>(db->size());
}
BENCHMARK(BM_CqQbeProductGrowth)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_GhwQbeProductGrowth(benchmark::State& state) {
  auto db = QbeWorld();
  std::vector<Value> entities = db->Entities();
  std::size_t positives = static_cast<std::size_t>(state.range(0));
  QbeInstance instance;
  instance.db = db.get();
  for (std::size_t i = 0; i < positives; ++i) {
    instance.positives.push_back(entities[i]);
  }
  instance.negatives.push_back(entities.back());

  QbeOptions options;
  options.max_product_facts = 50000000;
  for (auto _ : state) {
    QbeResult result = SolveGhwQbe(instance, 1, options);
    benchmark::DoNotOptimize(result.exists);
  }
}
BENCHMARK(BM_GhwQbeProductGrowth)->Arg(1)->Arg(2)->Arg(3);

// --- T1.f: CQ[1]-SEP[*] on vertex-cover reductions -------------------------

void BM_CqmSepEllVertexCover(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  // Cycle graph C_n: minimum vertex cover = ceil(n/2).
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t i = 0; i < n; ++i) edges.emplace_back(i, (i + 1) % n);
  VertexCoverInstance instance = MakeVertexCoverInstance(n, edges);
  std::size_t ell = (n + 1) / 2;
  QbeOracle oracle = MakeCqmQbeOracle(1);

  bool separable = false;
  for (auto _ : state) {
    separable = DecideSepDim(*instance.training, ell, oracle).separable;
    benchmark::DoNotOptimize(separable);
  }
  state.counters["separable"] = separable ? 1 : 0;
  state.counters["ell"] = static_cast<double>(ell);
}
BENCHMARK(BM_CqmSepEllVertexCover)->Arg(3)->Arg(4)->Arg(5)->Arg(6);

}  // namespace
}  // namespace featsep
