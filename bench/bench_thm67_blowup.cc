// Experiment E3 — Theorem 6.7: under a fixed statistic dimension, feature
// queries must blow up. The prime-cycle family (workload/thm57.h) realizes
// the mechanism: any single CQ explanation separating entities on cycles of
// the first r primes from one on a fresh prime cycle must contain a
// connected cycle of length lcm(p₁..p_r) = ∏ pᵢ, while the database has
// only Θ(Σ pᵢ) facts. We report the atoms of the returned explanation (the
// product's core, which the theorem bounds below by the lcm), the largest
// product the positive fold materialized, and the lcm against |D|.

#include <benchmark/benchmark.h>

#include "qbe/qbe.h"
#include "workload/thm57.h"

namespace featsep {
namespace {

void BM_Thm67ProductExplanation(benchmark::State& state) {
  std::size_t r = static_cast<std::size_t>(state.range(0));
  PrimeCycleFamily family = MakePrimeCycleFamily(r);
  QbeInstance instance{&family.training->database(), family.positives,
                       {family.negative}};
  QbeOptions options;
  options.max_product_facts = 100000000;

  bool exists = false;
  std::size_t product_facts = 0;
  std::size_t atoms = 0;
  for (auto _ : state) {
    QbeResult result = SolveCqQbe(instance, options);
    exists = result.exists;
    product_facts = result.product_facts;
    if (result.explanation.has_value()) {
      atoms = result.explanation->NumAtoms(true);
    }
    benchmark::DoNotOptimize(result.exists);
  }
  state.counters["db_facts"] =
      static_cast<double>(family.training->database().size());
  state.counters["explanation_exists"] = exists ? 1 : 0;
  state.counters["product_facts"] = static_cast<double>(product_facts);
  state.counters["explanation_atoms"] = static_cast<double>(atoms);
  state.counters["lcm_lower_bound"] = static_cast<double>(family.lcm);
}
BENCHMARK(BM_Thm67ProductExplanation)->Arg(1)->Arg(2)->Arg(3);

}  // namespace
}  // namespace featsep
