// Microbenchmarks for the SvoBitset word kernels (DESIGN.md §11): the
// homomorphism engine's forward checking is dominated by AND / popcount /
// scan passes over domain bitsets, so these isolate each primitive — and
// the fused probe that replaced a two-pass sequence — at sizes on both
// sides of the inline↔heap boundary (kInlineBits = 256). Compare a
// FEATSEP_NATIVE=ON build against the portable one to see what
// -march=native vectorization buys on this machine.

#include <cstdint>
#include <vector>

#include <benchmark/benchmark.h>

#include "util/svo_bitset.h"

namespace featsep::bench {
namespace {

// Benchmarked sizes: inline (64, 256) and heap (1024, 8192) universes.

SvoBitset Pattern(std::size_t size, std::uint64_t seed) {
  SvoBitset bits(size);
  for (std::size_t i = 0; i < size; ++i) {
    std::uint64_t h = (seed + i) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
    if (h & 1) bits.set(i);
  }
  return bits;
}

void BM_BitsetAnd(benchmark::State& state) {
  std::size_t size = static_cast<std::size_t>(state.range(0));
  SvoBitset a = Pattern(size, 1);
  SvoBitset b = Pattern(size, 2);
  for (auto _ : state) {
    SvoBitset c = a;
    c.intersect_with(b);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(size));
}
BENCHMARK(BM_BitsetAnd)->Arg(64)->Arg(256)->Arg(1024)->Arg(8192);

void BM_BitsetPopcount(benchmark::State& state) {
  std::size_t size = static_cast<std::size_t>(state.range(0));
  SvoBitset a = Pattern(size, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.count());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(size));
}
BENCHMARK(BM_BitsetPopcount)->Arg(64)->Arg(256)->Arg(1024)->Arg(8192);

// The two-pass shape the kernel used before the fused ops: copy + AND, then
// a separate popcount. Baseline for BM_BitsetAndCount.
void BM_BitsetAndThenCount(benchmark::State& state) {
  std::size_t size = static_cast<std::size_t>(state.range(0));
  SvoBitset a = Pattern(size, 4);
  SvoBitset b = Pattern(size, 5);
  for (auto _ : state) {
    SvoBitset c = a;
    c.intersect_with(b);
    benchmark::DoNotOptimize(c.count());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(size));
}
BENCHMARK(BM_BitsetAndThenCount)->Arg(64)->Arg(256)->Arg(1024)->Arg(8192);

// Fused read-only probe: popcount(a & b), no copy, no write — the
// PruneDomain "would this mask shrink the domain?" fast path.
void BM_BitsetAndCount(benchmark::State& state) {
  std::size_t size = static_cast<std::size_t>(state.range(0));
  SvoBitset a = Pattern(size, 4);
  SvoBitset b = Pattern(size, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.and_count(b));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(size));
}
BENCHMARK(BM_BitsetAndCount)->Arg(64)->Arg(256)->Arg(1024)->Arg(8192);

void BM_BitsetFindNextSweep(benchmark::State& state) {
  std::size_t size = static_cast<std::size_t>(state.range(0));
  SvoBitset a = Pattern(size, 8);
  for (auto _ : state) {
    std::size_t sum = 0;
    for (std::size_t bit = a.find_next(0); bit != SvoBitset::kNoBit;
         bit = a.find_next(bit + 1)) {
      sum += bit;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(size));
}
BENCHMARK(BM_BitsetFindNextSweep)->Arg(64)->Arg(256)->Arg(1024)->Arg(8192);

}  // namespace
}  // namespace featsep::bench
