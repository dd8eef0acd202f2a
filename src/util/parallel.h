#ifndef FEATSEP_UTIL_PARALLEL_H_
#define FEATSEP_UTIL_PARALLEL_H_

#include <atomic>
#include <cstddef>
#include <memory>

namespace featsep {

/// The machine's hardware concurrency, at least 1: what a `num_threads = 0`
/// knob resolves to everywhere in the library.
std::size_t HardwareThreads();

/// Resolves a user-facing `num_threads` knob (0 = hardware concurrency,
/// 1 = serial) against the number of independent work items. Never returns 0.
inline std::size_t EffectiveThreads(std::size_t num_threads,
                                    std::size_t items) {
  if (num_threads == 0) num_threads = HardwareThreads();
  if (num_threads > items) num_threads = items;
  return num_threads == 0 ? 1 : num_threads;
}

namespace parallel_internal {

/// Type-erased work item: `run(context, i)`.
using ItemFn = void (*)(void* context, std::size_t i);

/// Runs items [0, n) on the process-wide pool with at most `threads`
/// participants, the calling thread included. Items are claimed in
/// increasing index order; claiming stops at the first index >= n, at an
/// index >= `*limit` when `limit` is set, or after an item throws. Returns
/// once every claimed item finished; rethrows the first exception.
void RunBatch(std::size_t threads, std::size_t n,
              const std::atomic<std::size_t>* limit, ItemFn run,
              void* context);

template <typename Fn>
void RunBatch(std::size_t threads, std::size_t n,
              const std::atomic<std::size_t>* limit, Fn& fn) {
  RunBatch(
      threads, n, limit,
      [](void* context, std::size_t i) { (*static_cast<Fn*>(context))(i); },
      const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
}

}  // namespace parallel_internal

/// Calls `fn(i)` exactly once for every i in [0, n), with at most
/// `num_threads` threads working on it at once (0 = hardware concurrency,
/// 1 = serial in the calling thread). The calling thread is one of them; the
/// others come from one process-wide worker pool, which grows to the largest
/// participant count ever requested and is shared by every call. Work is
/// claimed from an atomic counter, so items run in increasing claim order
/// but on arbitrary threads; when results must be ordered, write them into a
/// pre-sized vector at index i. Blocks until all items finish. `fn` must be
/// safe to call concurrently from distinct threads for distinct i.
///
/// Calls may nest (`fn` may itself call ParallelFor) and may come from many
/// threads at once: a caller always runs items of its own batch, idle pool
/// workers help any open batch, and a caller waits only for items another
/// thread has already claimed — so nesting cannot deadlock, and nested
/// sweeps share the pool instead of multiplying threads.
///
/// An exception thrown by `fn` does not terminate the process: the first
/// one (by completion order) is captured, sibling threads stop claiming new
/// items, and the exception is rethrown in the calling thread once every
/// claimed item finished. Items never claimed are skipped.
template <typename Fn>
void ParallelFor(std::size_t num_threads, std::size_t n, Fn&& fn) {
  if (n == 0) return;
  std::size_t threads = EffectiveThreads(num_threads, n);
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  parallel_internal::RunBatch(threads, n, nullptr, fn);
}

/// Returns the smallest i in [0, n) with `pred(i)` true, or n if none —
/// the same answer a serial first-match loop produces, for any thread count.
/// Runs on the same pool as ParallelFor. Indices are claimed in increasing
/// order and matches are published into an atomic minimum; claiming stops
/// once the next index reaches the current best (the early exit), so work
/// beyond the first match is bounded. Indices below the returned value are
/// always fully evaluated, which is what makes the result deterministic
/// under threading.
///
/// An exception thrown by `pred` is captured (first by completion order),
/// siblings stop claiming, and the exception is rethrown in the calling
/// thread — the return value is never produced.
template <typename Pred>
std::size_t ParallelFindFirst(std::size_t num_threads, std::size_t n,
                              Pred&& pred) {
  if (n == 0) return 0;
  std::size_t threads = EffectiveThreads(num_threads, n);
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      if (pred(i)) return i;
    }
    return n;
  }
  std::atomic<std::size_t> best{n};
  auto item = [&](std::size_t i) {
    if (!pred(i)) return;
    std::size_t current = best.load(std::memory_order_acquire);
    while (i < current &&
           !best.compare_exchange_weak(current, i,
                                       std::memory_order_acq_rel)) {
    }
  };
  parallel_internal::RunBatch(threads, n, &best, item);
  return best.load(std::memory_order_acquire);
}

}  // namespace featsep

#endif  // FEATSEP_UTIL_PARALLEL_H_
