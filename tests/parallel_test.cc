#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace featsep {
namespace {

TEST(ParallelTest, EffectiveThreadsResolvesKnob) {
  EXPECT_GE(EffectiveThreads(0, 100), 1u);   // Auto is at least one.
  EXPECT_EQ(EffectiveThreads(1, 100), 1u);   // Explicit serial.
  EXPECT_EQ(EffectiveThreads(8, 3), 3u);     // Clamped to the work items.
  EXPECT_EQ(EffectiveThreads(8, 0), 1u);     // Never zero.
  EXPECT_GE(HardwareThreads(), 1u);
  EXPECT_EQ(EffectiveThreads(0, 1000), std::min<std::size_t>(
                                           HardwareThreads(), 1000));
}

TEST(ParallelTest, ForVisitsEveryIndexExactlyOnce) {
  for (std::size_t threads : {1ul, 2ul, 4ul, 16ul}) {
    constexpr std::size_t kItems = 1000;
    std::vector<std::atomic<int>> visits(kItems);
    ParallelFor(threads, kItems, [&](std::size_t i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kItems; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ParallelTest, ForOrderedResultsViaIndexedWrites) {
  constexpr std::size_t kItems = 512;
  for (std::size_t threads : {1ul, 4ul}) {
    std::vector<std::size_t> squares(kItems, 0);
    ParallelFor(threads, kItems, [&](std::size_t i) { squares[i] = i * i; });
    for (std::size_t i = 0; i < kItems; ++i) EXPECT_EQ(squares[i], i * i);
  }
}

TEST(ParallelTest, ForHandlesEmptyRange) {
  bool called = false;
  ParallelFor(4, 0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

// --- The shared pool ------------------------------------------------------

TEST(ParallelTest, ForNestedThreeLevelsVisitsEveryIndexOnce) {
  // Every level calls back into the pool from inside a work item; callers
  // run their own batches, so this neither deadlocks nor loses items.
  constexpr std::size_t kWidth = 4;
  std::vector<std::atomic<int>> visits(kWidth * kWidth * kWidth);
  ParallelFor(kWidth, kWidth, [&](std::size_t a) {
    ParallelFor(kWidth, kWidth, [&](std::size_t b) {
      ParallelFor(kWidth, kWidth, [&](std::size_t c) {
        visits[(a * kWidth + b) * kWidth + c].fetch_add(
            1, std::memory_order_relaxed);
      });
    });
  });
  for (std::size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelTest, ForConcurrentCallersOverlap) {
  // Each caller's first item waits until the other caller's batch is
  // running. Callers that queued behind one another would never meet; the
  // wait is bounded so a regression fails instead of hanging.
  std::atomic<int> started{0};
  std::atomic<bool> met[2] = {false, false};
  auto caller = [&](int id) {
    ParallelFor(4, 64, [&](std::size_t i) {
      if (i != 0) return;
      started.fetch_add(1);
      auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (started.load() < 2 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      met[id].store(started.load() == 2);
    });
  };
  std::thread first(caller, 0);
  std::thread second(caller, 1);
  first.join();
  second.join();
  EXPECT_TRUE(met[0].load());
  EXPECT_TRUE(met[1].load());
}

TEST(ParallelTest, ForCapsInFlightItemsAfterPoolGrew) {
  // Another thread keeps growing the pool to 16 and waking every worker
  // with wide batches; workers that finish one look for more work, and a
  // narrow batch must still keep to its own cap.
  std::atomic<bool> narrow_done{false};
  std::thread waker([&] {
    while (!narrow_done.load()) ParallelFor(16, 64, [](std::size_t) {});
  });
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  ParallelFor(2, 400, [&](std::size_t) {
    int now = in_flight.fetch_add(1) + 1;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    in_flight.fetch_sub(1);
  });
  narrow_done.store(true);
  waker.join();
  EXPECT_LE(peak.load(), 2);
  EXPECT_GE(peak.load(), 1);
}

TEST(ParallelTest, FindFirstMatchesSerialAnswer) {
  constexpr std::size_t kItems = 500;
  auto pred = [](std::size_t i) { return i % 97 == 41; };  // First hit: 41.
  std::size_t serial = ParallelFindFirst(1, kItems, pred);
  EXPECT_EQ(serial, 41u);
  for (std::size_t threads : {2ul, 4ul, 8ul}) {
    // Repeat to shake out scheduling races: the answer must be the serial
    // one every time, not just usually.
    for (int round = 0; round < 25; ++round) {
      EXPECT_EQ(ParallelFindFirst(threads, kItems, pred), serial);
    }
  }
}

TEST(ParallelTest, FindFirstNoMatchReturnsN) {
  auto never = [](std::size_t) { return false; };
  EXPECT_EQ(ParallelFindFirst(1, 100, never), 100u);
  EXPECT_EQ(ParallelFindFirst(4, 100, never), 100u);
  EXPECT_EQ(ParallelFindFirst(4, 0, never), 0u);
}

TEST(ParallelTest, FindFirstEvaluatesEveryIndexBelowTheAnswer) {
  // Determinism contract: indices below the returned match are all fully
  // evaluated, no matter which thread found the match first.
  constexpr std::size_t kItems = 400;
  constexpr std::size_t kMatch = 333;
  for (std::size_t threads : {2ul, 8ul}) {
    std::vector<std::atomic<int>> visits(kItems);
    std::size_t hit = ParallelFindFirst(threads, kItems, [&](std::size_t i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
      return i >= kMatch;
    });
    EXPECT_EQ(hit, kMatch);
    for (std::size_t i = 0; i < kMatch; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ParallelTest, FindFirstEmptyRangeNeverCallsPredicate) {
  for (std::size_t threads : {1ul, 2ul, 8ul}) {
    bool called = false;
    std::size_t hit = ParallelFindFirst(threads, 0, [&](std::size_t) {
      called = true;
      return true;
    });
    EXPECT_EQ(hit, 0u);
    EXPECT_FALSE(called);
  }
}

TEST(ParallelTest, FindFirstMoreThreadsThanItems) {
  // Oversubscription must neither skip nor double-evaluate indices, and
  // the minimal match must still win.
  constexpr std::size_t kItems = 3;
  for (int round = 0; round < 50; ++round) {
    std::vector<std::atomic<int>> visits(kItems);
    std::size_t hit = ParallelFindFirst(16, kItems, [&](std::size_t i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
      return i >= 1;
    });
    EXPECT_EQ(hit, 1u);
    EXPECT_EQ(visits[0].load(), 1);
    EXPECT_EQ(visits[1].load(), 1);
    EXPECT_LE(visits[2].load(), 1);  // May be skipped by early exit.
  }
  // All-match and no-match extremes under oversubscription.
  EXPECT_EQ(ParallelFindFirst(16, 2, [](std::size_t) { return true; }), 0u);
  EXPECT_EQ(ParallelFindFirst(16, 2, [](std::size_t) { return false; }), 2u);
}

TEST(ParallelTest, FindFirstSerialStopsAtTheMatch) {
  // The serial path short-circuits exactly like a hand-written loop.
  std::size_t evaluated = 0;
  std::size_t hit = ParallelFindFirst(1, 100000, [&](std::size_t i) {
    ++evaluated;
    return i == 17;
  });
  EXPECT_EQ(hit, 17u);
  EXPECT_EQ(evaluated, 18u);
}

// --- Exception propagation ------------------------------------------------
//
// Worker exceptions must surface in the calling thread (not std::terminate),
// sibling workers must stop claiming new items, and the first exception (by
// completion order) wins when several items throw.

struct ItemError : std::runtime_error {
  explicit ItemError(std::size_t i)
      : std::runtime_error("item " + std::to_string(i)), index(i) {}
  std::size_t index;
};

TEST(ParallelTest, ForRethrowsWorkerException) {
  for (std::size_t threads : {1ul, 2ul, 8ul}) {
    EXPECT_THROW(ParallelFor(threads, 100,
                             [](std::size_t i) {
                               if (i == 13) throw ItemError(i);
                             }),
                 ItemError);
  }
}

TEST(ParallelTest, ForExceptionCancelsSiblings) {
  // An early throw must stop the sweep well short of the full range: with
  // the abort flag honoured, visits stay far below n even though thousands
  // of items remain unclaimed at throw time.
  constexpr std::size_t kItems = 100000;
  testing::WarmUnwinder(ItemError(0));
  std::atomic<std::size_t> visits{0};
  try {
    ParallelFor(4, kItems, [&](std::size_t i) {
      visits.fetch_add(1, std::memory_order_relaxed);
      testing::SlowItem();
      if (i == 0) throw ItemError(i);
    });
    FAIL() << "expected ItemError";
  } catch (const ItemError& e) {
    EXPECT_EQ(e.index, 0u);
  }
  EXPECT_LT(visits.load(), kItems / 2) << "siblings kept claiming after throw";
}

TEST(ParallelTest, ForFirstExceptionWinsWhenAllThrow) {
  // Every item throws; exactly one exception must come out, carrying some
  // valid index — and nothing may leak or double-rethrow.
  for (int round = 0; round < 20; ++round) {
    try {
      ParallelFor(8, 64, [](std::size_t i) { throw ItemError(i); });
      FAIL() << "expected ItemError";
    } catch (const ItemError& e) {
      EXPECT_LT(e.index, 64u);
    }
  }
}

TEST(ParallelTest, ForBadAllocPropagates) {
  // Allocation failure is the fault-injection case: it must unwind through
  // the fan-out like any other exception.
  EXPECT_THROW(ParallelFor(4, 50,
                           [](std::size_t i) {
                             if (i == 7) throw std::bad_alloc();
                           }),
               std::bad_alloc);
}

TEST(ParallelTest, FindFirstRethrowsWorkerException) {
  for (std::size_t threads : {1ul, 2ul, 8ul}) {
    EXPECT_THROW(ParallelFindFirst(threads, 100,
                                   [](std::size_t i) -> bool {
                                     if (i == 23) throw ItemError(i);
                                     return false;
                                   }),
                 ItemError);
  }
}

TEST(ParallelTest, FindFirstExceptionCancelsSiblings) {
  constexpr std::size_t kItems = 100000;
  testing::WarmUnwinder(ItemError(0));
  std::atomic<std::size_t> visits{0};
  EXPECT_THROW(ParallelFindFirst(4, kItems,
                                 [&](std::size_t i) -> bool {
                                   visits.fetch_add(1,
                                                    std::memory_order_relaxed);
                                   testing::SlowItem();
                                   if (i == 0) throw ItemError(i);
                                   return false;
                                 }),
               ItemError);
  EXPECT_LT(visits.load(), kItems / 2) << "siblings kept claiming after throw";
}

// --- The process-wide worker pool ----------------------------------------
//
// Every ParallelFor and ParallelFindFirst call runs on one shared pool that
// outlives each batch. These cases check that the pool picks up batch after
// batch and survives a throwing batch.

TEST(ParallelTest, VisitsEveryIndexAcrossReusedBatches) {
  for (std::size_t threads : {1ul, 2ul, 8ul}) {
    // Several batches through the same persistent workers: they must pick
    // up each new batch, not just the first.
    for (int batch = 0; batch < 3; ++batch) {
      constexpr std::size_t kItems = 500;
      std::vector<std::atomic<int>> visits(kItems);
      ParallelFor(threads, kItems, [&](std::size_t i) {
        visits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < kItems; ++i) {
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
      }
    }
  }
}

TEST(ParallelTest, EmptyRangeNeverInvokes) {
  for (std::size_t threads : {1ul, 4ul}) {
    bool called = false;
    ParallelFor(threads, 0, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
  }
}

TEST(ParallelTest, FewerItemsThanWorkers) {
  std::vector<std::atomic<int>> visits(2);
  ParallelFor(8, 2, [&](std::size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(visits[0].load(), 1);
  EXPECT_EQ(visits[1].load(), 1);
}

TEST(ParallelTest, RethrowsWorkerExceptionAndStaysUsable) {
  for (std::size_t threads : {1ul, 2ul, 8ul}) {
    EXPECT_THROW(ParallelFor(threads, 100,
                             [](std::size_t i) {
                               if (i == 13) throw ItemError(i);
                             }),
                 ItemError);
    // The pool survives the throw: a clean batch afterwards still visits
    // every index exactly once.
    constexpr std::size_t kItems = 300;
    std::vector<std::atomic<int>> visits(kItems);
    ParallelFor(threads, kItems, [&](std::size_t i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kItems; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ParallelTest, ExceptionSkipsRemainingItems) {
  // A wide batch first grows the pool past the narrow batch's cap; the
  // extra idle workers must not keep the throwing batch running.
  ParallelFor(16, 64, [](std::size_t) {});
  constexpr std::size_t kItems = 100000;
  testing::WarmUnwinder(ItemError(0));
  std::atomic<std::size_t> visits{0};
  EXPECT_THROW(ParallelFor(4, kItems,
                           [&](std::size_t i) {
                             visits.fetch_add(1, std::memory_order_relaxed);
                             testing::SlowItem();
                             if (i == 0) throw ItemError(i);
                           }),
               ItemError);
  EXPECT_LT(visits.load(), kItems / 2) << "batch kept running after throw";
}

TEST(ParallelTest, BadAllocPropagatesAndPoolSurvives) {
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(ParallelFor(4, 50,
                             [](std::size_t i) {
                               if (i == 7) throw std::bad_alloc();
                             }),
                 std::bad_alloc);
  }
  std::atomic<bool> ran{false};
  ParallelFor(4, 1, [&](std::size_t) { ran = true; });
  EXPECT_TRUE(ran.load());
}

}  // namespace
}  // namespace featsep
