#include "testing/faults.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "cq/homomorphism.h"
#include "test_util.h"
#include "util/budget.h"
#include "util/parallel.h"

namespace featsep {
namespace testing {
namespace {

// Drives the probe directly: each call is one visit of kHomNode, exactly
// what an instrumented kernel event does.
void VisitHomNode() { FEATSEP_FAULT_POINT(kHomNode); }

TEST(FaultsTest, DisarmedProbeIsInert) {
  DisarmFaults();
  EXPECT_FALSE(FaultArmed());
  for (int i = 0; i < 100; ++i) VisitHomNode();  // Must not throw or count.
}

TEST(FaultsTest, FiresExactlyOnceAtTriggerVisit) {
  ExecutionBudget budget;
  FaultSpec spec;
  spec.site = CoverageSite::kHomNode;
  spec.kind = FaultKind::kCancel;
  spec.trigger_visit = 5;
  ScopedFault fault(spec, &budget);
  EXPECT_TRUE(FaultArmed());
  for (int i = 0; i < 4; ++i) VisitHomNode();
  EXPECT_EQ(FaultSiteVisits(), 4u);
  EXPECT_EQ(FaultFireCount(), 0u);
  EXPECT_FALSE(budget.cancel_requested());
  VisitHomNode();  // The 5th visit trips.
  EXPECT_EQ(FaultFireCount(), 1u);
  EXPECT_TRUE(budget.cancel_requested());
  // Later visits keep counting but never re-fire.
  for (int i = 0; i < 10; ++i) VisitHomNode();
  EXPECT_EQ(FaultSiteVisits(), 15u);
  EXPECT_EQ(FaultFireCount(), 1u);
}

TEST(FaultsTest, OtherSitesDoNotCount) {
  ExecutionBudget budget;
  FaultSpec spec;
  spec.site = CoverageSite::kSimplexPivot;
  spec.trigger_visit = 1;
  ScopedFault fault(spec, &budget);
  for (int i = 0; i < 20; ++i) VisitHomNode();
  EXPECT_EQ(FaultSiteVisits(), 0u);
  EXPECT_EQ(FaultFireCount(), 0u);
}

TEST(FaultsTest, CancelKindOnlyRaisesTheFlag) {
  // kCancel mirrors a real abandon: the flag goes up, but the outcome
  // latches at the victim's NEXT budget check — so a cancel landing on the
  // final kernel event legitimately lets the run complete.
  ExecutionBudget budget;
  FaultSpec spec;
  spec.kind = FaultKind::kCancel;
  ScopedFault fault(spec, &budget);
  VisitHomNode();
  EXPECT_TRUE(budget.cancel_requested());
  EXPECT_FALSE(budget.Interrupted());
  EXPECT_FALSE(budget.Charge());
  EXPECT_EQ(budget.outcome(), BudgetOutcome::kCancelled);
}

TEST(FaultsTest, TimeoutKindLatchesImmediately) {
  ExecutionBudget budget;
  FaultSpec spec;
  spec.kind = FaultKind::kTimeout;
  ScopedFault fault(spec, &budget);
  VisitHomNode();
  EXPECT_TRUE(budget.Interrupted());
  EXPECT_EQ(budget.outcome(), BudgetOutcome::kTimedOut);
}

TEST(FaultsTest, BadAllocKindThrows) {
  FaultSpec spec;
  spec.kind = FaultKind::kBadAlloc;
  spec.trigger_visit = 3;
  ScopedFault fault(spec, /*budget=*/nullptr);
  VisitHomNode();
  VisitHomNode();
  EXPECT_THROW(VisitHomNode(), std::bad_alloc);
  EXPECT_EQ(FaultFireCount(), 1u);
  VisitHomNode();  // Fires only once; later visits are harmless.
}

TEST(FaultsTest, CancelWithNullBudgetCountsButIsANoOp) {
  FaultSpec spec;
  spec.kind = FaultKind::kCancel;
  ScopedFault fault(spec, /*budget=*/nullptr);
  VisitHomNode();
  EXPECT_EQ(FaultFireCount(), 1u);
}

TEST(FaultsTest, ScopedFaultDisarmsOnUnwind) {
  FaultSpec spec;
  spec.kind = FaultKind::kBadAlloc;
  try {
    ScopedFault fault(spec, nullptr);
    VisitHomNode();
    FAIL() << "expected bad_alloc";
  } catch (const std::bad_alloc&) {
  }
  EXPECT_FALSE(FaultArmed());
  // Counters survive disarm for post-mortem inspection until re-armed.
  EXPECT_EQ(FaultFireCount(), 1u);
  ExecutionBudget budget;
  ArmFault(FaultSpec{}, &budget);
  EXPECT_EQ(FaultFireCount(), 0u);  // Re-arming resets.
  DisarmFaults();
}

TEST(FaultsTest, RearmingResetsVisitCounter) {
  ExecutionBudget budget;
  {
    ScopedFault fault(FaultSpec{}, &budget);
    for (int i = 0; i < 7; ++i) VisitHomNode();
    EXPECT_EQ(FaultSiteVisits(), 7u);
  }
  ExecutionBudget fresh;
  ScopedFault fault(FaultSpec{}, &fresh);
  EXPECT_EQ(FaultSiteVisits(), 0u);
}

TEST(FaultsTest, BadAllocUnwindsOutOfTheHomKernel) {
  // End-to-end: an allocation failure injected at the first search node must
  // propagate out of FindHomomorphism as std::bad_alloc without crashing.
  std::shared_ptr<const Schema> schema = GraphSchema();
  Database from(schema);
  AddPath(from, "p", 3);
  Database to(schema);
  AddCycle(to, "c", 4);
  FaultSpec spec;
  spec.site = CoverageSite::kHomNode;
  spec.kind = FaultKind::kBadAlloc;
  spec.trigger_visit = 1;
  ScopedFault fault(spec, nullptr);
  EXPECT_THROW(FindHomomorphism(from, to), std::bad_alloc);
  EXPECT_EQ(FaultFireCount(), 1u);
}

TEST(FaultsTest, TimeoutInterruptsTheHomKernel) {
  // A forced deadline expiry at the first node must surface as kExhausted
  // with outcome kTimedOut — never as a definitive kNone.
  std::shared_ptr<const Schema> schema = GraphSchema();
  Database from(schema);
  AddPath(from, "p", 4);
  Database to(schema);
  AddCycle(to, "c", 5);  // A 4-path maps into any cycle: uninterrupted kFound.
  ExecutionBudget budget;
  FaultSpec spec;
  spec.site = CoverageSite::kHomNode;
  spec.kind = FaultKind::kTimeout;
  spec.trigger_visit = 1;
  HomResult interrupted;
  {
    ScopedFault fault(spec, &budget);
    interrupted = FindHomomorphism(from, to, {}, &budget);
  }
  EXPECT_EQ(interrupted.status, HomStatus::kExhausted);
  EXPECT_EQ(interrupted.outcome, BudgetOutcome::kTimedOut);
  // Resume: the disarmed rerun with a fresh budget completes and finds the
  // witness the interrupted run was denied.
  ExecutionBudget fresh;
  HomResult done = FindHomomorphism(from, to, {}, &fresh);
  EXPECT_EQ(done.status, HomStatus::kFound);
  EXPECT_EQ(done.outcome, BudgetOutcome::kCompleted);
}

TEST(FaultsTest, BadAllocPropagatesThroughParallelFor) {
  // The fired fault throws on exactly one worker; ParallelFor must hand that
  // single bad_alloc to the caller and stop the siblings.
  FaultSpec spec;
  spec.site = CoverageSite::kHomNode;
  spec.kind = FaultKind::kBadAlloc;
  spec.trigger_visit = 50;
  WarmUnwinder(std::bad_alloc());
  ScopedFault fault(spec, nullptr);
  std::atomic<std::size_t> visited{0};
  EXPECT_THROW(ParallelFor(4, 100000,
                           [&](std::size_t) {
                             visited.fetch_add(1, std::memory_order_relaxed);
                             SlowItem();
                             VisitHomNode();
                           }),
               std::bad_alloc);
  EXPECT_EQ(FaultFireCount(), 1u);
  EXPECT_LT(visited.load(), 100000u / 2);
}

}  // namespace
}  // namespace testing
}  // namespace featsep
