#include "testing/faults.h"

#include <new>

#include "util/check.h"

namespace featsep {
namespace testing {
namespace {

// The armed plan. Individual atomics (not a struct under a mutex) so the
// probe's slow path is lock-free and clean under TSan even if a caller
// misuses arm/disarm; the documented contract is still that arming does not
// race with instrumented kernels.
std::atomic<std::uint16_t> g_site{0};
std::atomic<std::uint8_t> g_kind{0};
std::atomic<std::uint64_t> g_trigger{1};
std::atomic<ExecutionBudget*> g_budget{nullptr};
std::atomic<std::uint64_t> g_visits{0};
std::atomic<std::uint64_t> g_fired{0};

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCancel:
      return "cancel";
    case FaultKind::kTimeout:
      return "timeout";
    case FaultKind::kBadAlloc:
      return "bad-alloc";
  }
  return "unknown";
}

std::optional<FaultKind> FaultKindFromName(std::string_view name) {
  for (FaultKind kind :
       {FaultKind::kCancel, FaultKind::kTimeout, FaultKind::kBadAlloc}) {
    if (name == FaultKindName(kind)) return kind;
  }
  return std::nullopt;
}

void ArmFault(const FaultSpec& spec, ExecutionBudget* budget) {
  FEATSEP_CHECK(spec.site < CoverageSite::kNumSites);
  FEATSEP_CHECK_GE(spec.trigger_visit, 1u) << "visits are 1-based";
  g_site.store(static_cast<std::uint16_t>(spec.site),
               std::memory_order_relaxed);
  g_kind.store(static_cast<std::uint8_t>(spec.kind), std::memory_order_relaxed);
  g_trigger.store(spec.trigger_visit, std::memory_order_relaxed);
  g_budget.store(budget, std::memory_order_relaxed);
  g_visits.store(0, std::memory_order_relaxed);
  g_fired.store(0, std::memory_order_relaxed);
  faults_internal::g_fault_armed.store(true, std::memory_order_release);
}

void DisarmFaults() {
  faults_internal::g_fault_armed.store(false, std::memory_order_release);
  g_budget.store(nullptr, std::memory_order_relaxed);
}

bool FaultArmed() {
  return faults_internal::g_fault_armed.load(std::memory_order_acquire);
}

std::uint64_t FaultFireCount() {
  return g_fired.load(std::memory_order_acquire);
}

std::uint64_t FaultSiteVisits() {
  return g_visits.load(std::memory_order_acquire);
}

namespace faults_internal {

void OnFaultPoint(CoverageSite site) {
  if (static_cast<std::uint16_t>(site) !=
      g_site.load(std::memory_order_relaxed)) {
    return;
  }
  std::uint64_t visit = g_visits.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (visit != g_trigger.load(std::memory_order_relaxed)) return;
  g_fired.fetch_add(1, std::memory_order_acq_rel);
  ExecutionBudget* budget = g_budget.load(std::memory_order_relaxed);
  switch (static_cast<FaultKind>(g_kind.load(std::memory_order_relaxed))) {
    case FaultKind::kCancel:
      if (budget != nullptr) budget->Cancel();
      break;
    case FaultKind::kTimeout:
      if (budget != nullptr) budget->ForceOutcome(BudgetOutcome::kTimedOut);
      break;
    case FaultKind::kBadAlloc:
      throw std::bad_alloc();
  }
}

}  // namespace faults_internal
}  // namespace testing
}  // namespace featsep
