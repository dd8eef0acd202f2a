#ifndef FEATSEP_TESTING_FAULTS_H_
#define FEATSEP_TESTING_FAULTS_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string_view>

#include "testing/coverage.h"
#include "util/budget.h"

namespace featsep {
namespace testing {

/// Deterministic fault injection for the robustness fuzzer and tests.
///
/// The harness piggybacks on the coverage-site registry (coverage.h): the
/// budget-relevant kernel events additionally carry a FEATSEP_FAULT_POINT
/// probe, and an armed fault fires at the N-th visit of a chosen site —
/// "cancel the request at the 37th hom node", "run out of memory at the 3rd
/// simplex pivot". Visits are counted with one global atomic, so exactly one
/// thread observes the trigger visit even when the instrumented kernel runs
/// inside a parallel sweep, and the (site, visit) pair makes the injection
/// reproducible whenever the underlying work is deterministic.
///
/// Cost model mirrors FEATSEP_COVERAGE: a disarmed probe is one relaxed
/// atomic load and a predictable branch. At most one fault is armed at a time (the fuzz
/// driver's model); arming and disarming must not race with instrumented
/// kernels still running.
enum class FaultKind : std::uint8_t {
  kCancel = 0,  ///< Calls Cancel() on the armed budget.
  kTimeout,     ///< Forces kTimedOut on the armed budget (deadline expiry).
  kBadAlloc,    ///< Throws std::bad_alloc out of the kernel event.
};

const char* FaultKindName(FaultKind kind);

/// The kind named `name` (the inverse of FaultKindName), or nullopt.
std::optional<FaultKind> FaultKindFromName(std::string_view name);

/// Where and when to fire: the `trigger_visit`-th (1-based) execution of a
/// FEATSEP_FAULT_POINT(site) probe.
struct FaultSpec {
  CoverageSite site = CoverageSite::kHomNode;
  FaultKind kind = FaultKind::kCancel;
  std::uint64_t trigger_visit = 1;
};

/// Arms `spec`, resetting the visit and fire counters. `budget` is the
/// budget the kCancel/kTimeout kinds act on (may be nullptr, in which case
/// those kinds fire as no-ops but still count).
void ArmFault(const FaultSpec& spec, ExecutionBudget* budget);

/// Disarms; the fire/visit counters survive for inspection until re-armed.
void DisarmFaults();

bool FaultArmed();

/// Times the armed fault actually fired (0 or 1 in practice).
std::uint64_t FaultFireCount();

/// Probe visits of the armed site since ArmFault().
std::uint64_t FaultSiteVisits();

/// RAII arm/disarm, exception-safe against the kBadAlloc kind unwinding
/// through the caller.
class ScopedFault {
 public:
  ScopedFault(const FaultSpec& spec, ExecutionBudget* budget) {
    ArmFault(spec, budget);
  }
  ~ScopedFault() { DisarmFaults(); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;
};

namespace faults_internal {

inline std::atomic<bool> g_fault_armed{false};

/// Slow path behind FEATSEP_FAULT_POINT; only called while armed.
void OnFaultPoint(CoverageSite site);

}  // namespace faults_internal
}  // namespace testing
}  // namespace featsep

/// Fault probe: a no-op unless a fault is armed. Placed beside the
/// FEATSEP_COVERAGE probe of the same site at the budget-relevant kernel
/// events (hom nodes/backtracks, GHW subproblems, cover-game fixpoint
/// steps, simplex pivots).
#define FEATSEP_FAULT_POINT(site)                                     \
  do {                                                                \
    if (::featsep::testing::faults_internal::g_fault_armed.load(      \
            std::memory_order_relaxed)) {                             \
      ::featsep::testing::faults_internal::OnFaultPoint(              \
          ::featsep::testing::CoverageSite::site);                    \
    }                                                                 \
  } while (0)

#endif  // FEATSEP_TESTING_FAULTS_H_
