#ifndef FEATSEP_UTIL_RETRY_H_
#define FEATSEP_UTIL_RETRY_H_

#include <chrono>
#include <cstdint>
#include <functional>

#include "util/budget.h"

namespace featsep {

/// Bounded-retry policy for transient I/O faults: up to max_attempts tries,
/// exponential backoff between them, deterministic seeded jitter so
/// colliding retriers decorrelate without nondeterminism in tests. Defaults
/// are "try once, no waiting" — retrying is always an explicit choice.
struct RetryPolicy {
  /// Total tries including the first; 1 disables retrying, 0 is treated as 1.
  int max_attempts = 1;
  /// Backoff before the first retry; each further retry doubles it, up to
  /// max_backoff.
  std::chrono::microseconds initial_backoff{0};
  std::chrono::microseconds max_backoff{5000};
  /// Seed for the jitter stream (each backoff is scaled into
  /// [50%, 100%] of its nominal value). 0 disables jitter.
  std::uint64_t jitter_seed = 0;
};

struct RetryOutcome {
  bool ok = false;
  /// Attempts actually made (>= 1 unless the budget was already exhausted).
  std::uint32_t attempts = 0;
  /// Retries beyond the first attempt — what the per-site counters report.
  std::uint32_t retries() const { return attempts > 1 ? attempts - 1 : 0; }
  bool gave_up() const { return !ok; }
};

/// Runs `op` until it returns true or the policy is exhausted, sleeping the
/// backoff between attempts. Budget-aware so deadlines still win: the budget
/// (nullable) is rechecked before every attempt and before every sleep, and
/// an interrupted budget stops the retry loop immediately — a retrying
/// store must never hold a request past its deadline.
RetryOutcome RetryCall(const RetryPolicy& policy, ExecutionBudget* budget,
                       const std::function<bool()>& op);

}  // namespace featsep

#endif  // FEATSEP_UTIL_RETRY_H_
