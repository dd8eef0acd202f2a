#include "util/retry.h"

#include <algorithm>
#include <thread>

namespace featsep {

namespace {

std::uint64_t NextJitter(std::uint64_t* state) {
  *state ^= *state >> 12;
  *state ^= *state << 25;
  *state ^= *state >> 27;
  return *state * 0x2545f4914f6cdd1dULL;
}

}  // namespace

RetryOutcome RetryCall(const RetryPolicy& policy, ExecutionBudget* budget,
                       const std::function<bool()>& op) {
  RetryOutcome outcome;
  const int max_attempts = std::max(1, policy.max_attempts);
  std::uint64_t jitter_state =
      policy.jitter_seed == 0 ? 0 : policy.jitter_seed;
  std::chrono::microseconds backoff = policy.initial_backoff;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (!RecheckBudget(budget)) return outcome;
    ++outcome.attempts;
    if (op()) {
      outcome.ok = true;
      return outcome;
    }
    if (attempt + 1 == max_attempts) break;
    std::chrono::microseconds wait = std::min(backoff, policy.max_backoff);
    if (jitter_state != 0 && wait.count() > 0) {
      // Scale into [50%, 100%]: full decorrelation without ever waiting
      // longer than the nominal backoff.
      const std::uint64_t draw = NextJitter(&jitter_state) % 512;
      wait = std::chrono::microseconds(
          wait.count() / 2 + (wait.count() / 2) * draw / 511);
    }
    if (wait.count() > 0) {
      if (!RecheckBudget(budget)) return outcome;
      std::this_thread::sleep_for(wait);
    }
    backoff = std::min(backoff * 2, policy.max_backoff);
  }
  return outcome;
}

}  // namespace featsep
