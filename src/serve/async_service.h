#ifndef FEATSEP_SERVE_ASYNC_SERVICE_H_
#define FEATSEP_SERVE_ASYNC_SERVICE_H_

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "cq/cq.h"
#include "relational/database.h"
#include "serve/eval_service.h"
#include "util/budget.h"

namespace featsep {
namespace serve {

/// Priority class of a request. Interactive requests are always dequeued
/// before batch requests, and the two classes have separate admission
/// queues, so a saturated batch backlog can never starve or reject an
/// interactive caller (no priority inversion at admission or dispatch).
enum class RequestPriority : std::uint8_t {
  kInteractive = 0,
  kBatch = 1,
};
constexpr std::size_t kNumRequestPriorities = 2;

/// Short stable name ("interactive", "batch").
const char* RequestPriorityName(RequestPriority priority);

/// Lifecycle of a request (DESIGN.md §12):
///
///   Submit ──admitted──▶ kQueued ──dispatch──▶ kRunning ──▶ kCompleted
///      │                    │                     ├────────▶ kExpired
///      └──queue full──▶ kRejected                 └────────▶ kCancelled
///                           └─(deadline/cancel while queued)─▶ kExpired/
///                                                              kCancelled
///
/// kCompleted, kExpired, kRejected, and kCancelled are terminal; kQueued
/// and kRunning are transient snapshots.
enum class RequestState : std::uint8_t {
  kQueued = 0,
  kRunning,
  kCompleted,  ///< Every answer definitive; bit-identical to the serial path.
  kExpired,    ///< The request's deadline or step budget tripped.
  kRejected,   ///< Shed at admission: queue full (or service shutting down).
  kCancelled,  ///< Cancel() reached the request before it completed.
};

/// Short stable name ("queued", "running", "completed", ...).
const char* RequestStateName(RequestState state);

/// Options for the asynchronous front-end. `serve` configures the shared
/// backend EvalService (shards, entity blocks, answer cache).
struct AsyncServeOptions {
  ServeOptions serve;
  /// Admission bound per priority class: a Submit finding this many
  /// requests of its class already queued is rejected immediately with a
  /// structured kRejected result (load shedding, never blocking). 0 =
  /// unbounded (admission control off).
  std::size_t queue_capacity = 256;
  /// Dispatcher threads pulling requests off the queues; 0 = hardware
  /// concurrency. Each dispatcher fans its request's shards out on the
  /// process-wide pool (util/parallel.h), which all dispatchers share, so
  /// dispatchers add at most one thread each on top of the pool.
  std::size_t num_dispatchers = 1;
};

/// Per-request Submit parameters.
struct SubmitOptions {
  RequestPriority priority = RequestPriority::kInteractive;
  /// Deadline measured from Submit; unset = no deadline. A zero (or
  /// negative) value is an already-expired deadline: the request is
  /// admitted and completes as kExpired without touching the kernel.
  std::optional<ExecutionBudget::Clock::duration> timeout;
  /// Deterministic step budget (ExecutionBudget::WithStepLimit); 0 = none.
  /// Unlike wall-clock deadlines, step limits interrupt at reproducible
  /// points, which the async fuzz driver relies on.
  std::uint64_t step_limit = 0;
};

/// Terminal result of a request. `answers` has one entry per submitted
/// feature; an entry may be nullptr when the request did not complete
/// (kExpired/kCancelled leave the features the budget interrupted
/// unanswered, kRejected answers nothing). Every NON-null answer is
/// definitive and bit-identical to the serial evaluation path regardless of
/// the request's terminal state — an interrupted request returns either
/// nothing or the truth for a feature, never a partial answer (the backend
/// never caches aborted shards; DESIGN.md §8/§12).
struct RequestResult {
  RequestState state = RequestState::kCompleted;
  /// Which budget limit tripped, for kExpired (kTimedOut/kBudgetExhausted)
  /// and kCancelled (kCancelled); kCompleted otherwise. A kRejected request
  /// never constructs kernel work, so its outcome stays kCompleted.
  BudgetOutcome budget_outcome = BudgetOutcome::kCompleted;
  /// 1-based dispatch order across the service (0 = never dispatched:
  /// rejected, or cancelled/expired while still queued). With a single
  /// dispatcher, an interactive request always receives a lower sequence
  /// number than any batch request that was queued when it arrived.
  std::uint64_t sequence = 0;
  std::vector<std::shared_ptr<const FeatureAnswer>> answers;

  bool complete() const { return state == RequestState::kCompleted; }
};

/// Per-priority-class observability counters.
struct RequestClassStats {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;   ///< Shed at admission (queue full/shutdown).
  std::uint64_t completed = 0;
  std::uint64_t expired = 0;    ///< Deadline or step budget tripped.
  std::uint64_t cancelled = 0;
  /// Highest queue depth ever observed at admission (≤ queue_capacity when
  /// admission control is on).
  std::size_t queue_high_water = 0;
};

/// Snapshot of the front-end's counters; `of()` indexes by priority.
struct AsyncServeStats {
  std::array<RequestClassStats, kNumRequestPriorities> classes;
  /// Requests handed to a dispatcher so far (the sequence counter).
  std::uint64_t dispatched = 0;

  const RequestClassStats& of(RequestPriority priority) const {
    return classes[static_cast<std::size_t>(priority)];
  }
};

class AsyncEvalService;

/// Caller-side handle to one submitted request: poll, block, or cancel.
/// Copyable (all copies refer to the same request) and cheap to pass by
/// value; safe to use from any thread, including after the service is
/// destroyed (the result outlives the service).
class RequestHandle {
 public:
  RequestHandle();
  RequestHandle(const RequestHandle&);
  RequestHandle(RequestHandle&&) noexcept;
  RequestHandle& operator=(const RequestHandle&);
  RequestHandle& operator=(RequestHandle&&) noexcept;
  ~RequestHandle();

  bool valid() const;
  std::uint64_t id() const;
  RequestPriority priority() const;

  /// Current state snapshot (transient states included). Monotone: once a
  /// terminal state is visible it never changes.
  RequestState state() const;
  bool done() const;

  /// Non-blocking: the terminal result once the request finished, nullopt
  /// while it is still queued or running. Repeatable.
  std::optional<RequestResult> Poll() const;

  /// Blocks until the request reaches a terminal state. Never blocks for a
  /// rejected request (its result is ready before Submit returns).
  const RequestResult& Wait() const;

  /// Requests cancellation: latches the request's budget, so a queued
  /// request terminalizes as kCancelled at dequeue and a running one
  /// unwinds cooperatively (bounded by one kernel event + one clock
  /// stride). Completion can win the race — check the terminal state.
  void Cancel() const;

 private:
  friend class AsyncEvalService;
  struct Request;
  explicit RequestHandle(std::shared_ptr<Request> request);
  std::shared_ptr<Request> request_;
};

/// Asynchronous request front-end over the batched EvalService (DESIGN.md
/// §12): Submit enqueues a (features, database) evaluation request under a
/// priority class and returns immediately with a RequestHandle; dispatcher
/// threads drain the queues (interactive strictly before batch) and run
/// each request through the shared backend with the request's own
/// ExecutionBudget, so per-request deadlines cancel in-flight shards
/// cooperatively. Bounded queues shed load at admission with a structured
/// kRejected result instead of blocking the caller.
///
/// Determinism contract: for every request that terminates kCompleted, the
/// answers are bit-identical to the serial path (`num_shards = 1`, no
/// cache), independent of dispatcher count, shard count, queue pressure,
/// and interleaving with expired/cancelled/rejected requests — interrupted
/// evaluations are never cached, so they cannot leak into later answers.
///
/// Destruction is a clean shutdown: queued requests terminalize as
/// kCancelled without running, in-flight budgets are cancelled, and every
/// handle's result is ready before the destructor returns.
class AsyncEvalService {
 public:
  explicit AsyncEvalService(const AsyncServeOptions& options = {});
  ~AsyncEvalService();

  AsyncEvalService(const AsyncEvalService&) = delete;
  AsyncEvalService& operator=(const AsyncEvalService&) = delete;

  const AsyncServeOptions& options() const { return options_; }

  /// Enqueues one evaluation request. `db` must stay unchanged until the
  /// request terminates (the shared_ptr keeps it alive). Never blocks: a
  /// full queue rejects, an admitted request returns a handle to poll or
  /// wait on.
  RequestHandle Submit(std::vector<ConjunctiveQuery> features,
                       std::shared_ptr<const Database> db,
                       const SubmitOptions& submit = {});

  /// Holds dispatch: running requests finish, queued requests stay queued
  /// (their deadlines keep ticking). Admission stays open. For draining,
  /// maintenance, and deterministic queue-pressure tests.
  void PauseDispatch();
  void ResumeDispatch();

  /// Currently queued requests of one class.
  std::size_t queue_depth(RequestPriority priority) const;

  AsyncServeStats stats() const;

  /// The shared backend (cache + shard pool). Synchronous EvalService calls
  /// on it are safe and see the same cache the async path fills.
  EvalService& backend() { return backend_; }
  const EvalService& backend() const { return backend_; }

 private:
  using Request = RequestHandle::Request;

  void DispatcherLoop();
  /// Runs one admitted request to a terminal state on the calling thread.
  void RunRequest(const std::shared_ptr<Request>& request);
  /// Stores the terminal result, fulfills the future, bumps class counters.
  void Finish(const std::shared_ptr<Request>& request, RequestResult result);

  RequestClassStats& StatsOf(RequestPriority priority) {
    return stats_.classes[static_cast<std::size_t>(priority)];
  }

  AsyncServeOptions options_;
  EvalService backend_;

  mutable std::mutex mutex_;
  std::condition_variable dispatch_cv_;
  std::array<std::deque<std::shared_ptr<Request>>, kNumRequestPriorities>
      queues_;
  /// Budgets of requests currently running on a dispatcher, for shutdown
  /// cancellation. Guarded by mutex_.
  std::vector<std::shared_ptr<Request>> running_;
  AsyncServeStats stats_;
  std::uint64_t next_id_ = 1;
  bool paused_ = false;
  bool stop_ = false;

  std::vector<std::thread> dispatchers_;
};

}  // namespace serve
}  // namespace featsep

#endif  // FEATSEP_SERVE_ASYNC_SERVICE_H_
