#include "serve/async_service.h"

#include <algorithm>
#include <utility>

#include "util/parallel.h"

namespace featsep {
namespace serve {
namespace {

bool IsTerminal(RequestState state) {
  return state != RequestState::kQueued && state != RequestState::kRunning;
}

/// Builds the per-request budget from the resolved deadline/step-limit pair.
/// ExecutionBudget is non-copyable, so every return is a prvalue the caller
/// materializes in place (guaranteed elision).
ExecutionBudget MakeBudget(bool has_deadline,
                           ExecutionBudget::Clock::time_point deadline,
                           std::uint64_t step_limit) {
  if (has_deadline && step_limit != 0) {
    return ExecutionBudget::WithDeadlineAndStepLimit(deadline, step_limit);
  }
  if (has_deadline) return ExecutionBudget::WithDeadline(deadline);
  if (step_limit != 0) return ExecutionBudget::WithStepLimit(step_limit);
  return ExecutionBudget();
}

}  // namespace

const char* RequestPriorityName(RequestPriority priority) {
  switch (priority) {
    case RequestPriority::kInteractive:
      return "interactive";
    case RequestPriority::kBatch:
      return "batch";
  }
  return "?";
}

const char* RequestStateName(RequestState state) {
  switch (state) {
    case RequestState::kQueued:
      return "queued";
    case RequestState::kRunning:
      return "running";
    case RequestState::kCompleted:
      return "completed";
    case RequestState::kExpired:
      return "expired";
    case RequestState::kRejected:
      return "rejected";
    case RequestState::kCancelled:
      return "cancelled";
  }
  return "?";
}

struct RequestHandle::Request {
  Request(std::uint64_t id, RequestPriority priority,
          std::vector<ConjunctiveQuery> features,
          std::shared_ptr<const Database> db, bool has_deadline,
          ExecutionBudget::Clock::time_point deadline, std::uint64_t step_limit)
      : id(id),
        priority(priority),
        features(std::move(features)),
        db(std::move(db)),
        budget(MakeBudget(has_deadline, deadline, step_limit)),
        future(promise.get_future().share()) {}

  const std::uint64_t id;
  const RequestPriority priority;
  const std::vector<ConjunctiveQuery> features;
  const std::shared_ptr<const Database> db;
  ExecutionBudget budget;
  /// Dispatch order; written once by the dispatcher under the service
  /// mutex before the state flips to kRunning.
  std::uint64_t sequence = 0;
  std::atomic<RequestState> state{RequestState::kQueued};
  std::promise<RequestResult> promise;  // Must precede `future`.
  std::shared_future<RequestResult> future;
};

RequestHandle::RequestHandle() = default;
RequestHandle::RequestHandle(const RequestHandle&) = default;
RequestHandle::RequestHandle(RequestHandle&&) noexcept = default;
RequestHandle& RequestHandle::operator=(const RequestHandle&) = default;
RequestHandle& RequestHandle::operator=(RequestHandle&&) noexcept = default;
RequestHandle::~RequestHandle() = default;

RequestHandle::RequestHandle(std::shared_ptr<Request> request)
    : request_(std::move(request)) {}

bool RequestHandle::valid() const { return request_ != nullptr; }

std::uint64_t RequestHandle::id() const { return request_->id; }

RequestPriority RequestHandle::priority() const { return request_->priority; }

RequestState RequestHandle::state() const {
  return request_->state.load(std::memory_order_acquire);
}

bool RequestHandle::done() const { return IsTerminal(state()); }

std::optional<RequestResult> RequestHandle::Poll() const {
  if (request_ == nullptr || !IsTerminal(state())) return std::nullopt;
  // The terminal state is stored just before the promise is fulfilled, so
  // this get() is ready or at most an instruction-window away from it.
  return request_->future.get();
}

const RequestResult& RequestHandle::Wait() const {
  return request_->future.get();
}

std::shared_future<RequestResult> RequestHandle::future() const {
  return request_->future;
}

void RequestHandle::Cancel() const {
  if (request_ != nullptr) request_->budget.Cancel();
}

AsyncEvalService::AsyncEvalService(const AsyncServeOptions& options)
    : options_(options), backend_(options.serve) {
  const std::size_t n = options_.num_dispatchers == 0
                            ? HardwareThreads()
                            : options_.num_dispatchers;
  dispatchers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    dispatchers_.emplace_back([this] { DispatcherLoop(); });
  }
}

AsyncEvalService::~AsyncEvalService() {
  std::vector<std::shared_ptr<Request>> orphaned;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    paused_ = false;
    for (auto& queue : queues_) {
      orphaned.insert(orphaned.end(), queue.begin(), queue.end());
      queue.clear();
    }
    // In-flight requests unwind cooperatively; the joins below wait for
    // them, so every future is satisfied before destruction completes.
    for (const auto& request : running_) request->budget.Cancel();
  }
  dispatch_cv_.notify_all();
  for (const auto& request : orphaned) {
    request->budget.Cancel();
    RequestResult result;
    result.state = RequestState::kCancelled;
    result.budget_outcome = BudgetOutcome::kCancelled;
    result.answers.assign(request->features.size(), nullptr);
    Finish(request, std::move(result));
  }
  for (std::thread& dispatcher : dispatchers_) dispatcher.join();
}

RequestHandle AsyncEvalService::Submit(std::vector<ConjunctiveQuery> features,
                                       std::shared_ptr<const Database> db,
                                       const SubmitOptions& submit) {
  bool has_deadline = false;
  ExecutionBudget::Clock::time_point deadline{};
  const ExecutionBudget::Clock::duration timeout =
      submit.timeout.has_value() ? *submit.timeout : options_.default_timeout;
  if (submit.timeout.has_value() ||
      options_.default_timeout != ExecutionBudget::Clock::duration::zero()) {
    has_deadline = true;
    deadline = ExecutionBudget::Clock::now() + timeout;
  }

  const std::size_t index = static_cast<std::size_t>(submit.priority);
  std::shared_ptr<Request> request;
  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    RequestClassStats& cls = StatsOf(submit.priority);
    ++cls.submitted;
    const bool full = options_.queue_capacity != 0 &&
                      queues_[index].size() >= options_.queue_capacity;
    if (stop_ || full) {
      ++cls.rejected;
      request = std::make_shared<Request>(
          next_id_++, submit.priority, std::move(features), std::move(db),
          /*has_deadline=*/false, ExecutionBudget::Clock::time_point{},
          /*step_limit=*/0);
    } else {
      admitted = true;
      ++cls.accepted;
      request = std::make_shared<Request>(next_id_++, submit.priority,
                                          std::move(features), std::move(db),
                                          has_deadline, deadline,
                                          submit.step_limit);
      queues_[index].push_back(request);
      cls.queue_high_water =
          std::max(cls.queue_high_water, queues_[index].size());
    }
  }
  if (admitted) {
    dispatch_cv_.notify_one();
  } else {
    // Shed load with a structured result: the handle is terminal before
    // Submit even returns, so rejected callers never block.
    RequestResult result;
    result.state = RequestState::kRejected;
    result.answers.assign(request->features.size(), nullptr);
    request->state.store(RequestState::kRejected, std::memory_order_release);
    request->promise.set_value(std::move(result));
  }
  return RequestHandle(std::move(request));
}

void AsyncEvalService::PauseDispatch() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void AsyncEvalService::ResumeDispatch() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  dispatch_cv_.notify_all();
}

std::size_t AsyncEvalService::queue_depth(RequestPriority priority) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queues_[static_cast<std::size_t>(priority)].size();
}

AsyncServeStats AsyncEvalService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void AsyncEvalService::DispatcherLoop() {
  for (;;) {
    std::shared_ptr<Request> request;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      dispatch_cv_.wait(lock, [this] {
        if (stop_) return true;
        if (paused_) return false;
        for (const auto& queue : queues_) {
          if (!queue.empty()) return true;
        }
        return false;
      });
      if (stop_) return;
      // Strict priority: interactive (index 0) drains before batch sees
      // a dispatcher.
      for (auto& queue : queues_) {
        if (!queue.empty()) {
          request = queue.front();
          queue.pop_front();
          break;
        }
      }
    }
    if (request != nullptr) RunRequest(request);
  }
}

void AsyncEvalService::RunRequest(const std::shared_ptr<Request>& request) {
  RequestResult result;
  // A deadline that passed in the queue (or a Cancel() that raced admission)
  // terminalizes here without constructing kernel work; sequence stays 0.
  if (!request->budget.Recheck()) {
    result.budget_outcome = request->budget.outcome();
    result.state = result.budget_outcome == BudgetOutcome::kCancelled
                       ? RequestState::kCancelled
                       : RequestState::kExpired;
    result.answers.assign(request->features.size(), nullptr);
    Finish(request, std::move(result));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    request->sequence = ++stats_.dispatched;
    request->state.store(RequestState::kRunning, std::memory_order_release);
    running_.push_back(request);
    // Shutdown may have started between the dequeue and this registration;
    // cancel so the evaluation below unwinds instead of delaying the join.
    if (stop_) request->budget.Cancel();
  }
  result.sequence = request->sequence;
  result.answers =
      backend_.TryResolve(request->features, *request->db, &request->budget);
  result.budget_outcome = request->budget.outcome();
  switch (result.budget_outcome) {
    case BudgetOutcome::kCompleted:
      result.state = RequestState::kCompleted;
      break;
    case BudgetOutcome::kCancelled:
      result.state = RequestState::kCancelled;
      break;
    case BudgetOutcome::kTimedOut:
    case BudgetOutcome::kBudgetExhausted:
      result.state = RequestState::kExpired;
      break;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = std::find(running_.begin(), running_.end(), request);
    if (it != running_.end()) running_.erase(it);
  }
  Finish(request, std::move(result));
}

void AsyncEvalService::Finish(const std::shared_ptr<Request>& request,
                              RequestResult result) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    RequestClassStats& cls = StatsOf(request->priority);
    switch (result.state) {
      case RequestState::kCompleted:
        ++cls.completed;
        break;
      case RequestState::kExpired:
        ++cls.expired;
        break;
      case RequestState::kCancelled:
        ++cls.cancelled;
        break;
      default:
        break;
    }
  }
  // Terminal state first, then the promise: a ready future implies the
  // state() snapshot is already terminal.
  request->state.store(result.state, std::memory_order_release);
  request->promise.set_value(std::move(result));
}

}  // namespace serve
}  // namespace featsep
