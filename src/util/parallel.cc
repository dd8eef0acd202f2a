#include "util/parallel.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace featsep {

std::size_t HardwareThreads() {
  static const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return hw;
}

namespace parallel_internal {
namespace {

/// One open ParallelFor / ParallelFindFirst call. It lives on the caller's
/// stack; the pool mutex guards its membership (`active` and the pool's open
/// list), so a worker can only touch a batch the caller is still waiting on.
struct Batch {
  std::size_t n = 0;
  std::size_t cap = 0;  // Most threads working on it at once, caller included.
  const std::atomic<std::size_t>* limit = nullptr;
  ItemFn run = nullptr;
  void* context = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> abort{false};
  std::size_t active = 1;  // Participants, the caller included.
  std::exception_ptr error;
  std::condition_variable drained;  // Signalled when `active` falls to 1.

  std::size_t End() const {
    return limit == nullptr
               ? n
               : std::min(n, limit->load(std::memory_order_acquire));
  }
  bool HasUnclaimed() const {
    return !abort.load(std::memory_order_acquire) &&
           next.load(std::memory_order_relaxed) < End();
  }
};

/// The process-wide worker pool, created on first use and joined at exit.
class Pool {
 public:
  static Pool& Get() {
    static Pool pool;
    return pool;
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    work_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  void Run(Batch& batch) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // Grow so that this batch alone can reach its cap.
      while (workers_.size() + 1 < batch.cap) {
        workers_.emplace_back([this] { WorkerLoop(); });
      }
      open_.push_back(&batch);
    }
    for (std::size_t k = 1; k < batch.cap; ++k) work_.notify_one();
    Help(batch);
    std::unique_lock<std::mutex> lock(mutex_);
    open_.erase(std::find(open_.begin(), open_.end(), &batch));
    batch.drained.wait(lock, [&] { return batch.active == 1; });
  }

 private:
  Pool() = default;

  /// Claims and runs items until none are left or the batch aborted.
  void Help(Batch& batch) {
    for (;;) {
      if (batch.abort.load(std::memory_order_acquire)) return;
      std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= batch.End()) return;
      try {
        batch.run(batch.context, i);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(mutex_);
          if (!batch.error) batch.error = std::current_exception();
        }
        batch.abort.store(true, std::memory_order_release);
        return;
      }
    }
  }

  /// An open batch with unclaimed items and a free participant slot.
  Batch* Joinable() const {
    for (Batch* batch : open_) {
      if (batch->active < batch->cap && batch->HasUnclaimed()) return batch;
    }
    return nullptr;
  }

  void WorkerLoop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      Batch* batch = nullptr;
      work_.wait(lock,
                 [&] { return stop_ || (batch = Joinable()) != nullptr; });
      if (batch == nullptr) return;
      ++batch->active;
      lock.unlock();
      Help(*batch);
      lock.lock();
      if (--batch->active == 1) batch->drained.notify_one();
    }
  }

  std::mutex mutex_;
  std::condition_variable work_;
  std::vector<Batch*> open_;
  bool stop_ = false;
  std::vector<std::thread> workers_;  // Last: the workers use the above.
};

}  // namespace

void RunBatch(std::size_t threads, std::size_t n,
              const std::atomic<std::size_t>* limit, ItemFn run,
              void* context) {
  Batch batch;
  batch.n = n;
  batch.cap = threads;
  batch.limit = limit;
  batch.run = run;
  batch.context = context;
  Pool::Get().Run(batch);
  if (batch.error) std::rethrow_exception(batch.error);
}

}  // namespace parallel_internal
}  // namespace featsep
