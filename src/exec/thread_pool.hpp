// Fixed-size thread pool for the sweep-execution layer.
//
// Deliberately work-stealing-free: one shared FIFO task queue guarded by a
// mutex + condition variable. The workloads this pool exists for (parameter
// sweeps, search batches) are coarse-grained -- each task is milliseconds
// to seconds of compute -- so a single queue's contention is negligible and
// the scheduling stays trivially easy to reason about. Determinism of sweep
// *results* never depends on scheduling order: tasks own their results slot
// and their RNG seed (see docs/DETERMINISM.md); only completion timing
// varies with thread count.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace ffc::exec {

/// A fixed pool of `num_threads` workers draining a shared task queue.
///
/// Lifecycle: workers start in the constructor and are joined in the
/// destructor. The destructor *drains* the queue -- every task submitted
/// before destruction runs to completion before the workers exit, so a
/// scope-exit is a synchronization point. submit() is the only way in:
/// its packaged_task captures whatever the task throws in the returned
/// std::future, so an exception never unwinds a worker thread (a dropped
/// future discards it).
class ThreadPool {
 public:
  /// Starts `num_threads` workers. A request for 0 threads is clamped to 1.
  explicit ThreadPool(std::size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains the queue, then joins all workers.
  ~ThreadPool();

  /// Number of worker threads.
  std::size_t size() const { return workers_.size(); }

  /// Enqueues a callable; returns a future for its result. If the callable
  /// throws, the exception is delivered through the future's get().
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> future = task->get_future();
    post([task] { (*task)(); });
    return future;
  }

  /// A sensible default worker count: hardware_concurrency(), clamped to at
  /// least 1 (the function may report 0 on exotic platforms).
  static std::size_t hardware_jobs();

 private:
  /// Enqueues a task that does not throw (submit()'s packaged_task).
  void post(std::function<void()> task);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  bool stopping_ = false;
};

}  // namespace ffc::exec
