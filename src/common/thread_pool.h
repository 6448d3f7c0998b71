// Fixed-size thread pool (no work stealing): a mutex-protected FIFO of
// tasks drained by `threads` workers.
//
// `parallel_for` is the dynamic-scheduling convenience built on top: one
// shared atomic index, each worker pulls the next unclaimed item. Long and
// short items interleave without static partitioning imbalance. The
// analysis supervisor fans per-property CEGAR runs through it
// (checker/supervisor.cc) and the chaos matrix fans fault regimes
// (testing/chaos.cc); both write results into pre-sized vectors by index,
// so parallel output is byte-identical to sequential.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace procheck {

class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to >= 1).
  explicit ThreadPool(std::size_t threads);
  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks must not throw (the pool has no result channel;
  /// callers report through captured state).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing.
  void wait();

  std::size_t thread_count() const { return workers_.size(); }

  /// max(1, std::thread::hardware_concurrency()) — the CLI's --jobs default.
  static std::size_t default_parallelism();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> tasks_;
  std::size_t active_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Runs fn(0) .. fn(count - 1) across `jobs` workers with dynamic
/// scheduling (one shared index; each worker claims the next item). With
/// jobs <= 1 the calls happen inline on the calling thread — no pool, no
/// synchronization — so sequential callers pay nothing.
void parallel_for(std::size_t jobs, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

}  // namespace procheck
