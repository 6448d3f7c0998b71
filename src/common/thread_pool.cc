#include "common/thread_pool.h"

#include <atomic>

namespace procheck {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    tasks_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return tasks_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping_ and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
      ++active_;
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      --active_;
      if (tasks_.empty() && active_ == 0) all_done_.notify_all();
    }
  }
}

std::size_t ThreadPool::default_parallelism() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

void parallel_for(std::size_t jobs, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  if (jobs <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  if (jobs > count) jobs = count;
  ThreadPool pool(jobs);
  std::atomic<std::size_t> next{0};
  for (std::size_t w = 0; w < jobs; ++w) {
    pool.submit([&] {
      for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
        fn(i);
      }
    });
  }
  pool.wait();
}

}  // namespace procheck
