#include "coral/common/parallel.hpp"

#include <algorithm>

namespace coral::par {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mu_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_) {
    // Clear the latch *before* rethrowing: the error belongs to the batch
    // that just drained, and a stale latch would make the next (clean)
    // wait_idle rethrow a failure its tasks never produced.
    std::exception_ptr e = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    try {
      task();
    } catch (...) {
      std::lock_guard lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::lock_guard lock(mu_);
      if (--in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace coral::par
