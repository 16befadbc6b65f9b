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

void ThreadPool::set_obs(obs::Collector* collector) {
  std::lock_guard lock(mu_);
  obs_ = collector;
  if (collector != nullptr) {
    queue_depth_ = &collector->histogram("pool.queue_depth");
    task_wait_ms_ = &collector->histogram("pool.task_wait_ms");
    task_run_ms_ = &collector->histogram("pool.task_run_ms");
    tasks_run_ = &collector->counter("pool.tasks");
  } else {
    queue_depth_ = task_wait_ms_ = task_run_ms_ = nullptr;
    tasks_run_ = nullptr;
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mu_);
    Task t{std::move(task), {}};
    if (obs_ != nullptr) {
      t.enqueued = obs::Clock::now();
      queue_depth_->record(static_cast<double>(tasks_.size() + 1));
    }
    tasks_.push(std::move(t));
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
    Task task;
    obs::Histogram* wait_hist = nullptr;
    obs::Histogram* run_hist = nullptr;
    obs::Counter* run_count = nullptr;
    {
      std::unique_lock lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      if (obs_ != nullptr) {
        wait_hist = task_wait_ms_;
        run_hist = task_run_ms_;
        run_count = tasks_run_;
      }
    }
    obs::Clock::time_point start{};
    if (run_hist != nullptr) {
      start = obs::Clock::now();
      wait_hist->record(
          std::chrono::duration<double, std::milli>(start - task.enqueued).count());
    }
    try {
      task.fn();
    } catch (...) {
      std::lock_guard lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    if (run_hist != nullptr) {
      run_hist->record(
          std::chrono::duration<double, std::milli>(obs::Clock::now() - start).count());
      run_count->add(1);
    }
    {
      std::lock_guard lock(mu_);
      if (--in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace coral::par
