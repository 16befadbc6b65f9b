#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace coral::par {

/// A fixed-size worker pool. Tasks are arbitrary callables; `wait_idle`
/// blocks until every submitted task has completed. Exceptions thrown by
/// tasks are captured and rethrown (first one) from wait_idle().
///
/// No library path submits work to a pool: every read, write and the
/// co-analysis itself run on the calling thread. The class stays because
/// the e2e benchmark package still builds one and hands it to options that
/// ignore it. Since wait_idle() is a whole-pool barrier, one caller uses a
/// pool at a time.
class ThreadPool {
 public:
  /// `threads == 0` selects hardware_concurrency() (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task for execution.
  void submit(std::function<void()> task);

  /// Block until all submitted tasks finished; rethrows the first captured
  /// task exception, if any.
  void wait_idle();

  std::size_t thread_count() const { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

}  // namespace coral::par
