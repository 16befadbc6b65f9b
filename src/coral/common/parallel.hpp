#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace coral::par {

/// A fixed-size worker pool. Tasks are arbitrary callables; `wait_idle`
/// blocks until every submitted task has completed. Exceptions thrown by
/// tasks are captured and rethrown (first one) from wait_idle().
///
/// The pool pays in one place: the v3 RAS writer's block encode
/// (ras::WriteOptions::pool). Every read and the co-analysis itself run
/// serially. Since wait_idle() is a whole-pool barrier, one caller uses a
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

/// Split [0, n) into roughly even chunks and run `body(begin, end)` on each,
/// using `pool` if provided and worthwhile, else serially. `body` must be
/// safe to call concurrently on disjoint ranges.
///
/// Header-only: chunks are pulled off a shared atomic cursor by at most
/// `thread_count()` submitted tasks, each capturing a single pointer — no
/// heap-allocated closure per chunk (the lambda fits std::function's
/// small-buffer storage).
template <typename Body>
void parallel_for_chunks(std::size_t n, std::size_t min_chunk, Body&& body,
                         ThreadPool* pool = nullptr) {
  if (n == 0) return;
  const std::size_t threads = pool ? pool->thread_count() : 1;
  if (threads <= 1 || n <= min_chunk) {
    body(std::size_t{0}, n);
    return;
  }
  const std::size_t chunks = std::min(threads * 4, std::max<std::size_t>(1, n / min_chunk));
  const std::size_t step = (n + chunks - 1) / chunks;
  struct Cursor {
    std::remove_reference_t<Body>* body;
    std::size_t n;
    std::size_t step;
    std::atomic<std::size_t> next{0};
  };
  Cursor cursor{std::addressof(body), n, step, {}};
  const std::size_t tasks = std::min(threads, chunks);
  for (std::size_t t = 0; t < tasks; ++t) {
    pool->submit([c = &cursor] {
      for (;;) {
        const std::size_t begin = c->next.fetch_add(c->step, std::memory_order_relaxed);
        if (begin >= c->n) return;
        (*c->body)(begin, std::min(c->n, begin + c->step));
      }
    });
  }
  pool->wait_idle();
}

}  // namespace coral::par
