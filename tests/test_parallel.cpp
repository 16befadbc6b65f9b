#include "coral/common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "coral/common/error.hpp"

namespace coral::par {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw Error("boom"); });
  EXPECT_THROW(pool.wait_idle(), Error);
  // Pool stays usable after an error.
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, ErrorLatchClearsAfterRethrow) {
  // wait_idle must clear the first-error latch before rethrowing: the error
  // belongs to the batch that raised it, and a later clean batch must not
  // re-report it.
  ThreadPool pool(2);
  pool.submit([] { throw Error("first batch boom"); });
  EXPECT_THROW(pool.wait_idle(), Error);
  pool.submit([] {});
  EXPECT_NO_THROW(pool.wait_idle());
  // An error is delivered exactly once, even across consecutive waits.
  EXPECT_NO_THROW(pool.wait_idle());
}

}  // namespace
}  // namespace coral::par
