#include "coral/common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <vector>

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

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for_chunks(
      n, 16,
      [&hits](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      },
      &pool);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, SerialFallbackWithoutPool) {
  std::vector<int> hits(100, 0);
  parallel_for_chunks(hits.size(), 1, [&hits](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i] += 1;
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for_chunks(0, 1, [&called](std::size_t, std::size_t) { called = true; }, &pool);
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SumMatchesSerial) {
  ThreadPool pool(3);
  const std::size_t n = 100000;
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) xs[i] = static_cast<double>(i % 17);
  std::vector<double> partial(64, 0.0);
  std::atomic<std::size_t> slot{0};
  parallel_for_chunks(
      n, 1024,
      [&](std::size_t begin, std::size_t end) {
        double local = 0;
        for (std::size_t i = begin; i < end; ++i) local += xs[i];
        partial[slot.fetch_add(1)] = local;
      },
      &pool);
  const double serial = std::accumulate(xs.begin(), xs.end(), 0.0);
  const double parallel = std::accumulate(partial.begin(), partial.end(), 0.0);
  EXPECT_DOUBLE_EQ(parallel, serial);
}

TEST(ParallelFor, MoveOnlyBodyUsesTemplatedOverload) {
  // A closure capturing a move-only value cannot be stored in std::function;
  // parallel_for_chunks runs it by reference instead of erasing it.
  ThreadPool pool(4);
  std::atomic<std::size_t> counter{0};
  auto token = std::make_unique<int>(7);
  parallel_for_chunks(
      5000, 16,
      [held = std::move(token), &counter](std::size_t begin, std::size_t end) {
        counter.fetch_add((end - begin) * static_cast<std::size_t>(*held) / 7);
      },
      &pool);
  EXPECT_EQ(counter.load(), 5000u);
}

TEST(ParallelFor, SmallRangeRunsAsOneChunkInline) {
  ThreadPool pool(4);
  std::vector<std::pair<std::size_t, std::size_t>> calls;
  parallel_for_chunks(
      8, 16,
      [&calls](std::size_t begin, std::size_t end) { calls.emplace_back(begin, end); },
      &pool);
  // n <= min_chunk: a single inline call, no pool round-trip.
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], (std::pair<std::size_t, std::size_t>{0, 8}));
}

}  // namespace
}  // namespace coral::par
