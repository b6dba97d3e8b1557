#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace uap2p {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(500);
  parallel_for(500, [&](std::size_t i) { ++hits[i]; }, 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroIterationsIsNoop) {
  parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelFor, SingleThreadFallback) {
  std::vector<int> order;
  parallel_for(10, [&](std::size_t i) { order.push_back(int(i)); }, 1);
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);  // sequential when threads == 1
}

TEST(ParallelFor, RethrowsFirstException) {
  EXPECT_THROW(
      parallel_for(
          100,
          [](std::size_t i) {
            if (i == 13) throw std::logic_error("unlucky");
          },
          4),
      std::logic_error);
}

TEST(ParallelFor, NestedCallRunsInlineOnWorker) {
  // A parallel_for issued from inside another one must run inline on the
  // thread that issued it (a pool worker or the outer caller), never
  // block a worker on lanes queued behind it, and still cover every inner
  // index exactly once.
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 16;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  std::atomic<int> off_thread{0};
  parallel_for(
      kOuter,
      [&](std::size_t i) {
        const std::thread::id caller = std::this_thread::get_id();
        parallel_for(
            kInner,
            [&](std::size_t j) {
              if (std::this_thread::get_id() != caller) ++off_thread;
              ++hits[i * kInner + j];
            },
            4);
      },
      4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(ParallelFor, SumReduction) {
  std::atomic<long long> sum{0};
  parallel_for(1000, [&](std::size_t i) { sum += long(i); }, 3);
  EXPECT_EQ(sum.load(), 999LL * 1000 / 2);
}

}  // namespace
}  // namespace uap2p
