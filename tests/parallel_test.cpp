// Tests for the thread pool and parallel_for.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "support/check.hpp"

namespace {

using lamb::parallel::ThreadPool;

TEST(ThreadPool, SizeCountsCallerAsParticipant) {
  ThreadPool p1(1);
  EXPECT_EQ(p1.size(), 1u);
  ThreadPool p4(4);
  EXPECT_EQ(p4.size(), 4u);
}

TEST(ThreadPool, ZeroThreadsRejected) {
  EXPECT_THROW(ThreadPool p(0), lamb::support::CheckError);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 4u, 7u}) {
    ThreadPool pool(threads);
    constexpr std::ptrdiff_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::ptrdiff_t b, std::ptrdiff_t e) {
      for (std::ptrdiff_t i = b; i < e; ++i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
      }
    });
    for (std::ptrdiff_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "index " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPool, EmptyRangeIsNoOp) {
  for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    std::atomic<int> calls{0};
    pool.parallel_for(0,
                      [&](std::ptrdiff_t, std::ptrdiff_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0) << "threads " << threads;
    // The pool stays usable after the no-op dispatch.
    pool.parallel_for(5, [&](std::ptrdiff_t b, std::ptrdiff_t e) {
      calls.fetch_add(static_cast<int>(e - b));
    });
    EXPECT_EQ(calls.load(), 5) << "threads " << threads;
  }
}

TEST(ThreadPool, NegativeRangeThrows) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(-1, [](std::ptrdiff_t, std::ptrdiff_t) {}),
      lamb::support::CheckError);
}

TEST(ThreadPool, SingleElementRunsOnCaller) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.parallel_for(1, [&](std::ptrdiff_t, std::ptrdiff_t) {
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPool, ReducesCorrectSum) {
  ThreadPool pool(4);
  constexpr std::ptrdiff_t n = 10000;
  std::atomic<long long> sum{0};
  pool.parallel_for(n, [&](std::ptrdiff_t b, std::ptrdiff_t e) {
    long long local = 0;
    for (std::ptrdiff_t i = b; i < e; ++i) {
      local += i;
    }
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), static_cast<long long>(n) * (n - 1) / 2);
}

TEST(ThreadPool, ExceptionFromWorkerPropagates) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::ptrdiff_t b, std::ptrdiff_t) {
                          if (b > 0) {  // throw only on a worker chunk
                            throw std::runtime_error("worker boom");
                          }
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ExceptionFromCallerChunkPropagates) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::ptrdiff_t b, std::ptrdiff_t) {
                          if (b == 0) {  // the caller runs the first chunk
                            throw std::runtime_error("caller boom");
                          }
                        }),
      std::runtime_error);
}

TEST(ThreadPool, UsableRepeatedlyAfterException) {
  ThreadPool pool(2);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(pool.parallel_for(10,
                                   [](std::ptrdiff_t, std::ptrdiff_t) {
                                     throw std::runtime_error("x");
                                   }),
                 std::runtime_error);
    std::atomic<int> count{0};
    pool.parallel_for(10, [&](std::ptrdiff_t b, std::ptrdiff_t e) {
      count.fetch_add(static_cast<int>(e - b));
    });
    EXPECT_EQ(count.load(), 10);
  }
}

TEST(ThreadPool, ManySequentialInvocations) {
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(37, [&](std::ptrdiff_t b, std::ptrdiff_t e) {
      count.fetch_add(static_cast<int>(e - b));
    });
    ASSERT_EQ(count.load(), 37);
  }
}

TEST(ThreadPool, ConcurrentCallersEachGetTheirFullRange) {
  // Regression: concurrent parallel_for calls used to clobber each other's
  // task slots (chunks lost for one caller, run twice for another). Calls
  // are now serialised behind a dispatch mutex; every caller must see its
  // own range covered exactly once.
  ThreadPool pool(4);
  constexpr int kCallers = 8;
  constexpr int kRounds = 50;
  constexpr std::ptrdiff_t kRange = 97;
  std::atomic<int> bad{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::atomic<int>> hits(kRange);
        pool.parallel_for(kRange, [&](std::ptrdiff_t b, std::ptrdiff_t e) {
          for (std::ptrdiff_t i = b; i < e; ++i) {
            hits[static_cast<std::size_t>(i)].fetch_add(1);
          }
        });
        for (std::ptrdiff_t i = 0; i < kRange; ++i) {
          if (hits[static_cast<std::size_t>(i)].load() != 1) {
            bad.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& caller : callers) {
    caller.join();
  }
  EXPECT_EQ(bad.load(), 0);
}

}  // namespace
