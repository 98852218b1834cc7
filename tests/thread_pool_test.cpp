// dpmerge::support::ThreadPool: coverage, determinism of slot-writing
// workloads, nesting, and the shared-pool configuration contract.

#include "dpmerge/support/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

namespace dpmerge::support {
namespace {

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](int i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1,
                                                std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ZeroAndSingleItem) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
  // n == 1 runs inline on the caller thread.
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.parallel_for(1, [&](int i) {
    EXPECT_EQ(i, 0);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPoolTest, MaxThreadsOneRunsOnCaller) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> off_thread{false};
  pool.parallel_for(
      64,
      [&](int) {
        if (std::this_thread::get_id() != caller) off_thread = true;
      },
      /*max_threads=*/1);
  EXPECT_FALSE(off_thread.load());
}

TEST(ThreadPoolTest, SlotWritesMatchSerial) {
  // The determinism contract: pure per-index work written into pre-sized
  // slots is schedule-independent.
  ThreadPool pool(4);
  constexpr int kN = 4096;
  std::vector<std::int64_t> par(kN), ser(kN);
  auto f = [](int i) {
    return static_cast<std::int64_t>(i) * i % 977 + (i >> 3);
  };
  for (int i = 0; i < kN; ++i) ser[static_cast<std::size_t>(i)] = f(i);
  pool.parallel_for(kN, [&](int i) { par[static_cast<std::size_t>(i)] = f(i); });
  EXPECT_EQ(par, ser);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  // A parallel_for issued from inside pool work must not deadlock or
  // re-enter the pool: it runs inline on the worker.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(32);
  pool.parallel_for(4, [&](int outer) {
    pool.parallel_for(8, [&](int inner) {
      hits[static_cast<std::size_t>(outer * 8 + inner)].fetch_add(
          1, std::memory_order_relaxed);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ConcurrentCallersSerialize) {
  // Two threads driving the same pool: jobs serialize internally, every
  // index of both jobs runs exactly once.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> a(512), b(512);
  std::thread t1([&] {
    pool.parallel_for(512, [&](int i) {
      a[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    });
  });
  std::thread t2([&] {
    pool.parallel_for(512, [&](int i) {
      b[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    });
  });
  t1.join();
  t2.join();
  for (const auto& h : a) EXPECT_EQ(h.load(), 1);
  for (const auto& h : b) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, TaskExceptionPropagatesToCaller) {
  // A throwing task aborts the dispenser, workers quiesce, and the caller
  // sees the exception; indices not yet dispatched never run.
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallel_for(10000,
                        [&](int i) {
                          if (i == 17) throw std::runtime_error("task 17");
                          ran.fetch_add(1, std::memory_order_relaxed);
                        }),
      std::runtime_error);
  EXPECT_LT(ran.load(), 10000);
  // The pool stays usable after a failed job.
  std::vector<std::atomic<int>> hits(256);
  pool.parallel_for(256, [&](int i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SerialInlineExceptionPropagates) {
  // The serial fallback (max_threads=1) must honour the same contract.
  ThreadPool pool(4);
  int ran = 0;
  EXPECT_THROW(pool.parallel_for(
                   64,
                   [&](int i) {
                     if (i == 5) throw std::runtime_error("serial");
                     ++ran;
                   },
                   /*max_threads=*/1),
               std::runtime_error);
  EXPECT_EQ(ran, 5);  // inline loop stops at the throwing index
}

TEST(ThreadPoolTest, DistinctPoolsRunConcurrently) {
  // Two pools driven from two threads don't share job state: both jobs
  // cover their ranges exactly once.
  ThreadPool p1(3), p2(3);
  std::vector<std::atomic<int>> a(512), b(512);
  std::thread t1([&] {
    p1.parallel_for(512, [&](int i) {
      a[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    });
  });
  std::thread t2([&] {
    p2.parallel_for(512, [&](int i) {
      b[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    });
  });
  t1.join();
  t2.join();
  for (const auto& h : a) EXPECT_EQ(h.load(), 1);
  for (const auto& h : b) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SetSharedThreadsInsidePoolWorkThrows) {
  // Reconfiguring the shared pool from inside pool work would race the job
  // executing the call; the lifecycle hazard is detected and diagnosed.
  ThreadPool pool(4);
  std::atomic<int> threw{0};
  pool.parallel_for(8, [&](int) {
    try {
      ThreadPool::set_shared_threads(2);
    } catch (const std::logic_error&) {
      threw.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(threw.load(), 8);
}

TEST(ThreadPoolTest, SharedPoolConfiguration) {
  const int before = ThreadPool::shared_threads();
  ThreadPool::set_shared_threads(2);
  EXPECT_EQ(ThreadPool::shared_threads(), 2);
  // The cap applies to the already-created shared pool: with a cap of 1,
  // work stays on the caller.
  ThreadPool::set_shared_threads(1);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> off_thread{false};
  ThreadPool::shared().parallel_for(64, [&](int) {
    if (std::this_thread::get_id() != caller) off_thread = true;
  });
  EXPECT_FALSE(off_thread.load());
  ThreadPool::set_shared_threads(before);
}

}  // namespace
}  // namespace dpmerge::support
