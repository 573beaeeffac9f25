// Tests for the shared thread pool: ParallelFor correctness and chunking,
// exception propagation, shutdown, back-to-back round reuse, concurrent
// callers, blocking (not spinning) waits, affinity-based sizing, and
// bit-determinism of threaded kernels.
#include <gtest/gtest.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/nn/matrix.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace wayfinder {
namespace {

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), /*grain=*/1, /*max_ways=*/4, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      hits[i].fetch_add(1);
    }
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  size_t covered = 0;
  pool.ParallelFor(17, 1, 8, [&](size_t b, size_t e) { covered += e - b; });
  EXPECT_EQ(covered, 17u);
}

TEST(ThreadPoolTest, EmptyRangeIsANoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, 1, 4, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, GrainBoundsChunkCount) {
  ThreadPool pool(3);
  std::atomic<int> chunks{0};
  // 10 items with grain 8 can support at most 2 chunks.
  pool.ParallelFor(10, /*grain=*/8, /*max_ways=*/4, [&](size_t, size_t) {
    chunks.fetch_add(1);
  });
  EXPECT_LE(chunks.load(), 2);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.ParallelFor(100, 1, 3,
                       [&](size_t b, size_t) {
                         if (b > 0) {
                           throw std::runtime_error("worker chunk failed");
                         }
                       }),
      std::runtime_error);
  // The pool must survive a throwing round and keep serving work.
  size_t covered = 0;
  pool.ParallelFor(5, 1, 1, [&](size_t b, size_t e) { covered += e - b; });
  EXPECT_EQ(covered, 5u);
}

TEST(ThreadPoolTest, CallerChunkExceptionPropagatesToo) {
  // The caller claims chunks like any worker. A worker chunk waits until the
  // caller has run one, so the caller always gets a chunk, and it throws.
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> caller_ran{false};
  EXPECT_THROW(pool.ParallelFor(2, 1, 2,
                                [&](size_t, size_t) {
                                  if (std::this_thread::get_id() == caller) {
                                    caller_ran = true;
                                    throw std::runtime_error("caller chunk failed");
                                  }
                                  while (!caller_ran) {
                                    std::this_thread::yield();
                                  }
                                }),
               std::runtime_error);
  EXPECT_TRUE(caller_ran.load());
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedWork) {
  // Destroying a pool right after a round must join cleanly (no hang, no
  // leak under sanitizers).
  for (int round = 0; round < 10; ++round) {
    ThreadPool pool(4);
    std::atomic<size_t> sum{0};
    pool.ParallelFor(256, 1, 5, [&](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) {
        sum.fetch_add(i);
      }
    });
    EXPECT_EQ(sum.load(), 256u * 255u / 2u);
  }
}

TEST(ThreadPoolTest, FreeHelperSerialWhenPoolNull) {
  size_t covered = 0;
  ParallelFor(nullptr, 9, 2, 4, [&](size_t b, size_t e) { covered += e - b; });
  EXPECT_EQ(covered, 9u);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineInsteadOfDeadlocking) {
  // A ParallelFor issued from inside a pool worker must not block on the
  // queue it is draining. With one worker this deadlocked before the
  // reentrancy fix: the worker's nested round queued a chunk nobody was
  // left to run. Now nested rounds run inline on the worker.
  ThreadPool pool(1);
  std::vector<std::atomic<int>> hits(64 * 16);
  pool.ParallelFor(64, /*grain=*/1, /*max_ways=*/2, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      pool.ParallelFor(16, /*grain=*/1, /*max_ways=*/2, [&](size_t nb, size_t ne) {
        for (size_t j = nb; j < ne; ++j) {
          hits[i * 16 + j].fetch_add(1);
        }
      });
    }
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, NestedParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.ParallelFor(8, 1, 3,
                       [&](size_t, size_t) {
                         pool.ParallelFor(4, 1, 2, [&](size_t nb, size_t) {
                           if (nb == 0) {
                             throw std::runtime_error("nested chunk failed");
                           }
                         });
                       }),
      std::runtime_error);
  // Still serviceable afterwards.
  size_t covered = 0;
  pool.ParallelFor(5, 1, 1, [&](size_t b, size_t e) { covered += e - b; });
  EXPECT_EQ(covered, 5u);
}

TEST(ThreadPoolTest, SharedPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::Shared(), &ThreadPool::Shared());
  EXPECT_GE(ThreadPool::Shared().thread_count(), 1u);
}

TEST(ThreadPoolTest, SharedWidthIsUsableCpusCapped) {
  size_t width = ThreadPool::SharedWidth();
  EXPECT_GE(width, 1u);
  EXPECT_LE(width, ThreadPool::kMaxKernelWays);
  EXPECT_EQ(width, std::min(UsableCpuCount(), ThreadPool::kMaxKernelWays));
}

TEST(ThreadPoolTest, UsableCpuCountFollowsTheAffinityMask) {
  // hardware_concurrency() counts every CPU of the host; a process pinned
  // with taskset may run on fewer. Pin this thread to one CPU of its mask,
  // check the count, and restore the mask.
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(UsableCpuCount(), static_cast<size_t>(CPU_COUNT(&saved)));
  int first = 0;
  while (!CPU_ISSET(first, &saved)) {
    ++first;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  size_t pinned = UsableCpuCount();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1u);
  EXPECT_EQ(UsableCpuCount(), static_cast<size_t>(CPU_COUNT(&saved)));
}

TEST(ThreadPoolTest, BackToBackRoundsCoverEveryIndexExactlyOnce) {
  // Rounds reuse one slot. A worker that saw round r must never claim or
  // run a chunk against round r + 1's fields, whatever the shapes.
  ThreadPool pool(3);
  std::vector<int> hits(97);
  for (size_t round = 0; round < 12000; ++round) {
    size_t n = 1 + (round * 7919) % hits.size();
    size_t grain = 1 + round % 5;
    size_t max_ways = 1 + round % 6;
    pool.ParallelFor(n, grain, max_ways, [&](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) {
        ++hits[i];  // Chunks are disjoint, so plain writes are race-free.
      }
    });
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i], i < n ? 1 : 0) << "round " << round << " index " << i;
      hits[i] = 0;
    }
  }
}

TEST(ThreadPoolTest, SecondCallerRunsInlineWhileARoundIsInFlight) {
  ThreadPool pool(2);
  std::atomic<bool> first_started{false};
  std::atomic<bool> second_done{false};
  std::vector<std::atomic<int>> first_hits(64);
  std::thread first([&] {
    pool.ParallelFor(first_hits.size(), 1, 3, [&](size_t b, size_t e) {
      first_started = true;
      while (!second_done) {
        std::this_thread::yield();
      }
      for (size_t i = b; i < e; ++i) {
        first_hits[i].fetch_add(1);
      }
    });
  });
  while (!first_started) {
    std::this_thread::yield();
  }
  // The slot is taken, so this round runs entirely on the calling thread.
  const std::thread::id me = std::this_thread::get_id();
  std::vector<int> second_hits(64);
  bool all_inline = true;
  pool.ParallelFor(second_hits.size(), 1, 3, [&](size_t b, size_t e) {
    all_inline = all_inline && std::this_thread::get_id() == me;
    for (size_t i = b; i < e; ++i) {
      ++second_hits[i];
    }
  });
  second_done = true;
  first.join();
  EXPECT_TRUE(all_inline);
  for (size_t i = 0; i < second_hits.size(); ++i) {
    EXPECT_EQ(second_hits[i], 1);
    EXPECT_EQ(first_hits[i].load(), 1);
  }
}

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

TEST(ThreadPoolTest, CallerBlocksRatherThanSpinsOnALongChunk) {
  // session.cc runs whole trial evaluations as chunks, so a caller may wait
  // for minutes: after a brief spin it must block, not burn its CPU.
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> worker_ran{false};
  double cpu_before = ThreadCpuMs();
  pool.ParallelFor(2, 1, 2, [&](size_t, size_t) {
    if (std::this_thread::get_id() != caller) {
      worker_ran = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      return;
    }
    // The caller's chunk sleeps until the worker holds the other one, so
    // the caller then has to wait for it.
    for (int i = 0; i < 2000 && !worker_ran; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  double cpu_ms = ThreadCpuMs() - cpu_before;
  EXPECT_TRUE(worker_ran.load());
  EXPECT_LT(cpu_ms, 5.0);
}

TEST(ThreadPoolTest, DestroyWithParkedWorkersJoins) {
  for (int round = 0; round < 3; ++round) {
    ThreadPool pool(3);
    std::atomic<size_t> covered{0};
    pool.ParallelFor(64, 1, 4, [&](size_t b, size_t e) { covered += e - b; });
    EXPECT_EQ(covered.load(), 64u);
    // Long enough for every worker to exhaust its spin and park.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  ThreadPool never_used(2);  // Parked from the start; must join too.
}

TEST(ThreadPoolTest, ThreadedMatMulBitIdenticalToSerial) {
  Rng rng(41);
  Matrix a(97, 53);
  Matrix b(53, 31);
  for (double& v : a.data()) {
    v = rng.Normal();
  }
  for (double& v : b.data()) {
    v = rng.Normal();
  }
  Matrix serial;
  MatMulInto(a, b, serial);
  ThreadPool pool(3);
  Matrix threaded;
  MatMulInto(a, b, threaded, Parallelism{&pool, 4});
  ASSERT_EQ(serial.size(), threaded.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    // Row partitioning leaves per-row arithmetic untouched: exact equality.
    EXPECT_EQ(serial.data()[i], threaded.data()[i]) << "element " << i;
  }
}

}  // namespace
}  // namespace wayfinder
