#include "src/util/thread_pool.h"

#include <sched.h>

#include <algorithm>

namespace wayfinder {

namespace {

// Claim word layout: the round's epoch in the high 32 bits, its chunk count
// in bits 16-31 and the next unclaimed chunk in bits 0-15. A claim is a CAS
// on the whole word, so it can only succeed against the round the claimer
// loaded, and a claimer reads the round's fields only after its CAS won.
constexpr uint64_t kFieldMask = 0xffff;
constexpr size_t kMaxChunks = kFieldMask;

uint32_t Epoch(uint64_t word) { return static_cast<uint32_t>(word >> 32); }
size_t Count(uint64_t word) { return static_cast<size_t>((word >> 16) & kFieldMask); }
size_t Next(uint64_t word) { return static_cast<size_t>(word & kFieldMask); }

// Busy-wait budget before blocking, for a worker between rounds and for the
// caller waiting on workers' chunks: ~17 µs of pause on a 4-vCPU Xeon VM,
// long enough to bridge the serial gaps between the rounds of one DTM
// Update, short enough that idle workers park between trials (a real
// testbench trial takes minutes). 4,000 read no faster end to end.
constexpr int kSpinLimit = 1000;

// One step of a busy-wait. Every 64th step yields the CPU, so a spinner
// sharing its CPU with a thread that holds a claimed chunk (more runnable
// threads than CPUs, e.g. several test binaries at once) lets it run.
inline void SpinStep(int spin) {
  if ((spin & 63) == 63) {
    std::this_thread::yield();
    return;
  }
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

ThreadPool::ThreadPool(size_t threads) {
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_.store(true);
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::WorkerLoop() {
  uint32_t seen = 0;
  for (;;) {
    // Wait for a round newer than `seen`: spin first, then park. Parking
    // registers in sleepers_ before re-checking the word (both seq_cst), so
    // a publisher either sees the sleeper and notifies under the mutex, or
    // the sleeper sees the new word.
    uint64_t word = claim_.load(std::memory_order_acquire);
    for (int spin = 0; Epoch(word) == seen && !stop_.load(std::memory_order_relaxed);
         ++spin) {
      if (spin < kSpinLimit) {
        SpinStep(spin);
        word = claim_.load(std::memory_order_acquire);
        continue;
      }
      std::unique_lock<std::mutex> lock(mutex_);
      sleepers_.fetch_add(1);
      wake_.wait(lock, [&] {
        word = claim_.load();
        return Epoch(word) != seen || stop_.load();
      });
      sleepers_.fetch_sub(1);
      break;
    }
    if (stop_.load()) {
      return;
    }
    seen = Epoch(word);
    Drain(word);
  }
}

void ThreadPool::Drain(uint64_t word) {
  while (Next(word) < Count(word)) {
    if (claim_.compare_exchange_weak(word, word + 1, std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
      RunChunk(Next(word));
      word = claim_.load(std::memory_order_relaxed);
    }
  }
}

void ThreadPool::RunChunk(size_t index) {
  size_t begin = index * chunk_;
  size_t end = std::min(n_, begin + chunk_);
  try {
    call_(body_, begin, end);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!error_) {
      error_ = std::current_exception();
    }
  }
  // The last chunk wakes a parked caller. caller_parked_ is set before the
  // caller re-checks pending_ under the mutex (both seq_cst), so either the
  // caller sees 0 or this load sees the flag.
  if (pending_.fetch_sub(1) == 1 && caller_parked_.load()) {
    std::lock_guard<std::mutex> lock(mutex_);
    done_.notify_one();
  }
}

void ThreadPool::Run(size_t n, size_t grain, size_t max_ways, const void* body,
                     ChunkFn call) {
  if (n == 0) {
    return;
  }
  grain = std::max<size_t>(grain, 1);
  size_t ways = std::min({max_ways, thread_count() + 1, (n + grain - 1) / grain, kMaxChunks});
  // A single way, or the slot is taken (a nested call from inside a chunk,
  // or another caller thread): run inline. Partitioning never changes the
  // arithmetic, so the result is the same either way.
  if (ways <= 1 || busy_.exchange(true, std::memory_order_acquire)) {
    call(body, 0, n);
    return;
  }

  body_ = body;
  call_ = call;
  n_ = n;
  chunk_ = (n + ways - 1) / ways;
  size_t chunks = (n + chunk_ - 1) / chunk_;
  pending_.store(chunks, std::memory_order_relaxed);
  uint64_t word =
      (static_cast<uint64_t>(++epoch_) << 32) | (static_cast<uint64_t>(chunks) << 16);
  claim_.store(word);
  size_t sleeping = sleepers_.load();
  if (sleeping > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t i = std::min(sleeping, chunks - 1); i > 0; --i) {
      wake_.notify_one();
    }
  }

  Drain(word);

  // Wait for the chunks workers claimed: spin briefly, then block.
  for (int spin = 0; pending_.load(std::memory_order_acquire) != 0; ++spin) {
    if (spin < kSpinLimit) {
      SpinStep(spin);
      continue;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    caller_parked_.store(true);
    done_.wait(lock, [this] { return pending_.load() == 0; });
    caller_parked_.store(false, std::memory_order_relaxed);
    break;
  }
  // Every chunk's failure capture happens-before its pending_ decrement.
  std::exception_ptr error = std::move(error_);
  error_ = nullptr;
  busy_.store(false, std::memory_order_release);
  if (error) {
    std::rethrow_exception(error);
  }
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(std::max<size_t>(1, UsableCpuCount() - 1));
  return pool;
}

size_t ThreadPool::SharedWidth() {
  static const size_t width = std::min(UsableCpuCount(), kMaxKernelWays);
  return width;
}

size_t UsableCpuCount() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
#endif
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace wayfinder
