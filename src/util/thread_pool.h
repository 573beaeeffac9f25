// A small fixed-size fork-join thread pool with a blocking ParallelFor.
//
// Wayfinder's hot paths (the DTM training step, batched inference, pool
// assembly and scoring) are data-parallel over independent rows or elements,
// and one DeepTune Update issues a few hundred short rounds per trial. The
// pool is built for that: a round is published into one slot per pool,
// chunks are claimed from an atomic counter, the caller claims chunks too,
// and workers spin briefly between rounds before parking. No queue, no
// futures, no heap allocation per round. Row partitioning never changes the
// per-row arithmetic, so results are bit-identical with and without threads.
#ifndef WAYFINDER_SRC_UTIL_THREAD_POOL_H_
#define WAYFINDER_SRC_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace wayfinder {

class ThreadPool {
 public:
  // Spawns `threads` workers (0 is allowed: every ParallelFor runs inline).
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t thread_count() const { return workers_.size(); }

  // Runs body(begin, end) over [0, n) split into at most `max_ways` chunks
  // of at least `grain` items. The caller claims chunks like any worker, so
  // a round never waits for a free worker. Blocks until every chunk is done;
  // the first exception thrown by any chunk is rethrown here.
  // One round is in flight per pool: a call made while another round runs —
  // a nested call from inside a chunk, or a second caller thread such as
  // another daemon session — runs its whole range inline on its own thread.
  template <typename Body>
  void ParallelFor(size_t n, size_t grain, size_t max_ways, const Body& body) {
    Run(n, grain, max_ways, &body,
        [](const void* fn, size_t begin, size_t end) {
          (*static_cast<const Body*>(fn))(begin, end);
        });
  }

  // Process-wide pool, created on first use with UsableCpuCount() - 1
  // workers (at least 1). Callers bound their own parallelism via the
  // `max_ways` argument of ParallelFor, so one shared pool serves every
  // model and searcher in the process.
  static ThreadPool& Shared();

  // Default `max_ways` for intra-trial kernels (DtmOptions::threads):
  // UsableCpuCount() capped at kMaxKernelWays. Computed once and cached;
  // reading it does not spawn the shared pool.
  static size_t SharedWidth();

  // Four ways keep DeepTune's most common round (64k multiply-adds at
  // batch 32) at twice the measured per-chunk break-even, kMinFlopsPerChunk
  // in src/nn/matrix.h; eight would put it at the break-even (docs/perf.md,
  // "Fork-join cost").
  static constexpr size_t kMaxKernelWays = 4;

 private:
  using ChunkFn = void (*)(const void* body, size_t begin, size_t end);

  void Run(size_t n, size_t grain, size_t max_ways, const void* body, ChunkFn call);
  void WorkerLoop();
  // Claims and runs chunks of the round `word` names until none is left.
  void Drain(uint64_t word);
  void RunChunk(size_t index);

  std::vector<std::thread> workers_;

  // The round slot. Written by the caller that owns the slot before it
  // publishes the round's claim word; read by a worker only after it has
  // claimed a chunk of that round (the claim's acquire pairs with the
  // publishing store), and never rewritten while a claimed chunk is running.
  const void* body_ = nullptr;
  ChunkFn call_ = nullptr;
  size_t n_ = 0;
  size_t chunk_ = 0;
  uint32_t epoch_ = 0;  // Owner-only; the last published round.
  std::exception_ptr error_;  // First chunk failure; guarded by mutex_.

  // Claim word: epoch (bits 32-63) | chunk count (16-31) | next chunk (0-15).
  std::atomic<uint64_t> claim_{0};
  std::atomic<size_t> pending_{0};      // Chunks of the round not yet done.
  std::atomic<bool> busy_{false};       // A round owns the slot.
  std::atomic<size_t> sleepers_{0};     // Workers parked on wake_.
  std::atomic<bool> caller_parked_{false};
  std::atomic<bool> stop_{false};
  std::mutex mutex_;
  std::condition_variable wake_;  // Workers: a new round or stop.
  std::condition_variable done_;  // Caller: the last chunk finished.
};

// Convenience wrapper: chunked parallel-for on `pool`, or a plain serial
// loop when `pool` is null or the range is below one grain.
template <typename Body>
void ParallelFor(ThreadPool* pool, size_t n, size_t grain, size_t max_ways, const Body& body) {
  if (pool == nullptr || max_ways <= 1 || n <= grain) {
    if (n > 0) {
      body(0, n);
    }
    return;
  }
  pool->ParallelFor(n, grain, max_ways, body);
}

// The shared pool when `ways` asks for more than one way, else null (serial).
inline ThreadPool* SharedPoolFor(size_t ways) {
  return ways > 1 ? &ThreadPool::Shared() : nullptr;
}

// CPUs this thread may run on: the size of its affinity mask (falls back to
// hardware_concurrency, then 1). Not cached.
size_t UsableCpuCount();

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_UTIL_THREAD_POOL_H_
