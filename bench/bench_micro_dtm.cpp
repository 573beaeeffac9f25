// Micro-benchmarks of the DeepTune Model's per-iteration primitives — the
// constants behind Figure 8's "update < 1 s" claim — emitting one JSON
// object per line so tools/run_benches.sh and tools/bench_compare.py can
// track them PR-over-PR.
//
//   * dtm_update_*: one full Update() — minibatch gather from the replay
//     buffer, forward/backward, losses, Chamfer, Adam — across the
//     {portable, avx2} kernel backends x {serial, 4-thread} split;
//   * dtm_update_aged_*: the same Update on a model aged past the Adam
//     subnormal onset (portable and avx2, serial), with an aged/fresh
//     summary record;
//   * dtm_predict_pool_*: candidate-pool PredictBatch;
//   * dtm_add_sample: replay-buffer append;
//   * fork_join_*: the shared pool's round trip — an empty `--threads`-way
//     round, and rounds whose chunks each carry 4k / 8k / 16k multiply-adds
//     against the same work run serially (the break-even behind
//     kMinFlopsPerChunk, docs/perf.md "Fork-join cost");
//   * propose_*: one full DeepTuneSearcher::Propose over the Linux space —
//     sharded pool assembly (line search + mutation + random + encode) plus
//     the batched DTM ranking pass and scoring — across {serial, 4-thread}
//     pool generation with a 48-row history, and serially per backend
//     {portable, avx2} against a full 128-row scoring window (_hist128).
//
// The kernel backends are bit-identical by construction (src/nn/kernels.h),
// so every variant of a bench computes the same numbers — only the speed
// differs. A summary record reports the update speedups; on pre-AVX2
// hardware the avx2 variants fall back to portable and the speedup is ~1.
//
// Usage: bench_micro_dtm [--dim D] [--samples N] [--threads T]
//   WF_FAST=1 shortens the measurement window (smoke mode, the
//   run_benches.sh default).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/configspace/linux_space.h"
#include "src/core/deeptune.h"
#include "src/core/dtm.h"
#include "src/nn/kernels.h"
#include "src/nn/matrix.h"
#include "src/platform/trial.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace wayfinder {
namespace {

double g_measure_seconds = 0.4;

std::vector<double> RandomFeatures(Rng& rng, size_t dim) {
  std::vector<double> x(dim);
  for (double& v : x) {
    v = rng.Uniform();
  }
  return x;
}

// Runs `op` across three measurement windows and returns the best window's
// executions/sec. Best-of-N defends the regression gate against one-sided
// wall-clock noise (frequency drift, co-tenant load): slowdowns only ever
// push a window down, so the fastest window is the closest sample to the
// machine's steady-state rate.
template <typename Op>
double OpsPerSec(Op&& op) {
  using Clock = std::chrono::steady_clock;
  op();  // Warm up (fills workspaces so steady state is measured).
  double best = 0.0;
  for (int window = 0; window < 3; ++window) {
    size_t iters = 0;
    auto start = Clock::now();
    double elapsed = 0.0;
    do {
      op();
      ++iters;
      elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    } while (elapsed < g_measure_seconds / 3);
    best = std::max(best, static_cast<double>(iters) / elapsed);
  }
  return best;
}

void Report(const std::string& bench, const std::string& variant, double ops_per_sec) {
  std::printf("{\"bench\": \"%s\", \"variant\": \"%s\", \"ops_per_sec\": %.2f}\n",
              bench.c_str(), variant.c_str(), ops_per_sec);
}

void SeedReplayBuffer(DeepTuneModel& model, size_t dim, size_t samples) {
  Rng rng(1);
  for (size_t i = 0; i < samples; ++i) {
    bool crashed = rng.Bernoulli(0.3);
    model.AddSample(RandomFeatures(rng, dim), crashed, rng.Normal(100.0, 10.0));
  }
}

double BenchUpdate(size_t dim, size_t samples, KernelBackend backend, size_t threads) {
  // Best over several model instances, like BenchPredictPool below: the
  // scalar (portable) Update walks the same pool-sized workspaces and a
  // single instance's throughput swings ~15% with the heap addresses it
  // happens to get. One placement was enough until PR 10's static-init
  // instrument allocations moved the base heap and A/B-identical portable
  // Update code read 0.85x between binaries (the SIMD backends, less
  // cache-set-bound, stayed flat) — so Update gets the placement sweep too.
  double best = 0.0;
  std::vector<std::vector<double>> pad;
  for (size_t instance = 0; instance < 6; ++instance) {
    DtmOptions options;
    options.kernels = backend;
    options.threads = threads;
    auto model = std::make_unique<DeepTuneModel>(dim, options);
    SeedReplayBuffer(*model, dim, samples);
    best = std::max(best, OpsPerSec([&] { model->Update(); }));
    pad.emplace_back(769 + 331 * instance + 97 * instance * instance, 0.0);
  }
  return best;
}

double BenchPredictPool(size_t dim, size_t pool, KernelBackend backend, size_t threads) {
  // Best over several model instances: pool-sized workspaces sit on a
  // cache-set cliff where throughput swings with the heap addresses a
  // single instance happens to get (see bench_micro_matmul's BenchPredict,
  // including why eight quadratically-padded placements, not four).
  double best = 0.0;
  std::vector<std::vector<double>> pad;
  for (size_t instance = 0; instance < 8; ++instance) {
    DtmOptions options;
    options.kernels = backend;
    options.threads = threads;
    auto model = std::make_unique<DeepTuneModel>(dim, options);
    SeedReplayBuffer(*model, dim, 64);
    model->Update();
    Rng rng(2);
    Matrix candidates(pool, dim);
    for (double& v : candidates.data()) {
      v = rng.Uniform();
    }
    best = std::max(best, OpsPerSec([&] { model->PredictBatch(candidates); }));
    pad.emplace_back(769 + 331 * instance + 97 * instance * instance, 0.0);
  }
  return best;
}

// Adam steps of untimed aging before the aged Update is timed. A parameter
// whose gradient stops decays its first moment by beta1 = 0.9 per step, which
// would go subnormal after ~6.7k steps; 8192 is past that onset on this
// model (the perfbench dt-serial horizon reaches ~14k).
constexpr size_t kAgedAdamSteps = 8192;

// Update timed exactly as BenchUpdate's, on one model aged past the
// subnormal onset. One instance, not BenchUpdate's placement sweep: the
// aging costs ~250 Updates per instance.
double BenchUpdateAged(size_t dim, size_t samples, KernelBackend backend) {
  DtmOptions options;
  options.threads = 0;  // Serial, like the fresh Update it is divided by.
  options.kernels = backend;
  auto model = std::make_unique<DeepTuneModel>(dim, options);
  SeedReplayBuffer(*model, dim, samples);
  for (size_t step = 0; step < kAgedAdamSteps; step += options.steps_per_update) {
    model->Update();
  }
  return OpsPerSec([&] { model->Update(); });
}

std::string VariantName(KernelBackend backend, size_t threads) {
  std::string name = KernelBackendName(backend);
  if (threads > 1) {
    name += "_t" + std::to_string(threads);
  }
  return name;
}

// Full Propose — sharded pool assembly + batched prediction + scoring — on
// a warm searcher over the Linux space that has observed `history_rows`
// trials. propose_pool128 keeps its 48 rows (a partly filled scoring
// window); propose_pool128_hist128 fills DeepTuneSearcher::kHistoryWindow,
// the window every Propose past trial 128 of a real job scores against.
double BenchPropose(size_t pool, size_t threads, size_t history_rows,
                    KernelBackend backend = KernelBackend::kAuto) {
  ConfigSpace space = BuildLinuxSearchSpace();
  DeepTuneOptions options;
  options.pool_size = pool;
  options.warmup = 8;
  options.update_every = 4;
  options.model.steps_per_update = 4;  // Keep searcher warm-up cheap.
  options.model.threads = threads;
  options.model.kernels = backend;
  DeepTuneSearcher searcher(&space, options);

  Rng rng(11);
  std::vector<TrialRecord> history;
  SearchContext context;
  context.space = &space;
  context.history = &history;
  context.rng = &rng;
  context.sample_options = SampleOptions::FavorRuntime();

  // Push the searcher past warm-up and give it elites + history to rank
  // against.
  for (size_t i = 0; i < history_rows; ++i) {
    TrialRecord trial;
    trial.config = space.RandomConfiguration(rng, context.sample_options);
    trial.outcome.status =
        rng.Bernoulli(0.2) ? TrialOutcome::Status::kRunCrashed : TrialOutcome::Status::kOk;
    if (trial.outcome.ok()) {
      trial.outcome.metric = rng.Normal(100.0, 10.0);
      trial.objective = trial.outcome.metric;
    }
    searcher.Observe(trial, context);
    history.push_back(trial);
  }
  return OpsPerSec([&] { searcher.Propose(context); });
}

}  // namespace
}  // namespace wayfinder

int main(int argc, char** argv) {
  using namespace wayfinder;
  size_t dim = 263;  // The Linux space's feature width.
  size_t samples = 100;
  size_t threads = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dim") == 0 && i + 1 < argc) {
      dim = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--samples") == 0 && i + 1 < argc) {
      samples = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    }
  }
  if (const char* fast = std::getenv("WF_FAST")) {
    if (fast[0] != '\0' && fast[0] != '0') {
      g_measure_seconds = 0.15;
    }
  }

  const bool has_avx2 = KernelBackendAvailable(KernelBackend::kAvx2);
  std::printf("{\"bench\": \"kernel_backend\", \"default\": \"%s\", \"avx2_available\": %s}\n",
              KernelBackendName(DefaultKernelBackend()), has_avx2 ? "true" : "false");

  // Full Update across kernel backend x thread split. `--threads 0|1` means
  // serial-only: the threaded variants (and their summary ratios) are
  // dropped rather than emitting duplicate or zero records.
  const std::string update_bench =
      "dtm_update_" + std::to_string(dim) + "d_" + std::to_string(samples) + "s";
  std::vector<size_t> thread_variants = {0};
  if (threads > 1) {
    thread_variants.push_back(threads);
  }
  double portable_serial = 0.0, avx2_serial = 0.0, portable_threaded = 0.0,
         avx2_threaded = 0.0;
  for (KernelBackend backend : {KernelBackend::kPortable, KernelBackend::kAvx2}) {
    for (size_t t : thread_variants) {
      double ops = BenchUpdate(dim, samples, backend, t);
      Report(update_bench, VariantName(backend, t), ops);
      if (backend == KernelBackend::kPortable) {
        (t == 0 ? portable_serial : portable_threaded) = ops;
      } else {
        (t == 0 ? avx2_serial : avx2_threaded) = ops;
      }
    }
  }
  if (portable_serial > 0.0) {
    std::printf("{\"bench\": \"dtm_update_speedup\", \"avx2_over_portable\": %.2f",
                avx2_serial / portable_serial);
    if (portable_threaded > 0.0) {
      std::printf(", \"threads_over_serial\": %.2f, "
                  "\"avx2_threads_over_portable_serial\": %.2f",
                  portable_threaded / portable_serial, avx2_threaded / portable_serial);
    }
    std::printf("}\n");
  }

  // The same Update on an aged model (serial): a flat per-trial cost means
  // aged/fresh ~1. Subnormal Adam moments held it at ~0.35 before the Adam
  // moment floor. With the floor and the row-blocked kernels it reads ~0.9
  // (avx2) and ~0.85 (portable) in full windows; the rest is subnormal
  // squares in the Chamfer distances (docs/perf.md).
  {
    const std::string aged_bench =
        "dtm_update_aged_" + std::to_string(dim) + "d_" + std::to_string(samples) + "s";
    double portable_aged = BenchUpdateAged(dim, samples, KernelBackend::kPortable);
    Report(aged_bench, VariantName(KernelBackend::kPortable, 0), portable_aged);
    double avx2_aged = BenchUpdateAged(dim, samples, KernelBackend::kAvx2);
    Report(aged_bench, VariantName(KernelBackend::kAvx2, 0), avx2_aged);
    std::printf("{\"bench\": \"dtm_update_aged_over_fresh\", \"portable\": %.2f, "
                "\"avx2\": %.2f}\n",
                portable_aged / portable_serial, avx2_aged / avx2_serial);
  }

  // Full Propose — pool assembly + batched prediction — serial vs sharded
  // pool generation. The `propose_*` family gates in bench_compare.py like
  // the other micro anchors.
  {
    double serial_ops = BenchPropose(128, 0, 48);
    Report("propose_pool128", "serial", serial_ops);
    double threaded_ops = 0.0;
    if (threads > 1) {
      threaded_ops = BenchPropose(128, threads, 48);
      Report("propose_pool128", "t" + std::to_string(threads), threaded_ops);
    }
    if (serial_ops > 0.0 && threaded_ops > 0.0) {
      std::printf("{\"bench\": \"propose_speedup\", \"threads_over_serial\": %.2f}\n",
                  threaded_ops / serial_ops);
    }
    // The same serial Propose against a full scoring window, per backend.
    for (KernelBackend backend : {KernelBackend::kPortable, KernelBackend::kAvx2}) {
      Report("propose_pool128_hist128", VariantName(backend, 0),
             BenchPropose(128, 0, DeepTuneSearcher::kHistoryWindow, backend));
    }
  }

  // Fork-join cost: one round of `threads` chunks on the shared pool. Each
  // chunk's work is a `work`-long sum of squares (dispatched sqnorm, one
  // multiply-add per element); the serial variant runs the same chunks in a
  // loop. Chunks below the break-even read serial > threaded.
  if (threads > 1) {
    ThreadPool& pool = ThreadPool::Shared();
    std::vector<double> sink(threads * 8, 0.0);  // One cache line per chunk.
    const std::string t_name = "t" + std::to_string(threads);
    Report("fork_join_round", t_name, OpsPerSec([&] {
             pool.ParallelFor(threads, 1, threads, [&](size_t b, size_t) { sink[b * 8] += 1.0; });
           }));
    Rng rng(17);
    const KernelOps& ops = DefaultKernels();
    for (size_t work : {size_t{4096}, size_t{8192}, size_t{16384}}) {
      std::vector<double> x = RandomFeatures(rng, work);
      auto chunks = [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) {
          sink[i * 8] += ops.sqnorm(x.data(), work);
        }
      };
      const std::string bench = "fork_join_chunk_" + std::to_string(work / 1024) + "k";
      Report(bench, "serial", OpsPerSec([&] { chunks(0, threads); }));
      Report(bench, t_name, OpsPerSec([&] { pool.ParallelFor(threads, 1, threads, chunks); }));
    }
  }

  // Candidate-pool prediction and replay append (serial, default backend).
  // The dtm_predict_pool records are informational, not anchors: the same
  // PredictBatch op gates via bench_micro_matmul's predict_batch_* family,
  // and interleaved A/B runs showed this binary's copy swings 0.75-1.0x
  // with code layout (same library objects, bit-identical outputs) — it
  // measures the binary, not the kernel.
  for (size_t pool : {size_t{128}, size_t{256}}) {
    Report("dtm_predict_pool_" + std::to_string(pool), "fast",
           BenchPredictPool(dim, pool, KernelBackend::kAuto, 0));
  }
  {
    // Fresh model per measurement window: AddSample grows the replay buffer,
    // so a single long-lived model measures ever-larger reallocation costs —
    // later windows (and later sweeps) would read slower for no code reason.
    double best = 0.0;
    for (int instance = 0; instance < 4; ++instance) {
      auto model = std::make_unique<DeepTuneModel>(dim, DtmOptions{});
      Rng rng(3);
      std::vector<double> x = RandomFeatures(rng, dim);
      best = std::max(best, OpsPerSec([&] { model->AddSample(x, false, 1.0); }));
    }
    Report("dtm_add_sample", "fast", best);
  }
  return 0;
}
