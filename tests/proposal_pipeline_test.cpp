// Tests for the parallel proposal pipeline (src/core/proposal.h) and the
// searcher-level determinism contracts that ride on it:
//
//   * pool assembly is bit-identical at any thread count (the pool layout is
//     arithmetic and every candidate has its own counter-derived RNG stream);
//   * a fixed-seed DeepTune search trajectory is bit-identical across the
//     full cross-product of thread counts {0, 1, 4} and kernel backends —
//     both axes at once, not each alone — and likewise for the
//     MultiMetricSearcher;
//   * the proposal path stays allocation-stable once warm, asserted through
//     DeepTuneSearcher::MemoryBytes so footprint regressions fail loudly;
//   * MemoryBytes accounts for the elite set and the memoized-encode cache;
//   * the scoring history ring's panel scan returns exactly the min of
//     textbook SqDist over its live window, through fills, wraps and a
//     replaced history, on every backend.
//
// On hardware without AVX2 that backend falls back to portable and the
// corresponding combinations pass trivially.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "src/configspace/linux_space.h"
#include "src/core/deeptune.h"
#include "src/core/multi_metric.h"
#include "src/core/proposal.h"
#include "src/nn/kernels.h"
#include "src/nn/matrix.h"
#include "src/platform/session.h"
#include "src/simos/testbench.h"
#include "src/util/rng.h"

namespace wayfinder {
namespace {

std::vector<KernelBackend> BackendsUnderTest() {
  // Unavailable backends still dispatch (to a fallback table), so keeping
  // them in the list costs nothing and keeps the cross-product exhaustive
  // where the hardware allows it.
  return {KernelBackend::kPortable, KernelBackend::kAvx2};
}

std::string ComboName(KernelBackend backend, size_t threads) {
  return std::string(KernelBackendName(backend)) + "/t" + std::to_string(threads);
}

// --- pool assembly -----------------------------------------------------------

TEST(ProposalPipeline, PoolAssemblyBitIdenticalAcrossThreadCounts) {
  ConfigSpace space = BuildLinuxSearchSpace();
  Rng rng(0x9a7);
  std::vector<Configuration> elites;
  for (int i = 0; i < 3; ++i) {
    elites.push_back(space.RandomConfiguration(rng));
  }
  const uint64_t pool_seed = 0xfeedbeef;

  auto assemble = [&](size_t threads, bool line_search) {
    ProposalPoolSpec spec;
    spec.pool_size = 64;
    spec.exploit_fraction = 0.6;
    spec.max_mutations = 4;
    spec.line_search = line_search;
    spec.threads = threads;
    std::vector<Configuration> pool;
    Matrix encoded;
    AssembleProposalPool(space, elites, SampleOptions(), spec, pool_seed, pool, encoded);
    return std::make_pair(std::move(pool), std::move(encoded));
  };

  for (bool line_search : {true, false}) {
    auto [pool_serial, encoded_serial] = assemble(0, line_search);
    for (size_t threads : {1u, 3u, 4u, 7u}) {
      auto [pool_t, encoded_t] = assemble(threads, line_search);
      ASSERT_EQ(pool_serial.size(), pool_t.size());
      for (size_t i = 0; i < pool_serial.size(); ++i) {
        EXPECT_EQ(pool_serial[i].values(), pool_t[i].values())
            << "threads=" << threads << " line_search=" << line_search << " i=" << i;
      }
      ASSERT_EQ(encoded_serial.size(), encoded_t.size());
      for (size_t i = 0; i < encoded_serial.size(); ++i) {
        EXPECT_EQ(encoded_serial.data()[i], encoded_t.data()[i]) << i;
      }
    }
  }
}

TEST(ProposalPipeline, PoolSeedChangesThePool) {
  ConfigSpace space = BuildLinuxSearchSpace();
  ProposalPoolSpec spec;
  spec.pool_size = 16;
  std::vector<Configuration> pool_a, pool_b;
  Matrix encoded_a, encoded_b;
  AssembleProposalPool(space, {}, SampleOptions(), spec, 1, pool_a, encoded_a);
  AssembleProposalPool(space, {}, SampleOptions(), spec, 2, pool_b, encoded_b);
  size_t differing = 0;
  for (size_t i = 0; i < pool_a.size(); ++i) {
    differing += pool_a[i].values() == pool_b[i].values() ? 0 : 1;
  }
  EXPECT_GT(differing, 0u);
}

// --- trajectory pinning: the cross-product -----------------------------------

SessionResult RunDeepTune(KernelBackend backend, size_t threads) {
  ConfigSpace space = BuildLinuxSearchSpace();
  SessionOptions options;
  options.max_iterations = 60;
  options.sample_options = SampleOptions::FavorRuntime();
  options.seed = 0x60d;

  DeepTuneOptions searcher_options;
  searcher_options.model.kernels = backend;
  searcher_options.model.threads = threads;
  Testbench bench(&space, AppId::kRedis);
  DeepTuneSearcher searcher(&space, searcher_options);
  return RunSearch(&bench, &searcher, options);
}

// A fixed-seed 60-iteration DeepTune session proposes the exact same
// configuration sequence and finds the same best across every (backend,
// thread count) combination simultaneously — kernel backends change only
// speed, and the proposal pipeline's candidate streams are partition-free.
TEST(ProposalPipeline, SixtyIterationTrajectoryInvariantAcrossBackendsAndThreads) {
  SessionResult baseline = RunDeepTune(KernelBackend::kPortable, 0);
  ASSERT_EQ(baseline.history.size(), 60u);
  for (KernelBackend backend : BackendsUnderTest()) {
    for (size_t threads : {0u, 1u, 2u, 4u}) {
      if (backend == KernelBackend::kPortable && threads == 0) {
        continue;  // The baseline itself.
      }
      SessionResult result = RunDeepTune(backend, threads);
      ASSERT_EQ(baseline.history.size(), result.history.size())
          << ComboName(backend, threads);
      for (size_t i = 0; i < baseline.history.size(); ++i) {
        ASSERT_EQ(baseline.history[i].config.Hash(), result.history[i].config.Hash())
            << ComboName(backend, threads) << " diverged at iteration " << i;
        if (baseline.history[i].HasObjective()) {
          ASSERT_EQ(baseline.history[i].objective, result.history[i].objective)
              << ComboName(backend, threads) << " iteration " << i;
        }
      }
      EXPECT_EQ(baseline.best_index, result.best_index) << ComboName(backend, threads);
    }
  }
}

SessionResult RunMultiMetric(KernelBackend backend, size_t threads) {
  ConfigSpace space = BuildLinuxSearchSpace();
  SessionOptions options;
  options.max_iterations = 40;
  options.sample_options = SampleOptions::FavorRuntime();
  options.seed = 0x3b1;

  MultiMetricOptions searcher_options;
  searcher_options.warmup = 6;
  searcher_options.model.steps_per_update = 8;
  searcher_options.model.kernels = backend;
  searcher_options.model.threads = threads;
  Testbench bench(&space, AppId::kNginx);
  MultiMetricSearcher searcher(
      &space, {MetricSpec::AppThroughput(), MetricSpec::MemoryFootprint()},
      searcher_options);
  return RunSearch(&bench, &searcher, options);
}

TEST(ProposalPipeline, MultiMetricTrajectoryInvariantAcrossBackendsAndThreads) {
  SessionResult baseline = RunMultiMetric(KernelBackend::kPortable, 0);
  ASSERT_EQ(baseline.history.size(), 40u);
  for (KernelBackend backend : BackendsUnderTest()) {
    for (size_t threads : {0u, 1u, 4u}) {
      if (backend == KernelBackend::kPortable && threads == 0) {
        continue;
      }
      SessionResult result = RunMultiMetric(backend, threads);
      ASSERT_EQ(baseline.history.size(), result.history.size())
          << ComboName(backend, threads);
      for (size_t i = 0; i < baseline.history.size(); ++i) {
        ASSERT_EQ(baseline.history[i].config.Hash(), result.history[i].config.Hash())
            << ComboName(backend, threads) << " diverged at iteration " << i;
      }
      EXPECT_EQ(baseline.best_index, result.best_index) << ComboName(backend, threads);
    }
  }
}

// --- footprint ---------------------------------------------------------------

// --- history ring -------------------------------------------------------------

// The panel ring's nearest distance, on every backend, must be bitwise the
// min of textbook SqDist over the live window: for every fill level from
// empty through one lane-width either side to the full 128-row window,
// after the ring wraps by 1 and by 200 trials, and after a replaced history.
TEST(ProposalPipeline, HistoryRingNearestMatchesTextbookSqDist) {
  ConfigSpace space = BuildLinuxSearchSpace();
  const size_t dim = space.FeatureDimension();
  constexpr size_t kWindow = 128;
  Rng rng(0x41e);
  auto random_trials = [&](size_t count) {
    std::vector<TrialRecord> trials(count);
    for (TrialRecord& trial : trials) {
      trial.config = space.RandomConfiguration(rng);
    }
    return trials;
  };
  std::vector<TrialRecord> history;
  std::vector<TrialRecord> spare = random_trials(kWindow + 201);
  // Candidates: fresh configurations plus two already in the history.
  std::vector<Configuration> candidates;
  for (int i = 0; i < 6; ++i) {
    candidates.push_back(space.RandomConfiguration(rng));
  }

  EncodedHistoryRing ring;
  auto check = [&](const std::string& label) {
    ring.Sync(space, history, kWindow);
    const size_t live = std::min(history.size(), kWindow);
    ASSERT_EQ(ring.row_count(), live) << label;
    std::vector<Configuration> probes = candidates;
    if (live > 0) {
      probes.push_back(history.back().config);
      probes.push_back(history[history.size() - live].config);
    }
    for (const Configuration& probe : probes) {
      const std::vector<double> x = space.Encode(probe);
      double want = std::numeric_limits<double>::max();
      for (size_t i = history.size() - live; i < history.size(); ++i) {
        want = std::min(want, SqDist(x.data(), space.Encode(history[i].config).data(), dim));
      }
      for (KernelBackend backend : BackendsUnderTest()) {
        const KernelOps& ops = KernelsFor(backend);
        EXPECT_EQ(ops.panel_nearest(x.data(), ring.panels(), dim, ring.row_count()), want)
            << label << " " << ops.name;
      }
    }
  };

  size_t used = 0;
  for (size_t fill : {size_t{0}, size_t{1}, kPanelLanes - 1, kPanelLanes, kPanelLanes + 1,
                      kWindow - 1, kWindow}) {
    for (; used < fill; ++used) {
      history.push_back(spare[used]);
    }
    check("fill " + std::to_string(fill));
  }
  history.push_back(spare[used++]);
  check("wrapped by 1");
  for (int i = 0; i < 200; ++i) {
    history.push_back(spare[used++]);
  }
  check("wrapped by 200");
  history = random_trials(kPanelLanes + 1);
  check("replaced history");
}

// Repeated Proposes on a warm searcher must not grow its live state: the
// candidate pool, its encoded batch, the history ring, and the model
// workspace are all reused in place. A growing footprint here is an
// allocation regression in the proposal hot path.
TEST(ProposalPipeline, WarmProposeFootprintIsStable) {
  ConfigSpace space = BuildLinuxSearchSpace();
  DeepTuneOptions options;
  options.warmup = 4;
  options.pool_size = 32;
  options.model.steps_per_update = 4;
  DeepTuneSearcher searcher(&space, options);

  Rng rng(0xf00);
  std::vector<TrialRecord> history;
  SearchContext context;
  context.space = &space;
  context.history = &history;
  context.rng = &rng;
  context.sample_options = SampleOptions::FavorRuntime();
  for (size_t i = 0; i < 16; ++i) {
    TrialRecord trial;
    trial.config = space.RandomConfiguration(rng, context.sample_options);
    trial.outcome.status = TrialOutcome::Status::kOk;
    trial.outcome.metric = rng.Normal(100.0, 10.0);
    trial.objective = trial.outcome.metric;
    searcher.Observe(trial, context);
    history.push_back(trial);
  }

  // Warm every proposal-path buffer (pool, encoded batch, history ring,
  // model workspace), then pin the footprint.
  searcher.Propose(context);
  searcher.Propose(context);
  size_t warm_bytes = searcher.MemoryBytes();
  size_t warm_grow = searcher.model().workspace_grow_count();
  for (int round = 0; round < 5; ++round) {
    searcher.Propose(context);
    EXPECT_EQ(searcher.MemoryBytes(), warm_bytes) << "round " << round;
  }
  EXPECT_EQ(searcher.model().workspace_grow_count(), warm_grow);
}

// MemoryBytes must cover the searcher's auxiliary state, not just the model:
// the elite set and the space's memoized-encode cache (populated by the
// searcher's Observe path).
TEST(ProposalPipeline, MemoryBytesIncludesElitesAndEncodeCache) {
  ConfigSpace space = BuildLinuxSearchSpace();
  DeepTuneOptions options;
  options.warmup = 2;
  options.pool_size = 16;
  options.model.steps_per_update = 2;
  DeepTuneSearcher searcher(&space, options);
  size_t fresh_bytes = searcher.MemoryBytes();

  Rng rng(0xe11);
  std::vector<TrialRecord> history;
  SearchContext context;
  context.space = &space;
  context.history = &history;
  context.rng = &rng;
  for (size_t i = 0; i < 6; ++i) {
    TrialRecord trial;
    trial.config = space.RandomConfiguration(rng);
    trial.outcome.status = TrialOutcome::Status::kOk;
    trial.outcome.metric = rng.Normal(100.0, 10.0);
    trial.objective = trial.outcome.metric;
    searcher.Observe(trial, context);
    history.push_back(trial);
  }

  // Observe populated the elite set and the encode cache; both must appear
  // in the footprint over and above the model's own growth.
  EXPECT_GT(space.EncodeCacheBytes(), 0u);
  size_t accounted = searcher.model().MemoryBytes() + space.EncodeCacheBytes();
  EXPECT_GE(searcher.MemoryBytes(), accounted);
  EXPECT_GT(searcher.MemoryBytes(), fresh_bytes);
}

}  // namespace
}  // namespace wayfinder
