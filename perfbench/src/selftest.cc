// Self-tests of the benchmark's measurement helpers (bench_util.h):
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "perfbench/src/bench_util.h"

namespace perfbench {
namespace {

TEST(TrajectoryDigest, DependsOnConfigStatusAndObjectiveInOrder) {
  TrajectoryDigest a;
  a.Add(11, 0, 1.5);
  a.Add(12, 2, std::nan(""));
  TrajectoryDigest same;
  same.Add(11, 0, 1.5);
  same.Add(12, 2, std::nan(""));
  EXPECT_EQ(a.value(), same.value());

  TrajectoryDigest swapped;
  swapped.Add(12, 2, std::nan(""));
  swapped.Add(11, 0, 1.5);
  EXPECT_NE(a.value(), swapped.value());

  TrajectoryDigest other_objective;
  other_objective.Add(11, 0, 1.5000000001);
  other_objective.Add(12, 2, std::nan(""));
  EXPECT_NE(a.value(), other_objective.value());

  TrajectoryDigest other_status;
  other_status.Add(11, 1, 1.5);
  other_status.Add(12, 2, std::nan(""));
  EXPECT_NE(a.value(), other_status.value());
}

TEST(TrajectoryDigest, IgnoresWallClockAndNanPayload) {
  wayfinder::TrialRecord trial;
  trial.objective = 2.0;
  trial.searcher_seconds = 0.25;
  std::vector<wayfinder::TrialRecord> history = {trial};
  const uint64_t digest = DigestHistory(history);
  history[0].searcher_seconds = 9.0;
  EXPECT_EQ(DigestHistory(history), digest);

  TrajectoryDigest quiet;
  quiet.Add(1, 3, std::nan(""));
  TrajectoryDigest negative;
  negative.Add(1, 3, -std::nan("7"));
  EXPECT_EQ(quiet.value(), negative.value());
  EXPECT_EQ(DigestHex(0x1f), "000000000000001f");
}

TEST(Percentile, InterpolatesLinearly) {
  EXPECT_DOUBLE_EQ(Percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({4.0, 1.0, 3.0, 2.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({4.0, 1.0, 3.0, 2.0}, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(Percentile({10.0}, 99.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50.0), 0.0);
}

TEST(HighestTailPercentile, LeavesTenSamplesBeyond) {
  EXPECT_EQ(HighestTailPercentile(19), 0.0);
  EXPECT_EQ(HighestTailPercentile(20), 50.0);
  EXPECT_EQ(HighestTailPercentile(39), 50.0);
  EXPECT_EQ(HighestTailPercentile(40), 75.0);
  EXPECT_EQ(HighestTailPercentile(99), 75.0);
  EXPECT_EQ(HighestTailPercentile(100), 90.0);
  EXPECT_EQ(HighestTailPercentile(199), 90.0);
  EXPECT_EQ(HighestTailPercentile(200), 95.0);
  EXPECT_EQ(HighestTailPercentile(999), 95.0);
  EXPECT_EQ(HighestTailPercentile(1000), 99.0);
  EXPECT_EQ(HighestTailPercentile(9999), 99.0);
  EXPECT_EQ(HighestTailPercentile(10000), 99.9);
  EXPECT_EQ(HighestTailPercentile(100, 20), 75.0);
}

TEST(OpenLoop, ChargesTheStallToEveryRequestQueuedBehindIt) {
  const double rate = 200.0;  // One request due every 5 ms.
  EXPECT_EQ(OpenLoopDueNs(1000, rate, 0), 1000);
  EXPECT_EQ(OpenLoopDueNs(1000, rate, 3), 1000 + 15000000);

  // A single sender; the server stalls 50 ms on request 0 and answers the
  // rest in 1 ms. Requests 1..10 fall due during the stall and are sent
  // late, back to back.
  std::vector<OpenLoopSample> samples;
  int64_t free_at = 0;
  for (uint64_t k = 0; k < 14; ++k) {
    OpenLoopSample sample;
    sample.due_ns = OpenLoopDueNs(0, rate, k);
    sample.sent_ns = std::max(sample.due_ns, free_at);
    sample.done_ns = sample.sent_ns + (k == 0 ? 50000000 : 1000000);
    free_at = sample.done_ns;
    samples.push_back(sample);
  }
  EXPECT_DOUBLE_EQ(samples[0].LatencyMs(), 50.0);
  EXPECT_DOUBLE_EQ(samples[0].LateMs(), 0.0);
  // Request 1 was due at 5 ms, sent at 50 ms, answered at 51 ms.
  EXPECT_DOUBLE_EQ(samples[1].LateMs(), 45.0);
  EXPECT_DOUBLE_EQ(samples[1].LatencyMs(), 46.0);
  // Timed from when it was sent, it would read 1 ms: the stall is hidden.
  EXPECT_DOUBLE_EQ(static_cast<double>(samples[1].done_ns - samples[1].sent_ns) * 1e-6, 1.0);
  // The backlog drains one request per ms against one due per 5 ms.
  EXPECT_DOUBLE_EQ(samples[11].LateMs(), 5.0);
  EXPECT_DOUBLE_EQ(samples[12].LateMs(), 1.0);
  EXPECT_DOUBLE_EQ(samples[13].LateMs(), 0.0);
}

TEST(SplitThirds, MeanCostOfFirstAndLastThird) {
  const int64_t ms = 1000000;
  // Six trials: 1 ms each, then 10 ms each.
  std::vector<int64_t> ends = {1 * ms, 2 * ms, 3 * ms, 13 * ms, 23 * ms, 33 * ms};
  ThirdSplit split = SplitThirds(0, ends);
  EXPECT_EQ(split.third, 2u);
  EXPECT_DOUBLE_EQ(split.early_ms, 1.0);
  EXPECT_DOUBLE_EQ(split.late_ms, 10.0);
  EXPECT_DOUBLE_EQ(split.Slope(), 10.0);

  // Seven trials: the middle third absorbs the remainder; thirds are 2.
  ends = {2 * ms, 4 * ms, 6 * ms, 8 * ms, 10 * ms, 14 * ms, 18 * ms};
  split = SplitThirds(0, ends);
  EXPECT_EQ(split.third, 2u);
  EXPECT_DOUBLE_EQ(split.early_ms, 2.0);
  EXPECT_DOUBLE_EQ(split.late_ms, 4.0);

  // A batch observation stamps all its trials at once; when the thirds
  // fall on batch boundaries the third totals still telescope exactly.
  ends = {2 * ms, 2 * ms, 4 * ms, 4 * ms, 6 * ms, 6 * ms};
  split = SplitThirds(0, ends);
  EXPECT_DOUBLE_EQ(split.early_ms, 1.0);
  EXPECT_DOUBLE_EQ(split.late_ms, 1.0);

  EXPECT_EQ(SplitThirds(0, {ms, 2 * ms}).third, 0u);
  EXPECT_DOUBLE_EQ(SplitThirds(0, {ms, 2 * ms}).Slope(), 0.0);
}

}  // namespace
}  // namespace perfbench
