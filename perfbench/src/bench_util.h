// Measurement helpers of the end-to-end benchmark: the trajectory digest
// that gates correctness, percentile selection, open-loop lateness
// accounting, and the third-split per-trial cost. Pure functions over
// plain numbers so the self-tests (selftest.cc) pin them without a daemon.
#ifndef PERFBENCH_SRC_BENCH_UTIL_H_
#define PERFBENCH_SRC_BENCH_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/platform/trial.h"

namespace perfbench {

// FNV-1a over every trial's (config hash, outcome status, objective bits),
// in history order. Wall-clock fields (TrialRecord::searcher_seconds) are
// never read, so two runs of one deterministic job digest equal. Every NaN
// objective (a crashed trial) hashes as one canonical value.
class TrajectoryDigest {
 public:
  void Add(uint64_t config_hash, int status, double objective);
  void Add(const wayfinder::TrialRecord& trial);
  uint64_t value() const { return state_; }

 private:
  void Mix(uint64_t word);

  uint64_t state_ = 0xcbf29ce484222325ull;
};

uint64_t DigestHistory(const std::vector<wayfinder::TrialRecord>& history);
std::string DigestHex(uint64_t digest);

// Linear-interpolated percentile (p in [0, 100]) of `values`, the
// "linear" rule numpy and Python's statistics module use. 0 when empty.
double Percentile(std::vector<double> values, double p);

// The highest of {99.9, 99, 95, 90, 75, 50} that leaves at least
// `min_tail` of `n` samples strictly beyond it (n * (1 - p/100) >=
// min_tail). 0 when not even the median qualifies.
double HighestTailPercentile(size_t n, size_t min_tail = 10);

// One request of an open-loop generator: due at start + k * period, sent
// at `sent_ns` (later than due when the generator fell behind), answered
// at `done_ns`. Latency counts from the due time, so a stall charges the
// wait it imposes on every request queued behind it.
struct OpenLoopSample {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  double LatencyMs() const { return static_cast<double>(done_ns - due_ns) * 1e-6; }
  double LateMs() const { return static_cast<double>(sent_ns - due_ns) * 1e-6; }
};

// Due time of request `k` of a generator started at `start_ns` issuing
// `rate_per_s` requests per second.
int64_t OpenLoopDueNs(int64_t start_ns, double rate_per_s, uint64_t k);

// Mean wall time per trial over the first and the last third of a job.
// `end_ns[i]` is when trial i's observation returned; trial 0 starts at
// `start_ns`. A batch observation stamps all its trials with one time; the
// third totals stay exact when the thirds fall on batch boundaries, which
// the serial loop every workload runs always does.
struct ThirdSplit {
  size_t third = 0;  // Trials per third (n / 3); 0 when n < 3.
  double early_ms = 0.0;
  double late_ms = 0.0;
  double Slope() const { return early_ms > 0.0 ? late_ms / early_ms : 0.0; }
};
ThirdSplit SplitThirds(int64_t start_ns, const std::vector<int64_t>& end_ns);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_UTIL_H_
