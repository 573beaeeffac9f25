#include "perfbench/src/bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

void TrajectoryDigest::Mix(uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    state_ ^= (word >> (8 * byte)) & 0xffu;
    state_ *= 0x100000001b3ull;
  }
}

void TrajectoryDigest::Add(uint64_t config_hash, int status, double objective) {
  uint64_t bits = 0;
  if (std::isnan(objective)) {
    bits = 0x7ff8000000000000ull;
  } else {
    std::memcpy(&bits, &objective, sizeof(bits));
  }
  Mix(config_hash);
  Mix(static_cast<uint64_t>(status));
  Mix(bits);
}

void TrajectoryDigest::Add(const wayfinder::TrialRecord& trial) {
  Add(trial.config.Hash(), static_cast<int>(trial.outcome.status), trial.objective);
}

uint64_t DigestHistory(const std::vector<wayfinder::TrialRecord>& history) {
  TrajectoryDigest digest;
  for (const wayfinder::TrialRecord& trial : history) {
    digest.Add(trial);
  }
  return digest.value();
}

std::string DigestHex(uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(digest));
  return buf;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double HighestTailPercentile(size_t n, size_t min_tail) {
  // Candidates in per-mille, so n * (1 - p/100) >= min_tail stays exact
  // integer arithmetic.
  static const uint64_t kPerMille[] = {999, 990, 950, 900, 750, 500};
  for (uint64_t p : kPerMille) {
    if (static_cast<uint64_t>(n) * (1000 - p) >= static_cast<uint64_t>(min_tail) * 1000) {
      return static_cast<double>(p) / 10.0;
    }
  }
  return 0.0;
}

int64_t OpenLoopDueNs(int64_t start_ns, double rate_per_s, uint64_t k) {
  return start_ns + static_cast<int64_t>(static_cast<double>(k) * 1e9 / rate_per_s);
}

ThirdSplit SplitThirds(int64_t start_ns, const std::vector<int64_t>& end_ns) {
  ThirdSplit split;
  const size_t n = end_ns.size();
  split.third = n / 3;
  if (split.third == 0) {
    return split;
  }
  const double t = static_cast<double>(split.third);
  split.early_ms = static_cast<double>(end_ns[split.third - 1] - start_ns) * 1e-6 / t;
  split.late_ms = static_cast<double>(end_ns[n - 1] - end_ns[n - split.third - 1]) * 1e-6 / t;
  return split;
}

}  // namespace perfbench
