// The benchmark's view into the search core from outside: a forwarding
// Searcher decorator that times every call into the wrapped algorithm and
// stamps when each trial's observation returns. Nothing inside src/ is
// instrumented for it; the decorator only calls the public Searcher API
// and reads the obs registry through its public accessors.
//
// Daemon sessions build their searcher through the SearcherRegistry, so the
// decorator registers itself as "perfbench.deeptune": a job naming it runs
// plain DeepTune behind the decorator. The algorithm name feeds no seed, so
// the trajectory is the plain job's (dt-serial's pinned digest equals that
// of the same job run through RunJob with `algorithm: deeptune`).
#ifndef PERFBENCH_SRC_TIMED_SEARCHER_H_
#define PERFBENCH_SRC_TIMED_SEARCHER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/platform/searcher.h"

namespace perfbench {

// One registry histogram's (sum, count) at an instant.
struct HistogramReading {
  uint64_t sum = 0;
  uint64_t count = 0;
};
HistogramReading ReadHistogram(const char* name);

// What the decorator measured on one searcher instance. Written only by the
// thread driving that searcher's session; read by the benchmark after the
// session finished (Run returned, or the daemon drained and joined its
// drivers).
struct SearcherProbe {
  struct Span {
    int64_t start_ns = 0;
    int64_t dur_ns = 0;
    bool observe = false;
  };

  std::string algorithm;
  size_t budget = 0;  // New trials the job commits: the third boundaries.
  uint64_t propose_calls = 0;  // Candidates asked for (dedup retries included).
  int64_t propose_ns = 0;
  int64_t observe_ns = 0;
  // Trials observed before the first proposal: the warm-start replay.
  size_t replay_trials = 0;
  int64_t replay_ns = 0;
  int64_t first_propose_ns = 0;       // 0 until the first proposal starts.
  std::vector<int64_t> trial_end_ns;  // Per new trial: its observation's return.
  // core.trunk_update_ns at 0, budget/3, budget - budget/3 and budget new
  // trials (registry values only move while obs recording is on).
  HistogramReading update_at[4];
  size_t memory_bytes = 0;  // Searcher::MemoryBytes() after the last trial.
  bool keep_spans = false;  // Traced runs keep one span per call.
  std::vector<Span> spans;
};

// Process-wide list of probes, one per decorated searcher.
class ProbeBoard {
 public:
  static ProbeBoard& Instance();

  // Budget given to probes created from now on (registry-built searchers
  // cannot see the job's iteration count).
  void SetBudget(size_t budget);
  SearcherProbe* Add(const std::string& algorithm);
  // Probes of `algorithm` in construction order. Call only while no
  // decorated searcher is running.
  std::vector<const SearcherProbe*> Probes(const std::string& algorithm) const;
  void Clear();

 private:
  mutable std::mutex mutex_;  // Guards both members below.
  size_t budget_ = 0;
  std::vector<std::unique_ptr<SearcherProbe>> probes_;
};

class TimedSearcher : public wayfinder::Searcher {
 public:
  TimedSearcher(std::unique_ptr<wayfinder::Searcher> inner, std::string name,
                SearcherProbe* probe);

  std::string Name() const override { return name_; }
  wayfinder::Configuration Propose(wayfinder::SearchContext& context) override;
  void Observe(const wayfinder::TrialRecord& trial, wayfinder::SearchContext& context) override;
  void ProposeBatch(wayfinder::SearchContext& context, size_t n,
                    std::vector<wayfinder::Configuration>* batch) override;
  void ObserveBatch(wayfinder::Span<const wayfinder::TrialRecord> trials,
                    wayfinder::SearchContext& context) override;
  void OnDrift(wayfinder::SearchContext& context) override { inner_->OnDrift(context); }
  size_t MemoryBytes() const override { return inner_->MemoryBytes(); }
  std::string ExportState() const override { return inner_->ExportState(); }
  bool RestoreState(const std::string& state) override { return inner_->RestoreState(state); }

 private:
  void BeforePropose(int64_t start_ns);
  void AfterPropose(int64_t start_ns, uint64_t candidates);
  void AfterObserve(int64_t start_ns, size_t trials);

  std::unique_ptr<wayfinder::Searcher> inner_;
  std::string name_;
  SearcherProbe* probe_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TIMED_SEARCHER_H_
