#include "perfbench/src/timed_searcher.h"

#include <utility>

#include "src/obs/clock.h"
#include "src/obs/metrics.h"
#include "src/platform/searcher_registry.h"

namespace perfbench {

using wayfinder::Configuration;
using wayfinder::SearchContext;
using wayfinder::TrialRecord;

HistogramReading ReadHistogram(const char* name) {
  const wayfinder::obs::Histogram& histogram =
      wayfinder::obs::Registry::Instance().GetHistogram(name);
  return {histogram.Sum(), histogram.Count()};
}

ProbeBoard& ProbeBoard::Instance() {
  static ProbeBoard board;
  return board;
}

void ProbeBoard::SetBudget(size_t budget) {
  std::lock_guard<std::mutex> lock(mutex_);
  budget_ = budget;
}

SearcherProbe* ProbeBoard::Add(const std::string& algorithm) {
  auto probe = std::make_unique<SearcherProbe>();
  probe->algorithm = algorithm;
  probe->keep_spans = wayfinder::obs::Enabled();
  std::lock_guard<std::mutex> lock(mutex_);
  probe->budget = budget_;
  probe->trial_end_ns.reserve(budget_);
  probes_.push_back(std::move(probe));
  return probes_.back().get();
}

std::vector<const SearcherProbe*> ProbeBoard::Probes(const std::string& algorithm) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const SearcherProbe*> out;
  for (const auto& probe : probes_) {
    if (probe->algorithm == algorithm) {
      out.push_back(probe.get());
    }
  }
  return out;
}

void ProbeBoard::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  probes_.clear();
}

TimedSearcher::TimedSearcher(std::unique_ptr<wayfinder::Searcher> inner, std::string name,
                             SearcherProbe* probe)
    : inner_(std::move(inner)), name_(std::move(name)), probe_(probe) {}

void TimedSearcher::BeforePropose(int64_t start_ns) {
  if (probe_->first_propose_ns == 0) {
    probe_->first_propose_ns = start_ns;
    probe_->update_at[0] = ReadHistogram("core.trunk_update_ns");
  }
}

void TimedSearcher::AfterPropose(int64_t start_ns, uint64_t candidates) {
  const int64_t dur_ns = wayfinder::obs::NowNs() - start_ns;
  probe_->propose_calls += candidates;
  probe_->propose_ns += dur_ns;
  if (probe_->keep_spans) {
    probe_->spans.push_back({start_ns, dur_ns, false});
  }
}

void TimedSearcher::AfterObserve(int64_t start_ns, size_t trials) {
  const int64_t end_ns = wayfinder::obs::NowNs();
  if (probe_->first_propose_ns == 0) {
    probe_->replay_trials += trials;
    probe_->replay_ns += end_ns - start_ns;
    return;
  }
  probe_->observe_ns += end_ns - start_ns;
  if (probe_->keep_spans) {
    probe_->spans.push_back({start_ns, end_ns - start_ns, true});
  }
  const size_t before = probe_->trial_end_ns.size();
  probe_->trial_end_ns.insert(probe_->trial_end_ns.end(), trials, end_ns);
  const size_t after = probe_->trial_end_ns.size();
  const size_t third = probe_->budget / 3;
  const size_t boundaries[3] = {third, probe_->budget - third, probe_->budget};
  for (int i = 0; i < 3; ++i) {
    if (third > 0 && before < boundaries[i] && after >= boundaries[i]) {
      probe_->update_at[i + 1] = ReadHistogram("core.trunk_update_ns");
    }
  }
  if (after >= probe_->budget) {
    probe_->memory_bytes = inner_->MemoryBytes();
  }
}

Configuration TimedSearcher::Propose(SearchContext& context) {
  const int64_t start_ns = wayfinder::obs::NowNs();
  BeforePropose(start_ns);
  Configuration config = inner_->Propose(context);
  AfterPropose(start_ns, 1);
  return config;
}

void TimedSearcher::ProposeBatch(SearchContext& context, size_t n,
                                 std::vector<Configuration>* batch) {
  const int64_t start_ns = wayfinder::obs::NowNs();
  BeforePropose(start_ns);
  inner_->ProposeBatch(context, n, batch);
  AfterPropose(start_ns, n);
}

void TimedSearcher::Observe(const TrialRecord& trial, SearchContext& context) {
  const int64_t start_ns = wayfinder::obs::NowNs();
  inner_->Observe(trial, context);
  AfterObserve(start_ns, 1);
}

void TimedSearcher::ObserveBatch(wayfinder::Span<const TrialRecord> trials,
                                 SearchContext& context) {
  const int64_t start_ns = wayfinder::obs::NowNs();
  // A fresh prvalue: copying a Span<const T> lvalue would instantiate its
  // std::vector<const T> converting constructor, which does not compile.
  inner_->ObserveBatch(wayfinder::Span<const TrialRecord>(trials.data(), trials.size()),
                       context);
  AfterObserve(start_ns, trials.size());
}

namespace {

std::unique_ptr<wayfinder::Searcher> MakeTimed(const std::string& inner_name,
                                               const wayfinder::SearcherArgs& args) {
  std::unique_ptr<wayfinder::Searcher> inner =
      wayfinder::SearcherRegistry::Instance().Create(inner_name, args);
  if (inner == nullptr) {
    return nullptr;
  }
  const std::string name = "perfbench." + inner_name;
  return std::make_unique<TimedSearcher>(std::move(inner), name,
                                         ProbeBoard::Instance().Add(name));
}

const wayfinder::SearcherRegistration kTimedDeepTune{
    {"perfbench.deeptune", "deeptune behind the benchmark's timing decorator", "", false},
    [](const wayfinder::SearcherArgs& args) { return MakeTimed("deeptune", args); }};

}  // namespace

}  // namespace perfbench
