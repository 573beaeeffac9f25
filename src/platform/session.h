// The exploration session: Wayfinder's core loop (§3.1), batch-concurrent.
//
// Serial mode (parallel_evaluations = 1, the default): repeatedly (1) ask
// the search algorithm for the next configuration, (2) build + boot +
// benchmark it on the testbench — skipping the build when compile-/boot-time
// parameters are unchanged since the last built image — and (3) feed the
// outcome back to the algorithm. Bit-identical to the pre-batch loop, pinned
// by test.
//
// Batch mode (parallel_evaluations = K > 1): the session models K virtual
// testbenches racing in simulated time. Each round it asks the searcher for
// one batch (Searcher::ProposeBatch), evaluates the K trials concurrently on
// the shared ThreadPool against per-slot Testbench clones, and commits the
// completions in deterministic virtual-time order — ascending simulated
// duration, ties broken by batch index — before feeding them back through
// Searcher::ObserveBatch. Every trial draws from its own counter-derived RNG
// stream and its own SimClock, so the history is bit-identical at any
// eval_threads value (physical concurrency never leaks into results); only
// K itself, which is part of the experiment, shapes the trajectory.
//
// Runs until an iteration or simulated-time budget is exhausted and returns
// the full history plus the best configuration found.
#ifndef WAYFINDER_SRC_PLATFORM_SESSION_H_
#define WAYFINDER_SRC_PLATFORM_SESSION_H_

#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/configspace/config_space.h"
#include "src/obs/trace.h"
#include "src/platform/checkpoint.h"
#include "src/platform/searcher.h"
#include "src/platform/trial.h"
#include "src/simos/testbench.h"
#include "src/util/sim_clock.h"

namespace wayfinder {

// What the session optimizes.
enum class ObjectiveKind {
  kAppMetric,        // The application's own metric (polarity from the app).
  kMemoryFootprint,  // Boot memory consumption, minimized (Figure 10).
  kScore,            // s = mXNorm(throughput) - mXNorm(memory) (Eq. 4, Fig 11).
};

struct SessionOptions {
  size_t max_iterations = 250;
  double max_sim_seconds = std::numeric_limits<double>::infinity();
  ObjectiveKind objective = ObjectiveKind::kAppMetric;
  SampleOptions sample_options;  // Phase bias (favor runtime/compile-time).
  uint64_t seed = 0x5e55;
  // Re-propose when a searcher suggests an already-evaluated configuration
  // (up to this many retries; 0 disables dedup).
  size_t dedup_retries = 8;
  // Virtual testbenches evaluating concurrently. 1 = the serial loop,
  // bit-identical to the pre-batch session. K > 1 proposes K-wide batches
  // and merges completions in virtual-time order; K is part of the
  // experiment (it shapes the trajectory), unlike eval_threads below.
  size_t parallel_evaluations = 1;
  // Physical threads evaluating one batch (0 = one per batch slot). Purely
  // an execution knob: histories are bit-identical at any value, pinned by
  // test.
  size_t eval_threads = 0;
  // Sliding-window executor (parallel_evaluations > 1 only): instead of
  // lock-step K-wide rounds, commit the earliest virtual finisher(s) and
  // refill just the freed slots, keeping K trials in flight at all times —
  // higher utilization when trial durations vary widely. Trials that finish
  // at exactly the same virtual time commit as one wave (ties by proposal
  // order), so with equal-duration trials the schedule degenerates to
  // lock-step rounds and the history is bit-identical to the default
  // executor, pinned by test. Off by default: lock-step is the
  // deterministic baseline the PR-4 pins were written against.
  bool sliding_window = false;
  // §3.5 "more comprehensive benchmarks": an optional user check of the
  // deployment (e.g. run a test suite against the booted image). Returning
  // false demotes an otherwise-successful trial to a run crash, so the
  // searcher learns the configurations that cause the misbehavior. In batch
  // mode the check runs serially at commit time, so it need not be
  // thread-safe.
  std::function<bool(const Configuration&, const TrialOutcome&)> deploy_check;
  // --- Re-measurement policy (robustness under fault injection) ------------
  // Retry a transient-class failure (timeout, hang, infrastructure flake —
  // TrialOutcome::transient()) up to this many extra times before committing
  // it. Retries draw from counter-derived RNG streams and every attempt is
  // budget-charged on the trial's clock; only the final attempt enters the
  // history. 0 disables (the default: bit-identical to the pre-policy loop).
  size_t retry_transient = 0;
  // Median-of-k repeated measurement for noisy benchmarks: a successful
  // trial's benchmark re-runs k-1 more times (build skipped, budget-charged)
  // and the committed metric is the median of the successful repeats.
  // 1 disables (default).
  size_t measure_repeats = 1;
  // --- Drift detection ------------------------------------------------------
  // Sliding-window drift detector: when the best objective among the last
  // drift_window successes regresses more than drift_threshold (relative to
  // the all-time best) below that best, the session declares a drift event:
  // Searcher::OnDrift fires (partial retrain / elite invalidation) and the
  // historical best configuration is re-evaluated on the current landscape
  // (elite re-validation, committed as a regular budget-charged trial).
  // Off by default; jobs scheduling FaultPlan::drift_at enable it.
  bool drift_detection = false;
  size_t drift_window = 8;
  double drift_threshold = 0.25;
};

struct SessionResult {
  std::vector<TrialRecord> history;
  // Index into history of the best successful trial; nullopt if none.
  std::optional<size_t> best_index;
  double total_sim_seconds = 0.0;
  size_t crashes = 0;
  size_t builds = 0;
  size_t builds_skipped = 0;
  // Failure taxonomy (crashes broken down by class) plus the robustness
  // policy counters: transient attempts the retry policy consumed, and
  // drift events the detector declared.
  size_t build_failures = 0;
  size_t boot_failures = 0;
  size_t run_crashes = 0;
  size_t timeouts = 0;
  size_t transient_retries = 0;
  size_t drift_events = 0;

  const TrialRecord* best() const {
    return best_index.has_value() ? &history[*best_index] : nullptr;
  }
  double CrashRate() const {
    return history.empty() ? 0.0
                           : static_cast<double>(crashes) / static_cast<double>(history.size());
  }
  // Simulated time at which the best configuration was first evaluated
  // (Table 2's "avg. time to find"); 0 when nothing succeeded.
  double TimeToBest() const { return best_index.has_value() ? history[*best_index].sim_time_end : 0.0; }
};

class SearchSession {
 public:
  SearchSession(Testbench* bench, Searcher* searcher, const SessionOptions& options);

  // Runs the full loop. Can be called once per session object.
  SessionResult Run();

  // Restores a previously checkpointed history before the first Step():
  // re-seeds the dedup set, counters, and simulated clock, and replays
  // every trial through the searcher's Observe so its model catches up.
  // Aborts if called after stepping.
  void Resume(const std::vector<TrialRecord>& prior);

  // Resume plus checkpoint-v2 live state: after the replay, the session and
  // searcher RNG streams and the searcher's opaque state are restored to
  // the interrupted run's exact position, so the continuation is
  // bit-identical to the uninterrupted run — including model-based
  // searchers (the model retrains from the replay; the live state carries
  // what replay cannot rebuild). Empty live fields are skipped (a v1
  // checkpoint degrades to the plain Resume above). False when any present
  // field fails to parse; the session is then unusable.
  bool Resume(const std::vector<TrialRecord>& prior, const CheckpointLiveState& live);

  // Snapshot of the live randomness for a v2 checkpoint. Meaningful only
  // at a commit boundary — AtCommitBoundary() true — because a sliding
  // session with trials in flight has consumed proposal entropy for trials
  // the history does not (yet) contain; callers checkpoint such sessions
  // without live state (replay-only resume, which is always safe).
  CheckpointLiveState ExportLiveState() const;

  // True when every proposed trial has committed: after Run(), between
  // serial/lock-step steps, or between sliding waves with an empty window.
  bool AtCommitBoundary() const { return in_flight_.empty(); }

  // Runs a single serial iteration; exposed for fine-grained tests and for
  // benches that interleave sessions. Returns false when the budget is
  // exhausted.
  bool Step();

  // Runs one proposal round at the configured parallelism and returns the
  // number of trials committed (0 = budget exhausted). At
  // parallel_evaluations = 1 this is exactly one Step(); above it, one
  // ProposeBatch / concurrent-evaluate / virtual-time-merge / ObserveBatch
  // round of up to parallel_evaluations trials.
  size_t StepBatch();

  const std::vector<TrialRecord>& history() const { return history_; }
  const SimClock& clock() const { return clock_; }
  size_t transient_retries() const { return retries_; }
  size_t drift_events() const { return drift_events_; }
  // Per-session trace ring (src/obs/trace.h). Recording self-gates on
  // obs::Enabled(), so a metrics-off run never reads the wall clock here.
  // Exposed non-const so the service layer can stamp durability events
  // (journal-append, store-append) into the same timeline.
  obs::TraceRing& trace() { return trace_; }
  SessionResult Finish();

 private:
  // One in-flight slot of a concurrent evaluation round.
  struct PendingTrial {
    Configuration config;
    TrialOutcome outcome;
    double sim_seconds = 0.0;  // Virtual duration of this trial alone.
    bool skip_build = false;
    uint64_t rng_seed = 0;
    size_t retries = 0;  // Transient retries this trial consumed.
  };

  // One trial in flight under the sliding-window executor.
  struct InFlight {
    PendingTrial trial;
    double finish_time = 0.0;  // Absolute virtual time it completes.
    size_t clone = 0;          // Testbench clone evaluating it.
    uint64_t sequence = 0;     // Proposal order; breaks finish-time ties.
  };

  double ComputeObjective(const TrialOutcome& outcome) const;
  // Recomputes min-max normalized scores over the successful history
  // (ObjectiveKind::kScore shifts as observations accumulate).
  void RefreshScores();
  bool SameImageParams(const Configuration& a, const Configuration& b) const;
  SearchContext MakeContext();
  // Dedup helper: re-proposes while `config` repeats history, then marks its
  // hash seen. Mirrors the serial retry loop exactly.
  void DedupProposal(SearchContext& context, Configuration* config);
  // Commits one evaluated trial: deploy check, counters, build cache,
  // objective, history append. Shared by the serial and batch paths.
  // stamp_ns, when nonzero, is a TraceClock stamp the caller already took
  // (the serial loop reuses its evaluate-span end read); zero means read
  // the clock here. Only consulted while recording is enabled.
  void CommitTrial(PendingTrial&& pending, double end_time,
                   int64_t stamp_ns = 0);
  // One evaluation under the re-measurement policy: evaluate, retry
  // transient failures up to retry_transient times on counter-derived
  // streams keyed off `seed_base`, then median-of-measure_repeats the
  // metric of a success. Every attempt advances `clock` (budget-charged).
  // Thread-safe: touches only options_ and its arguments, so batch slots
  // call it concurrently.
  TrialOutcome EvaluateWithPolicy(Testbench* bench, const Configuration& config, Rng& rng,
                                  SimClock* clock, bool skip_build, bool boot_only,
                                  uint64_t seed_base, size_t* retries_used) const;
  // Drift detector + elite re-validation; runs after each observation wave
  // when options_.drift_detection is set.
  void MaybeDetectDrift(SearchContext& context);
  void EnsureBenchClones(size_t n);
  // Sliding-window executor: one commit wave (simultaneous finishers) plus
  // the refill that precedes it. Returns trials committed, 0 when drained.
  size_t StepSlidingWave();
  // Proposes and launches trials for every free slot, respecting the
  // iteration/time budget. Proposal entropy is keyed on proposed_count_ so
  // that with equal-duration trials the streams line up with the lock-step
  // executor's exactly.
  void RefillSlidingSlots();

  Testbench* bench_;
  Searcher* searcher_;
  SessionOptions options_;
  SimClock clock_;
  Rng rng_;
  Rng searcher_rng_;
  std::vector<TrialRecord> history_;
  // Hashes of every evaluated (or batch-pending) configuration; O(1) lookup
  // keeps dedup flat at 250+ iterations x dedup_retries and under batching.
  std::unordered_set<uint64_t> seen_hashes_;
  std::optional<Configuration> last_built_image_;
  // Per-slot Testbench clones for concurrent evaluation (slot i of every
  // batch always evaluates on clone i, so physical scheduling cannot leak
  // into any model-internal state).
  std::vector<std::unique_ptr<Testbench>> bench_clones_;
  std::vector<PendingTrial> pending_;  // Batch scratch, reused per round.
  // Sliding-window state: trials in flight, the clone indices free to host a
  // refill (FIFO, so the equal-duration schedule reuses clones exactly like
  // lock-step), proposals launched so far, and the wall-clock proposal cost
  // accrued since the last commit wave.
  std::vector<InFlight> in_flight_;
  std::vector<size_t> free_clones_;
  size_t proposed_count_ = 0;
  double pending_propose_seconds_ = 0.0;
  // The sliding executor's proposal entropy stream: re-seeded at each refill
  // from (seed, proposed_count_) and left live for the following commit
  // wave's ObserveBatch — mirroring how a lock-step round's single RNG
  // carries from its proposals into its observation.
  Rng sliding_rng_{0};
  size_t crashes_ = 0;
  size_t builds_ = 0;
  size_t builds_skipped_ = 0;
  // Failure taxonomy + robustness policy counters (surfaced in
  // SessionResult and the daemon's session status).
  FailureTaxonomy failures_;
  size_t retries_ = 0;
  size_t drift_events_ = 0;
  // Successful-trial count at the last drift event; the detector waits a
  // full window of fresh successes before it may fire again (cooldown).
  size_t successes_at_last_drift_ = 0;
  // Stage timeline for `wfctl trace` — propose/evaluate/observe spans plus
  // build/retry/commit/drift instants, stamped only when obs::Enabled().
  obs::TraceRing trace_;
};

// Convenience wrapper: construct, run, return.
SessionResult RunSearch(Testbench* bench, Searcher* searcher, const SessionOptions& options);

// Objective of one outcome under `objective` for application `app` — the
// definition SearchSession applies to its own trials (NaN for crashed
// trials; kScore yields the 0.0 placeholder RefreshScoreObjectives then
// overwrites). Exposed so the wfd service can re-derive objectives when
// warm-starting a searcher from trials recorded under a different job's
// objective definition.
double TrialObjective(const TrialOutcome& outcome, ObjectiveKind objective, AppId app);

// Recomputes Eq. 4 score objectives in place: min-max normalized
// throughput minus normalized memory over the successful records.
void RefreshScoreObjectives(std::vector<TrialRecord>* history);

// --- Series extraction for the evolution figures ---------------------------

// (time, value) points of successful trials' objectives in history order.
struct SeriesPoint {
  double time = 0.0;
  double value = 0.0;
};
std::vector<SeriesPoint> ObjectiveSeries(const std::vector<TrialRecord>& history);

// Trailing-window crash rate aligned with history order.
std::vector<double> CrashRateSeries(const std::vector<TrialRecord>& history, size_t window = 25);

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_PLATFORM_SESSION_H_
