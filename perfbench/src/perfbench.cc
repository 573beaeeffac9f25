// End-to-end benchmark of the Wayfinder reproduction, split into layers
// from outside (see perfbench/README.md for workloads and metrics).
//
//   wf_perfbench --workload dt-serial|dt-warm --seed N
//                --seconds S --trace 0|1
//
// Prints one JSON object as its last stdout line: the trajectory digest,
// correctness verdict, operation counts, and every metric it measured.
// perfbench/run.py builds this program, checks the digest against the pins
// and earlier runs, and reduces the object to the benchmark's result line.
//
// Each run is its own process. An untraced pass measures the end-to-end
// metrics; with --trace 1 a second, traced pass (obs recording on) follows
// and measures the per-layer metrics, and the two passes must commit the
// same trajectories.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "perfbench/src/bench_util.h"
#include "perfbench/src/timed_searcher.h"
#include "src/core/wayfinder_api.h"
#include "src/obs/clock.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/platform/checkpoint.h"
#include "src/service/client.h"
#include "src/service/wfd.h"
#include "src/util/socket.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using wayfinder::obs::NowNs;

// --- knobs fixed by the benchmark ------------------------------------------

constexpr size_t kSerialIterations = 450;  // Past the ~210-trial subnormal onset.
constexpr size_t kColdIterations = 450;    // dt-warm store population.
constexpr size_t kWarmIterations = 150;
constexpr double kStatusRate = 200.0;  // dt-warm's open-loop status poller, req/s.
constexpr int kCallTimeoutMs = 5000;   // Receive/send timeout of every call.
// Completion polling: its interval is the resolution of job_s.
constexpr int kColdPollMs = 2;   // dt-warm's set-up job: ~0.2 s.
constexpr int kWarmPollMs = 20;  // dt-warm's timed job: ~30 s.
// setup_s is the median of this many set-ups.
constexpr int kSerialSetups = 15;
constexpr int kWarmSetups = 9;

struct Args {
  std::string workload;
  uint64_t seed = 3;
  double seconds = 15.0;
  bool trace = false;
  std::string out_dir = ".bench_out";   // Chrome trace JSON of traced runs.
  std::string work_dir = ".bench_run";  // Daemon journals and stores.
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

// What one pass measured.
struct Pass {
  std::map<std::string, Metric> metrics;
  uint64_t digest = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;  // Correctness failures, human-readable.

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Fail(const std::string& problem) { problems.push_back(problem); }
};

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }
double Sec(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double Median(const std::vector<double>& values) { return Percentile(values, 50.0); }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

std::string JobText(const std::string& name, const std::string& os, const std::string& app,
                    size_t iterations, const std::string& algorithm, uint64_t seed) {
  return "name: " + name + "\nos: " + os + "\napplication: " + app +
         "\nmetric: performance\nbudget:\n  iterations: " + std::to_string(iterations) +
         "\nsearch:\n  algorithm: " + algorithm + "\n  seed: " + std::to_string(seed) + "\n";
}

// Registry instruments the per-layer metrics read, as deltas over a pass.
struct RegistryReading {
  std::map<std::string, HistogramReading> histograms;
  std::map<std::string, uint64_t> counters;

  static RegistryReading Take() {
    static const char* const kHistograms[] = {
        "core.pool_assembly_ns", "core.trunk_update_ns", "service.wave_ns",
        "service.journal_append_ns", "service.store_append_ns", "service.store_fsync_ns",
        "transport.dispatch_ns"};
    static const char* const kCounters[] = {"transport.bytes_tx"};
    RegistryReading reading;
    for (const char* name : kHistograms) {
      reading.histograms[name] = ReadHistogram(name);
    }
    for (const char* name : kCounters) {
      reading.counters[name] =
          wayfinder::obs::Registry::Instance().GetCounter(name).Value();
    }
    return reading;
  }
  double SumMs(const RegistryReading& before, const std::string& name) const {
    return Ms(static_cast<int64_t>(histograms.at(name).sum - before.histograms.at(name).sum));
  }
  double Count(const RegistryReading& before, const std::string& name) const {
    return static_cast<double>(histograms.at(name).count - before.histograms.at(name).count);
  }
  double Counter(const RegistryReading& before, const std::string& name) const {
    return static_cast<double>(counters.at(name) - before.counters.at(name));
  }
};

// Benchmark-side spans, kept in memory and written as Chrome trace JSON.
struct BenchSpan {
  std::string name;
  int tid = 0;  // 1 = session, 2 = submitter, 3 = poller.
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
};

void WriteBenchTrace(const std::string& path, const std::vector<BenchSpan>& spans,
                     Pass* pass) {
  int64_t base = 0;
  for (const BenchSpan& span : spans) {
    base = base == 0 ? span.start_ns : std::min(base, span.start_ns);
  }
  std::string out = "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,"
                    "\"pid\":2,\"tid\":1,\"args\":{\"name\":\"perfbench\"}}";
  char buf[256];
  for (const BenchSpan& span : spans) {
    std::snprintf(buf, sizeof(buf),
                  ",{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":2,\"tid\":%d}",
                  span.name.c_str(), static_cast<double>(span.start_ns - base) / 1000.0,
                  static_cast<double>(span.dur_ns) / 1000.0, span.tid);
    out += buf;
  }
  out += "]}";
  std::string error;
  if (!wayfinder::obs::ValidateChromeTraceJson(out, &error)) {
    pass->Fail("benchmark trace JSON invalid: " + error);
  }
  std::ofstream(path) << out;
}

// Sums of span durations per event name in a Chrome trace_event document
// rendered by wayfinder::obs::RenderChromeTrace (one event object per
// "name", durations in microseconds).
std::map<std::string, double> SumTraceSpansMs(const std::string& json) {
  std::map<std::string, double> sums;
  const std::string name_key = "{\"name\":\"";
  size_t pos = 0;
  while ((pos = json.find(name_key, pos)) != std::string::npos) {
    pos += name_key.size();
    size_t name_end = json.find('"', pos);
    size_t object_end = json.find('}', pos);
    if (name_end == std::string::npos || object_end == std::string::npos) {
      break;
    }
    std::string name = json.substr(pos, name_end - pos);
    size_t dur = json.find("\"dur\":", name_end);
    if (dur != std::string::npos && dur < object_end) {
      sums[name] += std::strtod(json.c_str() + dur + 6, nullptr) / 1000.0;
    }
    pos = name_end;
  }
  return sums;
}

// --- in-process daemon and its clients --------------------------------------

// The daemon `wfd` wraps, serving from a thread of this process with its
// store and (when `journal`) its journal under `dir` (local disk: users pay
// the fsync).
class Daemon {
 public:
  Daemon(const std::string& dir, bool metrics, bool journal = true) : dir_(dir) {
    fs::create_directories(dir);
    wayfinder::WfdOptions options;
    options.socket_path = dir + "/wfd.sock";
    options.manager.store_dir = dir + "/store";
    options.manager.journal_path = journal ? dir + "/journal.wfj" : "";
    options.recover = false;
    options.metrics = metrics;
    server_ = std::make_unique<wayfinder::WfdServer>(options);
    if (server_->Start()) {
      // Joined in Stop(), which the destructor calls.
      thread_ = std::thread([this] { server_->Serve(); });
    }
  }
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool ok() const { return thread_.joinable(); }
  std::string error() const { return server_->error(); }
  std::string socket() const { return dir_ + "/wfd.sock"; }
  // Drains the manager (every driver thread joined) and stops serving.
  void Stop() {
    if (thread_.joinable()) {
      server_->Stop();
      thread_.join();
    }
  }

 private:
  std::string dir_;
  std::unique_ptr<wayfinder::WfdServer> server_;
  std::thread thread_;
};

// One client connection. Every call runs under a receive and send timeout
// (a call that never answers counts as a timeout, and the connection is
// re-dialled because its framing is lost); calls are timed and, in traced
// runs, kept as spans.
class Client {
 public:
  Client(std::string socket, bool binary, int tid, bool keep_spans)
      : socket_(std::move(socket)), binary_(binary), tid_(tid), keep_spans_(keep_spans) {}

  bool Connect() {
    std::string error;
    return conn_.Connect(socket_, binary_, &error);
  }

  wayfinder::ServiceCallResult Call(const wayfinder::ServiceRequest& request,
                                    const std::string& job_text = "",
                                    int64_t* start_out = nullptr, int64_t* end_out = nullptr) {
    ++calls_;
    const int64_t start = NowNs();
    wayfinder::ServiceCallResult result;
    if (!conn_.connected() && !Connect()) {
      result.error = "cannot connect";
      result.transport_error = true;
    } else {
      wayfinder::SetRecvTimeout(conn_.fd(), kCallTimeoutMs);
      wayfinder::SetSendTimeout(conn_.fd(), kCallTimeoutMs);
      result = conn_.Call(request, job_text);
    }
    const int64_t end = NowNs();
    if (!result.ok) {
      ++failures_;
      if (result.transport_error) {
        timeouts_ += end - start >= static_cast<int64_t>(kCallTimeoutMs) * 1000000 * 9 / 10;
        conn_.Close();
      }
    }
    if (keep_spans_) {
      spans_.push_back({"client." + request.command, tid_, start, end - start});
    }
    if (start_out != nullptr) {
      *start_out = start;
    }
    if (end_out != nullptr) {
      *end_out = end;
    }
    return result;
  }

  uint64_t calls() const { return calls_; }
  uint64_t failures() const { return failures_; }
  uint64_t timeouts() const { return timeouts_; }
  const std::vector<BenchSpan>& spans() const { return spans_; }

 private:
  std::string socket_;
  bool binary_;
  int tid_;
  bool keep_spans_;
  wayfinder::ServiceConnection conn_;
  uint64_t calls_ = 0;
  uint64_t failures_ = 0;
  uint64_t timeouts_ = 0;
  std::vector<BenchSpan> spans_;
};

wayfinder::ServiceRequest Request(const std::string& command, const std::string& id = "") {
  wayfinder::ServiceRequest request;
  request.command = command;
  request.id = id;
  return request;
}

bool Terminal(const std::string& state) {
  return state == "done" || state == "failed" || state == "stopped";
}

// Polls `status <id>` every `poll_ms` until the session is terminal;
// returns the last status seen (state "" when the calls kept failing past
// `deadline_ns`).
wayfinder::SessionStatus WaitTerminal(Client* client, const std::string& id, int poll_ms,
                                      int64_t deadline_ns, int64_t* seen_ns) {
  wayfinder::SessionStatus status;
  while (NowNs() < deadline_ns) {
    wayfinder::ServiceCallResult r = client->Call(Request("status", id), "", nullptr, seen_ns);
    if (r.ok && !r.response.sessions.empty()) {
      status = r.response.sessions.front();
      if (Terminal(status.state)) {
        return status;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
  }
  status.state.clear();
  return status;
}

// Open-loop fleet-wide `status` over its own YAML connection at kStatusRate,
// from construction until Stop(). Each call is timed from when it was due,
// so a stall charges every call queued behind it; the samples also record
// how late the poller itself ran.
class StatusPoller {
 public:
  StatusPoller(const std::string& socket, bool keep_spans)
      : client_(socket, false, 3, keep_spans) {
    client_.Connect();
    start_ns_ = NowNs();
    thread_ = std::thread([this] { Run(); });
  }
  ~StatusPoller() { Stop(); }
  StatusPoller(const StatusPoller&) = delete;
  StatusPoller& operator=(const StatusPoller&) = delete;

  // Stops and joins the poller; samples() and client() are then stable.
  void Stop() {
    done_.store(true);
    if (thread_.joinable()) {
      thread_.join();
    }
  }
  const std::vector<OpenLoopSample>& samples() const { return samples_; }
  const Client& client() const { return client_; }

 private:
  void Run() {
    for (uint64_t k = 0; !done_.load(); ++k) {
      const int64_t due = OpenLoopDueNs(start_ns_, kStatusRate, k);
      while (!done_.load() && NowNs() < due) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(std::min<int64_t>(due - NowNs(), 1000000)));
      }
      if (done_.load()) {
        return;
      }
      OpenLoopSample sample;
      sample.due_ns = due;
      client_.Call(Request("status"), "", &sample.sent_ns, &sample.done_ns);
      samples_.push_back(sample);
    }
  }

  Client client_;
  int64_t start_ns_ = 0;
  std::atomic<bool> done_{false};
  std::vector<OpenLoopSample> samples_;  // Written by thread_ until joined.
  std::thread thread_;
};

// Parses an ok `result` payload into a history.
bool ParseResult(const wayfinder::ConfigSpace& space, const std::string& payload,
                 std::vector<wayfinder::TrialRecord>* history, std::string* error) {
  wayfinder::CheckpointLoadResult loaded = wayfinder::LoadCheckpointText(space, payload);
  if (!loaded.ok) {
    *error = loaded.error;
    return false;
  }
  *history = std::move(loaded.history);
  return true;
}

// Fetches the session trace over the `trace` command, validates it, writes
// it to `path` (unless empty), and returns its per-stage span sums.
std::map<std::string, double> FetchRingTrace(Client* client, const std::string& id,
                                             const std::string& path, Pass* pass) {
  wayfinder::ServiceCallResult r = client->Call(Request("trace", id));
  if (!r.ok) {
    pass->Fail("trace " + id + ": " + r.error);
    return {};
  }
  std::string error;
  if (!wayfinder::obs::ValidateChromeTraceJson(r.payload, &error)) {
    pass->Fail("session trace JSON invalid: " + error);
  }
  if (!path.empty()) {
    std::ofstream(path) << r.payload;
  }
  return SumTraceSpansMs(r.payload);
}

// The decorator's spans of one session: the warm-start replay, then per
// trial its proposal(s), the session remainder up to its observation
// (evaluate, commit, bookkeeping), and the observation.
void AppendProbeSpans(const SearcherProbe& probe, std::vector<BenchSpan>* spans) {
  if (probe.replay_trials > 0) {
    spans->push_back({"core.replay", 1, probe.first_propose_ns - probe.replay_ns,
                      probe.replay_ns});
  }
  int64_t last_propose_end = 0;
  for (const SearcherProbe::Span& span : probe.spans) {
    if (span.observe && last_propose_end != 0) {
      spans->push_back({"platform.session", 1, last_propose_end,
                        span.start_ns - last_propose_end});
    }
    if (!span.observe) {
      last_propose_end = span.start_ns + span.dur_ns;
    }
    spans->push_back({span.observe ? "core.observe" : "core.propose", 1, span.start_ns,
                      span.dur_ns});
  }
}

// Per-layer totals of the searcher decorator over the probes added.
struct ProbeTotals {
  double propose_ms = 0.0;
  double observe_ms = 0.0;  // Replay included.
  double replay_ms = 0.0;
  double propose_calls = 0.0;
  double trials = 0.0;
  double memory_mb = 0.0;

  void Add(const SearcherProbe& probe) {
    propose_ms += Ms(probe.propose_ns);
    observe_ms += Ms(probe.observe_ns + probe.replay_ns);
    replay_ms += Ms(probe.replay_ns);
    propose_calls += static_cast<double>(probe.propose_calls);
    trials += static_cast<double>(probe.trial_end_ns.size());
    memory_mb = std::max(memory_mb, static_cast<double>(probe.memory_bytes) / 1048576.0);
  }
};

void SetCoreMetrics(const ProbeTotals& totals, const RegistryReading& before,
                    const RegistryReading& after, Pass* pass) {
  const double pool_ms = after.SumMs(before, "core.pool_assembly_ns");
  pass->Set("core.propose_ms", totals.propose_ms, "ms");
  pass->Set("core.propose_calls_per_trial",
            totals.trials > 0 ? totals.propose_calls / totals.trials : 0.0, "ratio");
  pass->Set("core.pool_assembly_ms", pool_ms, "ms");
  pass->Set("core.predict_score_ms", std::max(0.0, totals.propose_ms - pool_ms), "ms");
  pass->Set("core.observe_ms", totals.observe_ms, "ms");
  pass->Set("core.replay_ms", totals.replay_ms, "ms");
  pass->Set("core.searcher_mb", totals.memory_mb, "MB");
  pass->Set("nn.update_ms", after.SumMs(before, "core.trunk_update_ns"), "ms");
  pass->Set("nn.updates", after.Count(before, "core.trunk_update_ns"), "count");
}

// Mean ms per trunk Update over the first and the last third of a probe's
// trials, from the registry readings the decorator took at the boundaries.
void SetUpdateThirds(const SearcherProbe& probe, Pass* pass) {
  auto per_update_ms = [](const HistogramReading& a, const HistogramReading& b) {
    return b.count > a.count
               ? Ms(static_cast<int64_t>(b.sum - a.sum)) / static_cast<double>(b.count - a.count)
               : 0.0;
  };
  pass->Set("nn.update_early_ms", per_update_ms(probe.update_at[0], probe.update_at[1]), "ms");
  pass->Set("nn.update_late_ms", per_update_ms(probe.update_at[2], probe.update_at[3]), "ms");
}

void SetServiceMetrics(const RegistryReading& before, const RegistryReading& after,
                       double window_ms, Pass* pass) {
  pass->Set("service.wave_ms", after.SumMs(before, "service.wave_ns"), "ms");
  pass->Set("service.waves", after.Count(before, "service.wave_ns"), "count");
  pass->Set("service.journal_append_ms", after.SumMs(before, "service.journal_append_ns"), "ms");
  pass->Set("service.journal_appends", after.Count(before, "service.journal_append_ns"), "count");
  pass->Set("service.store_append_ms", after.SumMs(before, "service.store_append_ns"), "ms");
  pass->Set("service.store_fsync_ms", after.SumMs(before, "service.store_fsync_ns"), "ms");
  const double dispatch_ms = after.SumMs(before, "transport.dispatch_ns");
  pass->Set("transport.dispatch_ms", dispatch_ms, "ms");
  pass->Set("transport.loop_busy_share", window_ms > 0 ? dispatch_ms / window_ms : 0.0, "ratio");
  pass->Set("transport.bytes_tx_mb", after.Counter(before, "transport.bytes_tx") / 1048576.0,
            "MB");
}

// End-to-end metrics every workload reports, from per-job samples.
struct JobSamples {
  std::vector<double> setup_s;
  std::vector<double> job_s;
  std::vector<double> first_trial_s;
  std::vector<double> early_ms;
  std::vector<double> late_ms;
  std::vector<double> rates;  // Committed trials per second, per job.
  double timed_s = 0.0;

  void AddJob(const SearcherProbe& probe, size_t trials, int64_t start_ns, int64_t done_ns) {
    const double wall_s = Sec(done_ns - start_ns);
    job_s.push_back(wall_s);
    rates.push_back(static_cast<double>(trials) / wall_s);
    timed_s += wall_s;
    if (!probe.trial_end_ns.empty()) {
      first_trial_s.push_back(Sec(probe.trial_end_ns.front() - start_ns));
    }
    ThirdSplit split = SplitThirds(probe.first_propose_ns, probe.trial_end_ns);
    if (split.third > 0) {
      early_ms.push_back(split.early_ms);
      late_ms.push_back(split.late_ms);
    }
    std::fprintf(stderr, "  job %zu: %zu trials in %.3f s\n", job_s.size(), trials, wall_s);
  }

  // Medians over the run's jobs.
  void Report(Pass* pass) const {
    const double early = Median(early_ms);
    const double late = Median(late_ms);
    pass->Set("trials_per_s", Median(rates), "trials/s");
    pass->Set("setup_s", Median(setup_s), "s");
    pass->Set("peak_rss_mb", PeakRssMb(), "MB");
    pass->Set("early_ms_per_trial", early, "ms");
    pass->Set("late_ms_per_trial", late, "ms");
    pass->Set("cost_slope", early > 0 ? late / early : 0.0, "ratio");
    pass->Set("first_trial_s", Median(first_trial_s), "s");
    pass->Set("job_s", Median(job_s), "s");
  }
};

// --- dt-serial: DeepTune on the library path ---------------------------------

struct SerialJob {
  std::shared_ptr<wayfinder::ConfigSpace> space;
  std::unique_ptr<wayfinder::Searcher> searcher;
  std::unique_ptr<wayfinder::Testbench> bench;
  std::unique_ptr<wayfinder::SearchSession> session;
};

// What `wfctl start` does before its loop: build the space, the searcher
// the job names (the decorated DeepTune), the testbench and the session.
SerialJob SetUpSerialJob(const wayfinder::JobSpec& spec) {
  SerialJob job;
  job.space = std::make_shared<wayfinder::ConfigSpace>(wayfinder::BuildJobSpace(spec));
  std::string error;
  job.searcher = wayfinder::MakeJobSearcher(spec, job.space.get(), &error);
  job.bench = std::make_unique<wayfinder::Testbench>(job.space.get(), spec.app,
                                                     spec.ToTestbenchOptions());
  job.session = std::make_unique<wayfinder::SearchSession>(job.bench.get(), job.searcher.get(),
                                                           spec.ToSessionOptions());
  return job;
}

Pass RunDtSerial(const Args& args, bool traced) {
  Pass pass;
  wayfinder::obs::SetEnabled(traced);
  wayfinder::JobParseResult parsed = wayfinder::ParseJobText(
      JobText("dt-serial", "linux", "nginx", kSerialIterations, "perfbench.deeptune",
              args.seed));
  const wayfinder::JobSpec& spec = parsed.spec;
  JobSamples samples;
  ProbeTotals totals;
  double evaluate_ms = 0.0;
  uint64_t ring_dropped = 0;
  std::vector<BenchSpan> spans;
  RegistryReading before;
  uint64_t first_digest = 0;
  for (size_t jobs = 0; jobs == 0 || samples.timed_s < args.seconds; ++jobs) {
    ProbeBoard::Instance().Clear();
    ProbeBoard::Instance().SetBudget(spec.iterations);
    SerialJob job;
    const int setups = jobs == 0 ? kSerialSetups : 1;
    for (int i = 0; i < setups; ++i) {
      const int64_t setup_start = NowNs();
      job = SetUpSerialJob(spec);
      samples.setup_s.push_back(Sec(NowNs() - setup_start));
      if (i + 1 < setups && job.searcher != nullptr) {
        // A job start is one ~4 ms trial, too short for one sample a run:
        // the set-ups that are thrown away each time their first trial too.
        const int64_t start_ns = NowNs();
        job.session->Step();
        samples.first_trial_s.push_back(
            Sec(ProbeBoard::Instance().Probes("perfbench.deeptune").back()->trial_end_ns.front() -
                start_ns));
      }
    }
    if (job.searcher == nullptr) {
      pass.Fail("perfbench.deeptune is not registered");
      return pass;
    }
    const SearcherProbe& probe = *ProbeBoard::Instance().Probes("perfbench.deeptune").back();
    if (jobs == 0) {
      before = RegistryReading::Take();  // After the thrown-away first trials.
    }

    ++pass.attempted;
    const int64_t start_ns = NowNs();
    job.session->Run();
    const int64_t done_ns = NowNs();

    const std::vector<wayfinder::TrialRecord>& history = job.session->history();
    const uint64_t digest = DigestHistory(history);
    if (history.size() != spec.iterations) {
      ++pass.failed;
      pass.Fail("dt-serial committed " + std::to_string(history.size()) + " trials");
    }
    if (jobs == 0) {
      first_digest = digest;
    } else if (digest != first_digest) {
      pass.Fail("dt-serial repeat diverged: " + DigestHex(digest) + " vs " +
                DigestHex(first_digest));
    }
    samples.AddJob(probe, history.size(), start_ns, done_ns);

    totals.Add(probe);
    if (traced) {
      std::vector<wayfinder::obs::TraceEvent> ring = job.session->trace().Snapshot();
      ring_dropped += job.session->trace().dropped();
      for (const wayfinder::obs::TraceEvent& event : ring) {
        if (event.kind == wayfinder::obs::TraceKind::kEvaluate) {
          evaluate_ms += Ms(event.dur_ns);
        }
      }
      if (jobs == 0) {
        SetUpdateThirds(probe, &pass);
        std::ofstream(args.out_dir + "/dt-serial-ring.trace.json")
            << wayfinder::obs::RenderChromeTrace(ring, "dt-serial");
        AppendProbeSpans(probe, &spans);
      }
    }
  }
  pass.digest = first_digest;
  samples.Report(&pass);
  if (traced) {
    RegistryReading after = RegistryReading::Take();
    SetCoreMetrics(totals, before, after, &pass);
    const double wall_ms = samples.timed_s * 1000.0;
    const double session_self = wall_ms - totals.propose_ms - totals.observe_ms - evaluate_ms;
    pass.Set("simos.evaluate_ms", evaluate_ms, "ms");
    pass.Set("platform.session_self_ms", session_self, "ms");
    pass.Set("obs.span_cover_share",
             (totals.propose_ms + totals.observe_ms + evaluate_ms) / wall_ms, "ratio");
    pass.Set("obs.ring_dropped", static_cast<double>(ring_dropped), "count");
    pass.Set("trace.wall_ms", wall_ms, "ms");
    WriteBenchTrace(args.out_dir + "/dt-serial-bench.trace.json", spans, &pass);
  }
  return pass;
}

// --- dt-warm: a warm-started DeepTune job through the daemon -----------------

// Per-layer metrics describe the first timed job (a run normally has one),
// read between its submit and its result: the set-ups' cold jobs journal
// and store too.
Pass RunDtWarm(const Args& args, bool traced) {
  Pass pass;
  wayfinder::obs::SetEnabled(traced);
  const std::string cold_text =
      JobText("dt-warm-cold", "linux", "nginx", kColdIterations, "random", args.seed);
  const std::string warm_text =
      JobText("dt-warm", "linux", "nginx", kWarmIterations, "perfbench.deeptune", args.seed);
  const wayfinder::ConfigSpace space =
      wayfinder::BuildJobSpace(wayfinder::ParseJobText(warm_text).spec);
  const std::string pass_dir =
      args.work_dir + (traced ? "/dt-warm-traced" : "/dt-warm-untraced");
  JobSamples samples;
  std::vector<double> status_ms;
  std::vector<double> late_ms;
  uint64_t timeouts = 0;
  uint64_t first_digest = 0;
  for (size_t jobs = 0; jobs == 0 || samples.timed_s < args.seconds; ++jobs) {
    std::unique_ptr<Daemon> daemon;
    std::unique_ptr<Client> client;
    // Set-up: a fresh journaled daemon whose store holds the cold job's
    // trials. The cold job runs on an unjournaled daemon over the same
    // store, so set-up time does not hinge on 450 journal fsyncs.
    for (int i = 0; i < (jobs == 0 ? kWarmSetups : 1); ++i) {
      client.reset();
      daemon.reset();
      fs::remove_all(pass_dir);
      const int64_t setup_start = NowNs();
      {
        Daemon filler(pass_dir, traced, /*journal=*/false);
        Client filler_client(filler.socket(), true, 2, false);
        wayfinder::ServiceCallResult cold = filler_client.Call(Request("submit"), cold_text);
        wayfinder::SessionStatus status;
        if (cold.ok) {
          status = WaitTerminal(&filler_client, cold.response.id, kColdPollMs,
                                NowNs() + 120 * 1000000000LL, nullptr);
        }
        if (!filler.ok() || status.state != "done") {
          pass.Fail("dt-warm cold job did not finish: " + filler.error() + cold.error +
                    status.state);
          return pass;
        }
      }  // The filler drains: its store files are fsync'd and closed.
      daemon = std::make_unique<Daemon>(pass_dir, traced);
      client = std::make_unique<Client>(daemon->socket(), true, 2, traced);
      if (!daemon->ok() || !client->Connect()) {
        pass.Fail("daemon start: " + daemon->error());
        return pass;
      }
      samples.setup_s.push_back(Sec(NowNs() - setup_start));
    }
    ProbeBoard::Instance().Clear();
    ProbeBoard::Instance().SetBudget(kWarmIterations);
    const uint64_t calls_before = client->calls();
    const uint64_t failures_before = client->failures();
    const RegistryReading before = RegistryReading::Take();

    StatusPoller poller(daemon->socket(), traced && jobs == 0);
    int64_t submit_start = 0;
    int64_t submit_end = 0;
    wayfinder::ServiceCallResult submit =
        client->Call(Request("submit"), warm_text, &submit_start, &submit_end);
    int64_t done_ns = 0;
    wayfinder::SessionStatus status;
    if (submit.ok) {
      status = WaitTerminal(client.get(), submit.response.id, kWarmPollMs,
                            submit_start + 150 * 1000000000LL, &done_ns);
    }
    poller.Stop();
    for (const OpenLoopSample& sample : poller.samples()) {
      status_ms.push_back(sample.LatencyMs());
      late_ms.push_back(sample.LateMs());
    }
    ++pass.attempted;  // The job, as one operation; its calls count below.
    pass.attempted += poller.client().calls();
    pass.failed += poller.client().failures();
    timeouts += poller.client().timeouts();
    if (status.state != "done") {
      ++pass.failed;
      pass.Fail("dt-warm job ended '" + status.state + "' " + submit.error);
      return pass;
    }
    int64_t result_start = 0;
    int64_t result_end = 0;
    wayfinder::ServiceCallResult result =
        client->Call(Request("result", status.id), "", &result_start, &result_end);
    std::vector<wayfinder::TrialRecord> history;
    std::string error;
    if (!result.ok || !ParseResult(space, result.payload, &history, &error)) {
      pass.Fail("dt-warm result: " + result.error + error);
    }
    if (history.size() != kWarmIterations || status.warm_started != kColdIterations) {
      pass.Fail("dt-warm committed " + std::to_string(history.size()) + " trials after " +
                std::to_string(status.warm_started) + " warm-start trials");
    }
    const uint64_t digest = DigestHistory(history);
    if (jobs == 0) {
      first_digest = digest;
    } else if (digest != first_digest) {
      pass.Fail("dt-warm repeat diverged");
    }
    std::map<std::string, double> ring_ms;
    if (traced && jobs == 0) {
      ring_ms = FetchRingTrace(client.get(), status.id,
                               args.out_dir + "/dt-warm-ring.trace.json", &pass);
    }
    const RegistryReading after = RegistryReading::Take();
    daemon->Stop();

    const SearcherProbe& probe = *ProbeBoard::Instance().Probes("perfbench.deeptune").back();
    samples.AddJob(probe, history.size(), submit_start, done_ns);
    pass.attempted += client->calls() - calls_before;
    pass.failed += client->failures() - failures_before;
    timeouts += client->timeouts();
    if (traced && jobs == 0) {
      ProbeTotals totals;
      totals.Add(probe);
      SetCoreMetrics(totals, before, after, &pass);
      SetUpdateThirds(probe, &pass);
      const double wall_ms = Ms(done_ns - submit_start);
      SetServiceMetrics(before, after, wall_ms, &pass);
      const double submit_ms = Ms(submit_end - submit_start);
      pass.Set("nn.replay_update_ms",
               Ms(static_cast<int64_t>(probe.update_at[0].sum -
                                       before.histograms.at("core.trunk_update_ns").sum)),
               "ms");
      pass.Set("simos.evaluate_ms", ring_ms["evaluate"], "ms");
      pass.Set("platform.session_self_ms",
               wall_ms - totals.propose_ms - totals.observe_ms - ring_ms["evaluate"], "ms");
      pass.Set("service.warm_prior_trials", static_cast<double>(status.warm_started), "count");
      pass.Set("client.submit_p50_ms", submit_ms, "ms");
      pass.Set("client.result_p50_ms", Ms(result_end - result_start), "ms");
      pass.Set("client.turnaround_p50_ms", wall_ms, "ms");
      pass.Set("client.calls",
               static_cast<double>(client->calls() - calls_before + poller.client().calls()),
               "count");
      // The ring stamps journal and store appends as instants; their time
      // is the registry's.
      const double covered = totals.propose_ms + totals.observe_ms + ring_ms["evaluate"] +
                             pass.metrics["service.journal_append_ms"].value +
                             pass.metrics["service.store_append_ms"].value + submit_ms;
      pass.Set("obs.span_cover_share", covered / wall_ms, "ratio");
      pass.Set("trace.wall_ms", wall_ms, "ms");
      std::vector<BenchSpan> spans = client->spans();
      spans.insert(spans.end(), poller.client().spans().begin(), poller.client().spans().end());
      AppendProbeSpans(probe, &spans);
      WriteBenchTrace(args.out_dir + "/dt-warm-bench.trace.json", spans, &pass);
    }
  }
  fs::remove_all(pass_dir);
  pass.digest = first_digest;
  samples.Report(&pass);
  const double tail_pct = HighestTailPercentile(status_ms.size());
  pass.Set("client.status_p50_ms", Median(status_ms), "ms");
  pass.Set("client.status_p99_ms", Percentile(status_ms, 99.0), "ms");
  pass.Set("client.status_samples", static_cast<double>(status_ms.size()), "count");
  pass.Set("client.status_tail_pct", tail_pct, "%");
  pass.Set("client.status_tail_ms", Percentile(status_ms, tail_pct), "ms");
  pass.Set("client.poller_late_p99_ms", Percentile(late_ms, 99.0), "ms");
  pass.Set("client.timeouts", static_cast<double>(timeouts), "count");
  return pass;
}

// --- main ----------------------------------------------------------------------

void PrintJson(const Args& args, const Pass& result) {
  const bool correct = result.problems.empty();
  std::string out = "{\"workload\":\"" + args.workload + "\",\"seed\":" +
                    std::to_string(args.seed) + ",\"digest\":\"" + DigestHex(result.digest) +
                    "\",\"correct\":" + (correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(result.attempted) +
                    ",\"failed\":" + std::to_string(result.failed) + ",\"problems\":[";
  for (size_t i = 0; i < result.problems.size(); ++i) {
    std::string escaped;
    for (char c : result.problems[i]) {
      if (c == '"' || c == '\\') {
        escaped += '\\';
      }
      escaped += (c == '\n' ? ' ' : c);
    }
    out += (i > 0 ? ",\"" : "\"") + escaped + "\"";
  }
  out += "],\"metrics\":{";
  bool first = true;
  char buf[64];
  for (const auto& [name, metric] : result.metrics) {
    std::snprintf(buf, sizeof(buf), "%.17g", metric.value);
    out += (first ? "\"" : ",\"") + name + "\":{\"value\":" + buf + ",\"unit\":\"" +
           metric.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args->seconds > 0 &&
         (args->workload == "dt-serial" || args->workload == "dt-warm");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: wf_perfbench --workload dt-serial|dt-warm --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  fs::create_directories(args.out_dir);
  args.work_dir += "/" + args.workload + "-" + std::to_string(getpid());
  fs::create_directories(args.work_dir);
  Pass (*run)(const Args&, bool) = args.workload == "dt-serial" ? RunDtSerial : RunDtWarm;
  Pass untraced = run(args, false);
  Pass result = untraced;
  if (args.trace) {
    Pass traced = run(args, true);
    if (traced.digest != untraced.digest) {
      traced.Fail("traced digest " + DigestHex(traced.digest) + " != untraced " +
                  DigestHex(untraced.digest));
    }
    traced.Set("obs.trace_overhead_share",
               1.0 - traced.metrics["trials_per_s"].value /
                         untraced.metrics["trials_per_s"].value,
               "ratio");
    traced.attempted += untraced.attempted;
    traced.failed += untraced.failed;
    traced.problems.insert(traced.problems.end(), untraced.problems.begin(),
                           untraced.problems.end());
    result = traced;
  }
  result.Set("failed_op_share",
             static_cast<double>(result.failed) /
                 static_cast<double>(std::max<uint64_t>(result.attempted, 1)),
             "ratio");
  fs::remove_all(args.work_dir);
  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "wf_perfbench: %s\n", problem.c_str());
  }
  PrintJson(args, result);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
