// The wfd wire protocol: small YAML documents in length-prefixed frames
// over a Unix-domain socket (framing in src/util/socket.h).
//
// Every request is one YAML mapping frame:
//
//   command: submit | status | watch | result | pause | resume | stop |
//            compact | ping | metrics | trace
//   id: s3              # the session, for status/watch/result/pause/resume
//   warm_start: false   # submit only (default true)
//
// `submit` is followed by ONE extra frame carrying the job file text
// verbatim — existing `wfctl start` job YAML works unchanged, comments and
// all, because the daemon hands it straight to ParseJobText.
//
// Every response is one YAML mapping frame with at least
//
//   status: ok | error
//   error: <message>    # when status: error
//
// plus command-specific fields (session id, lifecycle state, trial counts,
// a `sessions:` list for the fleet-wide status). An ok `result` response is
// followed by ONE extra frame carrying the session's checkpoint text
// (src/platform/checkpoint.h), which `wfctl result` writes to disk for
// report/render/start --resume. `metrics` and `trace` reuse the same
// payload-frame pattern: the ok response announces `payload: true` and ONE
// extra frame follows carrying the rendered metrics text
// (src/obs/metrics.h RenderText) or the session's Chrome trace_event JSON
// (src/obs/trace.h) verbatim — identical bytes under both codecs, which is
// what pins their parity.
//
// Every field of these messages — its YAML key, its binary TLV tag and
// when it rides the wire — is declared once, in the field lists of
// src/service/wire_schema.h; both codecs walk those lists.
//
// The codec never trusts the peer: unknown commands, non-YAML payloads,
// and missing fields decode into errors the daemon answers (or drops the
// connection on), never crashes.
#ifndef WAYFINDER_SRC_SERVICE_PROTOCOL_H_
#define WAYFINDER_SRC_SERVICE_PROTOCOL_H_

#include <string>
#include <vector>

#include "src/util/yaml.h"

namespace wayfinder {

struct ServiceRequest {
  std::string command;
  std::string id;          // Target session for per-session commands.
  bool warm_start = true;  // submit: seed the searcher from the TrialStore.
  // watch: the last StatusVersion this client already saw. A reconnecting
  // watcher carries it so the daemon suppresses the baseline frame when
  // nothing changed since — re-subscribing after a dropped connection is
  // idempotent instead of replaying a stale snapshot. 0 (the default, sent
  // by every fresh watch, and absent on the wire) keeps the baseline.
  uint64_t since_version = 0;
};

// One session's externally visible state.
struct SessionStatus {
  std::string id;
  std::string name;       // Job name.
  std::string algorithm;
  std::string state;      // submitted | running | paused | done | failed
  size_t trials = 0;      // Committed so far.
  size_t iterations = 0;  // Budget.
  bool has_best = false;
  double best = 0.0;
  double sim_seconds = 0.0;
  size_t warm_started = 0;  // Prior trials observed from the TrialStore.
  // Failure taxonomy + robustness counters. Emitted on the wire only when
  // non-zero, so clean sessions' frames are byte-identical to the
  // pre-taxonomy protocol.
  size_t build_failed = 0;
  size_t boot_failed = 0;
  size_t run_crashed = 0;
  size_t timeouts = 0;
  size_t retries = 0;       // Transient re-measurement attempts consumed.
  size_t drift_events = 0;  // Drift-detector firings.
  // True when this session was re-created by `wfd --recover` from the
  // session journal after a daemon crash/restart; emitted only when set, so
  // never-crashed fleets encode exactly as before.
  bool recovered = false;
  // The manager's StatusVersion at snapshot time — watchers persist it and
  // hand it back as `since_version` when they reconnect. Emitted only when
  // non-zero (standalone encoders that never saw a manager stay as before).
  uint64_t version = 0;
  // Observability gauges, refreshed at wave boundaries from the manager's
  // mirror when metrics recording is on (src/obs/). All stay zero — and
  // therefore absent on the wire — when recording is off, so a metrics-off
  // daemon's frames are byte-identical to the pre-obs protocol.
  size_t memory_bytes = 0;     // Searcher live-state footprint (MemoryBytes).
  double wave_p50_ms = 0.0;    // Wave wall-clock latency quantiles so far.
  double wave_p99_ms = 0.0;
  double trials_per_sec = 0.0; // Committed trials over wall time while running.
  std::string store_key;
  std::string error;
};

struct ServiceResponse {
  bool ok = false;
  std::string error;
  std::string id;       // submit: the new session's id.
  std::string state;    // stop/pause/resume acknowledgements reuse this.
  // Advisory health note on an otherwise-ok response (emitted only when
  // non-empty): `ping` and `submit` carry the daemon's degraded-journal
  // reason here, so operators learn that crash-resumability is impaired
  // without any request failing.
  std::string note;
  std::vector<SessionStatus> sessions;  // status: one entry (or the fleet).
  bool has_payload = false;  // result: a checkpoint-text frame follows.
};

// True for commands the protocol knows (the daemon rejects the rest).
bool KnownServiceCommand(const std::string& command);

// True for commands a client may safely re-send after a dropped connection:
// they only read state (or re-subscribe), so a retry can never double-apply.
// submit/pause/resume/stop/compact are NOT idempotent — the client layer
// (src/service/client.h) refuses to auto-retry those without an explicit
// opt-in, because a lost *response* does not mean a lost *request*.
bool IdempotentServiceCommand(const std::string& command);

// Shared semantic validation — both wire codecs (YAML here, binary TLV in
// src/service/binary_codec.h) funnel decoded requests through this so the
// two formats reject exactly the same inputs.
bool ValidateRequest(const ServiceRequest& request, std::string* error);

std::string EncodeRequest(const ServiceRequest& request);
// False (with *error) on non-YAML input, a missing/unknown command, or a
// per-session command without an id.
bool DecodeRequest(const std::string& text, ServiceRequest* request, std::string* error);

std::string EncodeResponse(const ServiceResponse& response);
bool DecodeResponse(const std::string& text, ServiceResponse* response, std::string* error);

// Commands that require an `id` field.
bool CommandNeedsId(const std::string& command);

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_SERVICE_PROTOCOL_H_
