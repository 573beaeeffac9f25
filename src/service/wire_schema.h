// The wfd wire schema, declared once. One field list per message drives
// both codecs: the YAML codec (protocol.cc) and the binary TLV codec
// (binary_codec.cc) are small walkers over these lists and name no field
// themselves. Internal to src/service/; the public surface stays
// protocol.h and binary_codec.h.
//
// VisitFields(message, v) calls v(key, tag, member, presence) once per
// wire field, in wire order (the order both codecs emit). `key` is
// the YAML mapping key, `tag` the TLV tag, `member` the C++ field (const
// when encoding), and `presence` says when the field rides the wire:
//
//   kAlways    in every frame;
//   kRequired  in every frame, and a decoder rejects a frame without it
//              ("<message> has no <key>");
//   kIfSet     only when set: a non-empty string or list, a non-zero count,
//              a true bool, a positive double;
//   kIfClear   a bool whose default is true, only when false;
//   a flag     (has_best) only while the flag is true; decoding the field
//              sets the flag.
//
// Tags are explicit and never reused: a new field takes the next free tag
// wherever it sits in the list (store_key and error, tags 10 and 11, ride
// last). Adding a wire field is one struct member plus one entry here;
// tests/protocol_test.cpp pins the resulting bytes.
#ifndef WAYFINDER_SRC_SERVICE_WIRE_SCHEMA_H_
#define WAYFINDER_SRC_SERVICE_WIRE_SCHEMA_H_

#include <type_traits>

#include "src/service/protocol.h"

namespace wayfinder {
namespace wire {

struct Always {};
struct Required {};
struct IfSet {};
struct IfClear {};
inline constexpr Always kAlways{};
inline constexpr Required kRequired{};
inline constexpr IfSet kIfSet{};
inline constexpr IfClear kIfClear{};

// A bool that YAML spells as one of two words instead of true/false
// (`status: ok | error`); TLV carries it as an ordinary bool.
template <typename B>
struct Spelled {
  B& value;  // bool, or const bool when encoding.
  const char* yes;
  const char* no;
};
template <typename B>
Spelled(B&, const char*, const char*) -> Spelled<B>;

// Whether an encoder writes `value` under `presence`.
template <typename T, typename P>
bool Emitted(const T& value, const P& presence) {
  if constexpr (std::is_same_v<P, bool>) {
    return presence;  // Gated by a flag.
  } else if constexpr (std::is_same_v<P, IfClear>) {
    return !Emitted(value, kIfSet);
  } else if constexpr (!std::is_same_v<P, IfSet>) {
    return true;  // kAlways, kRequired.
  } else if constexpr (std::is_floating_point_v<T>) {
    return value > 0.0;
  } else if constexpr (std::is_integral_v<T>) {
    return value != 0;
  } else {
    return !value.empty();
  }
}

template <typename M, typename T>
using IfMessage = std::enable_if_t<std::is_same_v<std::remove_const_t<M>, T>, int>;

template <typename R, typename V, IfMessage<R, ServiceRequest> = 0>
void VisitFields(R& r, V& v) {
  v("command", 1, r.command, kAlways);
  v("id", 2, r.id, kIfSet);
  v("warm_start", 3, r.warm_start, kIfClear);
  v("since_version", 4, r.since_version, kIfSet);
}

template <typename S, typename V, IfMessage<S, SessionStatus> = 0>
void VisitFields(S& s, V& v) {
  v("id", 1, s.id, kAlways);
  v("name", 2, s.name, kAlways);
  v("algorithm", 3, s.algorithm, kAlways);
  v("state", 4, s.state, kAlways);
  v("trials", 5, s.trials, kAlways);
  v("iterations", 6, s.iterations, kAlways);
  v("best", 7, s.best, s.has_best);
  v("sim_seconds", 8, s.sim_seconds, kAlways);
  v("warm_started", 9, s.warm_started, kAlways);
  v("build_failed", 12, s.build_failed, kIfSet);
  v("boot_failed", 13, s.boot_failed, kIfSet);
  v("run_crashed", 14, s.run_crashed, kIfSet);
  v("timeouts", 15, s.timeouts, kIfSet);
  v("retries", 16, s.retries, kIfSet);
  v("drift_events", 17, s.drift_events, kIfSet);
  v("recovered", 18, s.recovered, kIfSet);
  v("version", 19, s.version, kIfSet);
  v("memory_bytes", 20, s.memory_bytes, kIfSet);
  v("wave_p50_ms", 21, s.wave_p50_ms, kIfSet);
  v("wave_p99_ms", 22, s.wave_p99_ms, kIfSet);
  v("trials_per_sec", 23, s.trials_per_sec, kIfSet);
  v("store_key", 10, s.store_key, kIfSet);
  v("error", 11, s.error, kIfSet);
}

template <typename R, typename V, IfMessage<R, ServiceResponse> = 0>
void VisitFields(R& r, V& v) {
  v("status", 1, Spelled{r.ok, "ok", "error"}, kRequired);
  v("error", 2, r.error, kIfSet);
  v("id", 3, r.id, kIfSet);
  v("state", 4, r.state, kIfSet);
  v("note", 7, r.note, kIfSet);
  v("payload", 5, r.has_payload, kIfSet);
  v("sessions", 6, r.sessions, kIfSet);  // One nested TLV block per session.
}

}  // namespace wire
}  // namespace wayfinder

#endif  // WAYFINDER_SRC_SERVICE_WIRE_SCHEMA_H_
