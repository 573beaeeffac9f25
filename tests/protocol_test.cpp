// Wire-protocol hardening tests: the framing layer (length-prefixed frames
// over Unix sockets), the YAML request/response codec, and — the satellite's
// pin — a live wfd daemon that survives malformed, truncated, and oversized
// frames, unknown commands, and clients vanishing mid-exchange without
// crashing or wedging. Runs under ASan and TSan in CI.
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/service/binary_codec.h"
#include "src/service/client.h"
#include "src/service/protocol.h"
#include "src/service/wfd.h"
#include "src/util/socket.h"

namespace wayfinder {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ---------------------------------------------------------------------------
// Framing.

class FramePair : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    CloseA();
    CloseB();
  }
  void CloseA() {
    if (fds_[0] >= 0) {
      ::close(fds_[0]);
      fds_[0] = -1;
    }
  }
  void CloseB() {
    if (fds_[1] >= 0) {
      ::close(fds_[1]);
      fds_[1] = -1;
    }
  }
  int a() const { return fds_[0]; }
  int b() const { return fds_[1]; }

 private:
  int fds_[2] = {-1, -1};
};

TEST_F(FramePair, RoundTripsPayloads) {
  for (const std::string payload : {std::string(""), std::string("hello"),
                                    std::string(100000, 'x')}) {
    ASSERT_TRUE(WriteFrame(a(), payload));
    std::string read_back;
    ASSERT_EQ(ReadFrame(b(), &read_back), FrameStatus::kOk);
    EXPECT_EQ(read_back, payload);
  }
}

TEST_F(FramePair, BackToBackFramesStayDelimited) {
  ASSERT_TRUE(WriteFrame(a(), "first"));
  ASSERT_TRUE(WriteFrame(a(), "second"));
  std::string payload;
  ASSERT_EQ(ReadFrame(b(), &payload), FrameStatus::kOk);
  EXPECT_EQ(payload, "first");
  ASSERT_EQ(ReadFrame(b(), &payload), FrameStatus::kOk);
  EXPECT_EQ(payload, "second");
}

TEST_F(FramePair, CleanEofReadsAsClosed) {
  CloseA();
  std::string payload;
  EXPECT_EQ(ReadFrame(b(), &payload), FrameStatus::kClosed);
}

TEST_F(FramePair, TruncatedHeaderReadsAsTruncated) {
  const char partial[2] = {0, 0};
  ASSERT_EQ(::send(a(), partial, sizeof(partial), 0), 2);
  CloseA();
  std::string payload;
  EXPECT_EQ(ReadFrame(b(), &payload), FrameStatus::kTruncated);
}

TEST_F(FramePair, TruncatedPayloadReadsAsTruncated) {
  // Header promises 100 bytes; only 10 arrive before the peer dies.
  const unsigned char header[4] = {0, 0, 0, 100};
  ASSERT_EQ(::send(a(), header, sizeof(header), 0), 4);
  ASSERT_EQ(::send(a(), "0123456789", 10, 0), 10);
  CloseA();
  std::string payload;
  EXPECT_EQ(ReadFrame(b(), &payload), FrameStatus::kTruncated);
}

TEST_F(FramePair, OversizedHeaderReadsAsOversized) {
  const unsigned char header[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(a(), header, sizeof(header), 0), 4);
  std::string payload;
  EXPECT_EQ(ReadFrame(b(), &payload), FrameStatus::kOversized);
  EXPECT_TRUE(payload.empty());
}

TEST_F(FramePair, WriterRefusesOversizedPayloads) {
  std::string huge(kMaxFrameBytes + 1, 'x');
  EXPECT_FALSE(WriteFrame(a(), huge));
}

// ---------------------------------------------------------------------------
// Codec.

TEST(ProtocolCodec, RequestRoundTrips) {
  ServiceRequest request;
  request.command = "result";
  request.id = "s42";
  request.warm_start = false;
  ServiceRequest decoded;
  std::string error;
  ASSERT_TRUE(DecodeRequest(EncodeRequest(request), &decoded, &error)) << error;
  EXPECT_EQ(decoded.command, "result");
  EXPECT_EQ(decoded.id, "s42");
  EXPECT_FALSE(decoded.warm_start);
}

TEST(ProtocolCodec, RejectsGarbageAndUnknownCommands) {
  ServiceRequest decoded;
  std::string error;
  EXPECT_FALSE(DecodeRequest("{{{{ not yaml %%%", &decoded, &error));
  EXPECT_FALSE(DecodeRequest("just a scalar", &decoded, &error));
  EXPECT_FALSE(DecodeRequest("command: exfiltrate\n", &decoded, &error));
  EXPECT_NE(error.find("unknown command"), std::string::npos);
  EXPECT_FALSE(DecodeRequest("id: s1\n", &decoded, &error));     // No command.
  EXPECT_FALSE(DecodeRequest("command: pause\n", &decoded, &error));  // Needs id.
}

TEST(ProtocolCodec, ObservabilityCommandsValidate) {
  ServiceRequest decoded;
  std::string error;
  // metrics is fleet-scoped: no id required.
  ASSERT_TRUE(DecodeRequest("command: metrics\n", &decoded, &error)) << error;
  EXPECT_EQ(decoded.command, "metrics");
  // trace is session-scoped: id required, carried through.
  EXPECT_FALSE(DecodeRequest("command: trace\n", &decoded, &error));
  EXPECT_NE(error.find("requires an id"), std::string::npos);
  ASSERT_TRUE(DecodeRequest("command: trace\nid: s7\n", &decoded, &error)) << error;
  EXPECT_EQ(decoded.command, "trace");
  EXPECT_EQ(decoded.id, "s7");
  // The binary codec shares ValidateRequest, so it agrees on both.
  ServiceRequest trace_no_id;
  trace_no_id.command = "trace";
  EXPECT_FALSE(DecodeRequestBinary(EncodeRequestBinary(trace_no_id), &decoded, &error));
  ServiceRequest metrics;
  metrics.command = "metrics";
  ASSERT_TRUE(DecodeRequestBinary(EncodeRequestBinary(metrics), &decoded, &error))
      << error;
  EXPECT_EQ(decoded.command, "metrics");
}

TEST(ProtocolCodec, ResponseRoundTripsSessionsAndQuoting) {
  ServiceResponse response;
  response.ok = true;
  SessionStatus status;
  status.id = "s7";
  status.name = "job: with colons #and hash";  // Exercises the quoter.
  status.algorithm = "deeptune";
  status.state = "running";
  status.trials = 12;
  status.iterations = 250;
  status.has_best = true;
  status.best = 1234.5;
  status.sim_seconds = 99.25;
  status.warm_started = 30;
  status.store_key = "nginx-00ff";
  response.sessions.push_back(status);
  status.id = "s8";
  status.has_best = false;
  status.error = "space mismatch: expected 298";
  response.sessions.push_back(status);

  ServiceResponse decoded;
  std::string error;
  ASSERT_TRUE(DecodeResponse(EncodeResponse(response), &decoded, &error)) << error;
  ASSERT_EQ(decoded.sessions.size(), 2u);
  EXPECT_EQ(decoded.sessions[0].name, "job: with colons #and hash");
  EXPECT_EQ(decoded.sessions[0].trials, 12u);
  EXPECT_TRUE(decoded.sessions[0].has_best);
  EXPECT_EQ(decoded.sessions[0].best, 1234.5);
  EXPECT_EQ(decoded.sessions[0].warm_started, 30u);
  EXPECT_FALSE(decoded.sessions[1].has_best);
  EXPECT_EQ(decoded.sessions[1].error, "space mismatch: expected 298");
}

TEST(ProtocolCodec, ErrorResponseRoundTrips) {
  ServiceResponse response;
  response.error = "unknown session: s9";
  ServiceResponse decoded;
  std::string error;
  ASSERT_TRUE(DecodeResponse(EncodeResponse(response), &decoded, &error)) << error;
  EXPECT_FALSE(decoded.ok);
  EXPECT_EQ(decoded.error, "unknown session: s9");
}

// ---------------------------------------------------------------------------
// Binary TLV codec: round trips, semantic equivalence with YAML, fuzz.

// Field-by-field equality — the shape both codecs must agree on.
void ExpectSameStatus(const SessionStatus& a, const SessionStatus& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.has_best, b.has_best);
  if (a.has_best && b.has_best) {
    EXPECT_EQ(a.best, b.best);
  }
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.warm_started, b.warm_started);
  EXPECT_EQ(a.build_failed, b.build_failed);
  EXPECT_EQ(a.boot_failed, b.boot_failed);
  EXPECT_EQ(a.run_crashed, b.run_crashed);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.drift_events, b.drift_events);
  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.memory_bytes, b.memory_bytes);
  EXPECT_EQ(a.wave_p50_ms, b.wave_p50_ms);
  EXPECT_EQ(a.wave_p99_ms, b.wave_p99_ms);
  EXPECT_EQ(a.trials_per_sec, b.trials_per_sec);
  EXPECT_EQ(a.store_key, b.store_key);
  EXPECT_EQ(a.error, b.error);
}

void ExpectSameResponse(const ServiceResponse& a, const ServiceResponse& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.note, b.note);
  EXPECT_EQ(a.has_payload, b.has_payload);
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (size_t i = 0; i < a.sessions.size(); ++i) {
    ExpectSameStatus(a.sessions[i], b.sessions[i]);
  }
}

// `full` sets every one of SessionStatus's fields to a non-default value;
// otherwise every field with a presence rule keeps its default (absent on
// the wire), so the two shapes exercise both sides of every rule.
SessionStatus MakeStatus(const char* id, bool full, const char* error_text) {
  SessionStatus status;
  status.id = id;
  status.name = "warm-run";
  status.algorithm = "deeptune";
  status.state = "running";
  status.trials = 37;
  status.iterations = 250;
  status.sim_seconds = 8871.5;
  status.warm_started = 12;
  status.store_key = "nginx-00ffaa11";
  status.error = error_text;
  if (full) {
    status.has_best = true;
    status.best = 1234.0625;
    status.build_failed = 3;
    status.boot_failed = 2;
    status.run_crashed = 5;
    status.timeouts = 4;
    status.retries = 6;
    status.drift_events = 1;
    status.recovered = true;
    status.version = 41;
    status.memory_bytes = 1u << 20;
    status.wave_p50_ms = 12.5;
    status.wave_p99_ms = 40.25;
    status.trials_per_sec = 0.1;  // Pins %.17g: not exactly representable.
  }
  return status;
}

TEST(BinaryCodec, RequestRoundTrips) {
  ServiceRequest request;
  request.command = "result";
  request.id = "s42";
  request.warm_start = false;
  ServiceRequest decoded;
  std::string error;
  ASSERT_TRUE(DecodeRequestBinary(EncodeRequestBinary(request), &decoded, &error))
      << error;
  EXPECT_EQ(decoded.command, "result");
  EXPECT_EQ(decoded.id, "s42");
  EXPECT_FALSE(decoded.warm_start);
  // Defaults mirror the YAML codec: absent tag == absent key.
  request = ServiceRequest();
  request.command = "ping";
  ASSERT_TRUE(DecodeRequestBinary(EncodeRequestBinary(request), &decoded, &error))
      << error;
  EXPECT_EQ(decoded.command, "ping");
  EXPECT_TRUE(decoded.id.empty());
  EXPECT_TRUE(decoded.warm_start);
}

TEST(BinaryCodec, ResponseRoundTripsSessions) {
  ServiceResponse response;
  response.ok = true;
  response.id = "s7";
  response.state = "watching";
  response.sessions.push_back(MakeStatus("s7", true, ""));
  response.sessions.push_back(MakeStatus("s8", false, "step failed: boot crash"));
  ServiceResponse decoded;
  std::string error;
  ASSERT_TRUE(DecodeResponseBinary(EncodeResponseBinary(response), &decoded, &error))
      << error;
  ExpectSameResponse(response, decoded);
}

// The acceptance pin: every message shape decodes identically through the
// YAML path and the binary path (absent key == absent tag, same defaults,
// same validation). Strings stay within what the YAML quoter passes
// through — the protocol never legitimately carries quotes or newlines.
TEST(BinaryCodec, SemanticallyEquivalentToYaml) {
  std::vector<ServiceRequest> requests;
  ServiceRequest request;
  request.command = "ping";
  requests.push_back(request);
  request = ServiceRequest();
  request.command = "submit";
  request.warm_start = false;
  requests.push_back(request);
  request = ServiceRequest();
  request.command = "status";
  request.id = "s3";
  requests.push_back(request);
  request = ServiceRequest();
  request.command = "watch";
  request.id = "s12";
  requests.push_back(request);
  request = ServiceRequest();
  request.command = "watch";  // A reconnecting watcher carrying its cursor.
  request.id = "s12";
  request.since_version = 77;
  requests.push_back(request);
  for (const ServiceRequest& message : requests) {
    ServiceRequest from_yaml;
    ServiceRequest from_binary;
    std::string error;
    ASSERT_TRUE(DecodeRequest(EncodeRequest(message), &from_yaml, &error)) << error;
    ASSERT_TRUE(DecodeRequestBinary(EncodeRequestBinary(message), &from_binary, &error))
        << error;
    EXPECT_EQ(from_yaml.command, from_binary.command);
    EXPECT_EQ(from_yaml.id, from_binary.id);
    EXPECT_EQ(from_yaml.warm_start, from_binary.warm_start);
    EXPECT_EQ(from_yaml.since_version, from_binary.since_version);
    EXPECT_EQ(from_yaml.since_version, message.since_version);
  }

  std::vector<ServiceResponse> responses;
  ServiceResponse response;
  response.ok = true;
  response.state = "alive";
  responses.push_back(response);
  response = ServiceResponse();
  response.error = "unknown session: s9";
  responses.push_back(response);
  response = ServiceResponse();
  response.ok = true;
  response.has_payload = true;
  responses.push_back(response);
  response = ServiceResponse();
  response.ok = true;
  response.state = "alive";  // Degraded-journal ping: advisory note rides along.
  response.note = "journal degraded: append failed: No space left on device";
  responses.push_back(response);
  response = ServiceResponse();
  response.ok = true;
  response.state = "push";
  response.sessions.push_back(MakeStatus("s1", true, ""));
  response.sessions.push_back(MakeStatus("s2", false, "space mismatch: expected 298"));
  responses.push_back(response);
  for (const ServiceResponse& message : responses) {
    ServiceResponse from_yaml;
    ServiceResponse from_binary;
    std::string error;
    ASSERT_TRUE(DecodeResponse(EncodeResponse(message), &from_yaml, &error)) << error;
    ASSERT_TRUE(
        DecodeResponseBinary(EncodeResponseBinary(message), &from_binary, &error))
        << error;
    ExpectSameResponse(from_yaml, from_binary);
  }
}

// Both codecs reject the same invalid requests (shared ValidateRequest).
TEST(BinaryCodec, ValidationMatchesYaml) {
  ServiceRequest bad;
  bad.command = "exfiltrate";
  ServiceRequest decoded;
  std::string error;
  EXPECT_FALSE(DecodeRequestBinary(EncodeRequestBinary(bad), &decoded, &error));
  EXPECT_NE(error.find("unknown command"), std::string::npos);
  bad.command = "pause";  // Needs an id.
  bad.id.clear();
  EXPECT_FALSE(DecodeRequestBinary(EncodeRequestBinary(bad), &decoded, &error));
  EXPECT_NE(error.find("requires an id"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Golden wire bytes: the exact YAML text and TLV bytes of representative
// messages, written out by hand. They are the independent check on both
// codecs — key order, tag numbers, presence rules, quoting and number
// formatting — so they must never be regenerated from the codecs.

// Hand-spelled TLV pieces: [tag u8][len u32 big-endian][value].
std::string Tlv(unsigned char tag, const std::string& value) {
  std::string out(1, static_cast<char>(tag));
  for (int shift = 24; shift >= 0; shift -= 8) {
    out.push_back(static_cast<char>(value.size() >> shift));
  }
  return out + value;
}

std::string U64(uint64_t value) {
  std::string out;
  for (int shift = 56; shift >= 0; shift -= 8) {
    out.push_back(static_cast<char>(value >> shift));
  }
  return out;
}

std::string F64(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return U64(bits);
}

std::string Byte(unsigned char value) { return std::string(1, static_cast<char>(value)); }

TEST(WireGolden, MinimalRequest) {
  ServiceRequest request;
  request.command = "ping";
  EXPECT_EQ(EncodeRequest(request), "command: \"ping\"\n");
  const std::string tlv("\x01\x01\x00\x00\x00\x04ping", 10);
  EXPECT_EQ(EncodeRequestBinary(request), tlv);
  ServiceRequest decoded;
  std::string error;
  ASSERT_TRUE(DecodeRequestBinary(tlv, &decoded, &error)) << error;
  EXPECT_EQ(decoded.command, "ping");
  EXPECT_TRUE(decoded.id.empty());
  EXPECT_TRUE(decoded.warm_start);
  EXPECT_EQ(decoded.since_version, 0u);
}

TEST(WireGolden, MaximalRequest) {
  ServiceRequest request;
  request.command = "watch";
  request.id = "s12";
  request.warm_start = false;
  request.since_version = 77;
  const std::string yaml =
      "command: \"watch\"\n"
      "id: \"s12\"\n"
      "warm_start: false\n"
      "since_version: 77\n";
  EXPECT_EQ(EncodeRequest(request), yaml);
  const std::string tlv = Byte(0x01) + Tlv(1, "watch") + Tlv(2, "s12") +
                          Tlv(3, Byte(0)) + Tlv(4, U64(77));
  EXPECT_EQ(EncodeRequestBinary(request), tlv);
  for (bool binary : {false, true}) {
    ServiceRequest decoded;
    std::string error;
    ASSERT_TRUE(DecodeRequestWire(binary ? tlv : yaml, binary, &decoded, &error)) << error;
    EXPECT_EQ(decoded.command, "watch");
    EXPECT_EQ(decoded.id, "s12");
    EXPECT_FALSE(decoded.warm_start);
    EXPECT_EQ(decoded.since_version, 77u);
  }
}

TEST(WireGolden, ErrorResponseQuoting) {
  ServiceResponse response;
  // The YAML quoter drops double quotes, CR and LF; TLV carries raw bytes.
  response.error = "unknown \"session\": s9\r\n";
  EXPECT_EQ(EncodeResponse(response),
            "status: error\n"
            "error: \"unknown session: s9\"\n");
  EXPECT_EQ(EncodeResponseBinary(response),
            Byte(0x02) + Tlv(1, Byte(0)) + Tlv(2, "unknown \"session\": s9\r\n"));
}

TEST(WireGolden, PayloadResponse) {
  ServiceResponse response;
  response.ok = true;
  response.id = "s3";
  response.state = "done";
  response.note = "journal degraded: append failed";
  response.has_payload = true;
  const std::string yaml =
      "status: ok\n"
      "id: \"s3\"\n"
      "state: \"done\"\n"
      "note: \"journal degraded: append failed\"\n"
      "payload: true\n";
  EXPECT_EQ(EncodeResponse(response), yaml);
  // Note (tag 7) rides before payload (tag 5): tags follow the field list,
  // not numeric order.
  const std::string tlv = Byte(0x02) + Tlv(1, Byte(1)) + Tlv(3, "s3") + Tlv(4, "done") +
                          Tlv(7, "journal degraded: append failed") + Tlv(5, Byte(1));
  EXPECT_EQ(EncodeResponseBinary(response), tlv);
  for (bool binary : {false, true}) {
    ServiceResponse decoded;
    std::string error;
    ASSERT_TRUE(DecodeResponseWire(binary ? tlv : yaml, binary, &decoded, &error)) << error;
    ExpectSameResponse(response, decoded);
  }
}

TEST(WireGolden, TwoSessionResponse) {
  ServiceResponse response;
  response.ok = true;
  response.sessions.push_back(MakeStatus("s1", true, "boot crash"));
  SessionStatus cold;  // Every field with a presence rule at its default.
  cold.id = "s2";
  cold.name = "cold";
  cold.algorithm = "random";
  cold.state = "submitted";
  cold.iterations = 10;
  response.sessions.push_back(cold);
  const std::string yaml =
      "status: ok\n"
      "sessions:\n"
      "  - id: \"s1\"\n"
      "    name: \"warm-run\"\n"
      "    algorithm: \"deeptune\"\n"
      "    state: \"running\"\n"
      "    trials: 37\n"
      "    iterations: 250\n"
      "    best: 1234.0625\n"
      "    sim_seconds: 8871.5\n"
      "    warm_started: 12\n"
      "    build_failed: 3\n"
      "    boot_failed: 2\n"
      "    run_crashed: 5\n"
      "    timeouts: 4\n"
      "    retries: 6\n"
      "    drift_events: 1\n"
      "    recovered: true\n"
      "    version: 41\n"
      "    memory_bytes: 1048576\n"
      "    wave_p50_ms: 12.5\n"
      "    wave_p99_ms: 40.25\n"
      "    trials_per_sec: 0.10000000000000001\n"
      "    store_key: \"nginx-00ffaa11\"\n"
      "    error: \"boot crash\"\n"
      "  - id: \"s2\"\n"
      "    name: \"cold\"\n"
      "    algorithm: \"random\"\n"
      "    state: \"submitted\"\n"
      "    trials: 0\n"
      "    iterations: 10\n"
      "    sim_seconds: 0\n"
      "    warm_started: 0\n";
  EXPECT_EQ(EncodeResponse(response), yaml);
  // store_key (10) and error (11) ride last, after tags 12-23.
  const std::string full = Tlv(1, "s1") + Tlv(2, "warm-run") + Tlv(3, "deeptune") +
                           Tlv(4, "running") + Tlv(5, U64(37)) + Tlv(6, U64(250)) +
                           Tlv(7, F64(1234.0625)) + Tlv(8, F64(8871.5)) +
                           Tlv(9, U64(12)) + Tlv(12, U64(3)) + Tlv(13, U64(2)) +
                           Tlv(14, U64(5)) + Tlv(15, U64(4)) + Tlv(16, U64(6)) +
                           Tlv(17, U64(1)) + Tlv(18, Byte(1)) + Tlv(19, U64(41)) +
                           Tlv(20, U64(1048576)) + Tlv(21, F64(12.5)) +
                           Tlv(22, F64(40.25)) + Tlv(23, F64(0.1)) +
                           Tlv(10, "nginx-00ffaa11") + Tlv(11, "boot crash");
  const std::string sparse = Tlv(1, "s2") + Tlv(2, "cold") + Tlv(3, "random") +
                             Tlv(4, "submitted") + Tlv(5, U64(0)) + Tlv(6, U64(10)) +
                             Tlv(8, F64(0.0)) + Tlv(9, U64(0));
  const std::string tlv = Byte(0x02) + Tlv(1, Byte(1)) + Tlv(6, full) + Tlv(6, sparse);
  EXPECT_EQ(EncodeResponseBinary(response), tlv);
  for (bool binary : {false, true}) {
    ServiceResponse decoded;
    std::string error;
    ASSERT_TRUE(DecodeResponseWire(binary ? tlv : yaml, binary, &decoded, &error)) << error;
    ExpectSameResponse(response, decoded);
  }
}

// Decoders take fields in any order: unknown tags are skipped (forward
// compatibility), a repeated tag's last value wins, and a response still
// needs its status whatever else it carries.
TEST(WireGolden, DecodesUnknownRepeatedAndReorderedTags) {
  const std::string session = Tlv(99, "future") + Tlv(11, "late error") + Tlv(7, F64(2.5)) +
                              Tlv(2, "first") + Tlv(1, "s4") + Tlv(2, "second") +
                              Tlv(12, U64(3));
  const std::string tlv = Byte(0x02) + Tlv(200, "") + Tlv(6, session) + Tlv(4, "push") +
                          Tlv(1, Byte(1));
  ServiceResponse decoded;
  std::string error;
  ASSERT_TRUE(DecodeResponseBinary(tlv, &decoded, &error)) << error;
  EXPECT_TRUE(decoded.ok);
  EXPECT_EQ(decoded.state, "push");
  ASSERT_EQ(decoded.sessions.size(), 1u);
  EXPECT_EQ(decoded.sessions[0].id, "s4");
  EXPECT_EQ(decoded.sessions[0].name, "second");
  EXPECT_TRUE(decoded.sessions[0].has_best);
  EXPECT_EQ(decoded.sessions[0].best, 2.5);
  EXPECT_EQ(decoded.sessions[0].build_failed, 3u);
  EXPECT_EQ(decoded.sessions[0].error, "late error");
  EXPECT_FALSE(DecodeResponseBinary(Byte(0x02) + Tlv(6, session), &decoded, &error));
  EXPECT_EQ(error, "response has no status");
  EXPECT_FALSE(DecodeResponse("sessions:\n  - id: \"s4\"\n", &decoded, &error));
  EXPECT_EQ(error, "response has no status");

  ServiceRequest request;
  ASSERT_TRUE(DecodeRequestBinary(Byte(0x01) + Tlv(2, "s9") + Tlv(77, "x") + Tlv(1, "pause"),
                                  &request, &error))
      << error;
  EXPECT_EQ(request.command, "pause");
  EXPECT_EQ(request.id, "s9");
}

// Deterministic fuzz: truncations at EVERY byte length of valid messages,
// plus pseudo-random garbage. The decoders may reject, never crash or read
// out of bounds (ASan-pinned in CI).
TEST(BinaryCodec, SurvivesTruncationAndGarbage) {
  ServiceResponse response;
  response.ok = true;
  response.sessions.push_back(MakeStatus("s1", true, "err"));
  std::string encoded_response = EncodeResponseBinary(response);
  ServiceRequest request;
  request.command = "submit";
  request.id = "s1";
  request.warm_start = false;
  std::string encoded_request = EncodeRequestBinary(request);

  std::string error;
  for (size_t n = 0; n < encoded_response.size(); ++n) {
    ServiceResponse decoded;
    DecodeResponseBinary(encoded_response.substr(0, n), &decoded, &error);
  }
  for (size_t n = 0; n < encoded_request.size(); ++n) {
    ServiceRequest decoded;
    DecodeRequestBinary(encoded_request.substr(0, n), &decoded, &error);
  }
  // The session block itself cut at every length inside an intact response
  // field: each of the maximal status's tags hits the nested decoder's
  // truncation path, and a cut on a field boundary is a valid (shorter)
  // status.
  const size_t block_at = 1 + 6 + 5;  // kind, ok field, session tag + length.
  const std::string block = encoded_response.substr(block_at);
  for (size_t n = 0; n < block.size(); ++n) {
    std::string framed = encoded_response.substr(0, 7);
    framed += '\x06';
    for (int shift = 24; shift >= 0; shift -= 8) {
      framed.push_back(static_cast<char>(n >> shift));
    }
    framed += block.substr(0, n);
    ServiceResponse decoded;
    if (!DecodeResponseBinary(framed, &decoded, &error)) {
      EXPECT_EQ(error, "truncated session field") << n;
    }
  }

  // xorshift garbage, fixed seed: reproducible, and length-prefix fields
  // inside get arbitrary (often huge) values the reader must bound-check.
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<char>(state);
  };
  for (int round = 0; round < 200; ++round) {
    std::string garbage(1 + (round % 97), '\0');
    for (char& c : garbage) {
      c = next();
    }
    ServiceRequest decoded_request;
    ServiceResponse decoded_response;
    DecodeRequestBinary(garbage, &decoded_request, &error);
    DecodeResponseBinary(garbage, &decoded_response, &error);
    DecodeRequest(garbage, &decoded_request, &error);   // YAML path too.
    DecodeResponse(garbage, &decoded_response, &error);
    // Flipping one byte of a valid message must also never crash.
    std::string mutated = encoded_response;
    mutated[static_cast<size_t>(round * 13) % mutated.size()] = next();
    DecodeResponseBinary(mutated, &decoded_response, &error);
  }
}

// ---------------------------------------------------------------------------
// Daemon hardening: nothing a client does may crash or wedge wfd.

class WfdHardeningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    socket_path_ = TempPath("wf_protocol_wfd.sock");
    WfdOptions options;
    options.socket_path = socket_path_;
    options.poll_ms = 10;
    server_ = std::make_unique<WfdServer>(options);
    ASSERT_TRUE(server_->Start()) << server_->error();
    serve_thread_ = std::thread([this] { server_->Serve(); });
  }

  void TearDown() override {
    // The daemon must still be healthy enough to stop cleanly.
    ServiceCallResult stop = StopDaemon(socket_path_);
    EXPECT_TRUE(stop.ok) << stop.error;
    serve_thread_.join();
  }

  // The liveness probe every abuse case ends with.
  void ExpectDaemonAlive() {
    ServiceRequest ping;
    ping.command = "ping";
    ServiceCallResult result = CallService(socket_path_, ping);
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.response.state, "alive");
  }

  std::string socket_path_;
  std::unique_ptr<WfdServer> server_;
  std::thread serve_thread_;
};

TEST_F(WfdHardeningTest, SurvivesNonYamlPayload) {
  UnixConn conn = ConnectUnix(socket_path_);
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(WriteFrame(conn.fd(), "\x01\x02 binary garbage \xff\xfe"));
  std::string reply;
  ASSERT_EQ(ReadFrame(conn.fd(), &reply), FrameStatus::kOk);
  ServiceResponse response;
  std::string error;
  ASSERT_TRUE(DecodeResponse(reply, &response, &error)) << error;
  EXPECT_FALSE(response.ok);
  conn.Close();
  ExpectDaemonAlive();
}

TEST_F(WfdHardeningTest, SurvivesUnknownCommand) {
  UnixConn conn = ConnectUnix(socket_path_);
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(WriteFrame(conn.fd(), "command: make-coffee\n"));
  std::string reply;
  ASSERT_EQ(ReadFrame(conn.fd(), &reply), FrameStatus::kOk);
  ServiceResponse response;
  std::string error;
  ASSERT_TRUE(DecodeResponse(reply, &response, &error)) << error;
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.find("unknown command"), std::string::npos);
  conn.Close();
  ExpectDaemonAlive();
}

TEST_F(WfdHardeningTest, SurvivesOversizedFrameHeader) {
  UnixConn conn = ConnectUnix(socket_path_);
  ASSERT_TRUE(conn.ok());
  const unsigned char header[4] = {0x7f, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(conn.fd(), header, sizeof(header), MSG_NOSIGNAL), 4);
  std::string reply;
  ASSERT_EQ(ReadFrame(conn.fd(), &reply), FrameStatus::kOk);  // Courtesy error.
  conn.Close();
  ExpectDaemonAlive();
}

TEST_F(WfdHardeningTest, SurvivesMidFrameDisconnects) {
  // Vanish at every interesting point: mid-header, mid-payload, and between
  // a submit header and its job frame.
  {
    UnixConn conn = ConnectUnix(socket_path_);
    ASSERT_TRUE(conn.ok());
    const char partial[2] = {0, 0};
    ::send(conn.fd(), partial, sizeof(partial), MSG_NOSIGNAL);
  }
  {
    UnixConn conn = ConnectUnix(socket_path_);
    ASSERT_TRUE(conn.ok());
    const unsigned char header[4] = {0, 0, 0, 50};
    ::send(conn.fd(), header, sizeof(header), MSG_NOSIGNAL);
    ::send(conn.fd(), "short", 5, MSG_NOSIGNAL);
  }
  {
    UnixConn conn = ConnectUnix(socket_path_);
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(WriteFrame(conn.fd(), "command: submit\n"));
    // No job frame: hang up instead.
  }
  ExpectDaemonAlive();
  // The aborted submit must not have created a session.
  ServiceCallResult status = QueryStatus(socket_path_);
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_TRUE(status.response.sessions.empty());
}

TEST_F(WfdHardeningTest, SurvivesBadJobFileAndKeepsServing) {
  ServiceCallResult bad = SubmitJob(socket_path_, "os: not-a-real-os\n");
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.error.empty());
  ExpectDaemonAlive();
}

TEST(WfdIdleTimeout, SilentClientCannotWedgeTheDaemon) {
  // Connections are handled inline on the accept thread: a client that
  // connects and sends nothing must be dropped after idle_timeout_ms so
  // later clients get served.
  WfdOptions options;
  options.socket_path = TempPath("wf_protocol_idle.sock");
  options.poll_ms = 10;
  options.idle_timeout_ms = 100;
  WfdServer server(options);
  ASSERT_TRUE(server.Start()) << server.error();
  std::thread serve([&] { server.Serve(); });

  UnixConn silent = ConnectUnix(options.socket_path);
  ASSERT_TRUE(silent.ok());
  // Say nothing. The daemon must time the connection out and move on.
  ServiceRequest ping;
  ping.command = "ping";
  ServiceCallResult result = CallService(options.socket_path, ping);
  EXPECT_TRUE(result.ok) << result.error;
  // The silent connection was dropped, not left half-open.
  std::string reply;
  EXPECT_NE(ReadFrame(silent.fd(), &reply), FrameStatus::kOk);

  ServiceCallResult stop = StopDaemon(options.socket_path);
  EXPECT_TRUE(stop.ok) << stop.error;
  serve.join();
}

TEST_F(WfdHardeningTest, UnknownSessionQueriesError) {
  ServiceCallResult status = QueryStatus(socket_path_, "s999");
  EXPECT_FALSE(status.ok);
  ServiceCallResult result = FetchResult(socket_path_, "s999");
  EXPECT_FALSE(result.ok);
  ExpectDaemonAlive();
}

// ---------------------------------------------------------------------------
// Hello negotiation and the binary path against a live daemon.

TEST_F(WfdHardeningTest, NegotiatesBinaryAndServesRequests) {
  UnixConn conn = ConnectUnix(socket_path_);
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(WriteFrame(conn.fd(), std::string(kBinaryHello, 4)));
  std::string ack;
  ASSERT_EQ(ReadFrame(conn.fd(), &ack), FrameStatus::kOk);
  EXPECT_TRUE(IsBinaryHello(ack));
  // Everything after the ack speaks TLV, multiple requests per connection.
  for (int i = 0; i < 3; ++i) {
    ServiceRequest ping;
    ping.command = "ping";
    ASSERT_TRUE(WriteFrame(conn.fd(), EncodeRequestBinary(ping)));
    std::string reply;
    ASSERT_EQ(ReadFrame(conn.fd(), &reply), FrameStatus::kOk);
    ServiceResponse response;
    std::string error;
    ASSERT_TRUE(DecodeResponseBinary(reply, &response, &error)) << error;
    EXPECT_TRUE(response.ok);
    EXPECT_EQ(response.state, "alive");
  }
  conn.Close();
  ExpectDaemonAlive();
}

TEST_F(WfdHardeningTest, UnknownHelloVersionDowngradesToYaml) {
  UnixConn conn = ConnectUnix(socket_path_);
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(WriteFrame(conn.fd(), "WFB9"));  // A version we do not speak.
  std::string reply;
  ASSERT_EQ(ReadFrame(conn.fd(), &reply), FrameStatus::kOk);
  EXPECT_FALSE(IsBinaryHello(reply));  // Not an ack: a YAML error response.
  ServiceResponse response;
  std::string error;
  ASSERT_TRUE(DecodeResponse(reply, &response, &error)) << error;
  EXPECT_FALSE(response.ok);
  // The SAME connection keeps serving, in YAML.
  ServiceRequest ping;
  ping.command = "ping";
  ASSERT_TRUE(WriteFrame(conn.fd(), EncodeRequest(ping)));
  ASSERT_EQ(ReadFrame(conn.fd(), &reply), FrameStatus::kOk);
  ASSERT_TRUE(DecodeResponse(reply, &response, &error)) << error;
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(response.state, "alive");
  conn.Close();
  ExpectDaemonAlive();
}

TEST_F(WfdHardeningTest, ClientAutoFallsBackFromBinary) {
  // ServiceConnection(binary) against a daemon that speaks it: binary mode.
  ServiceConnection conn;
  std::string error;
  ASSERT_TRUE(conn.Connect(socket_path_, /*binary=*/true, &error)) << error;
  EXPECT_TRUE(conn.binary());
  ServiceRequest ping;
  ping.command = "ping";
  ServiceCallResult result = conn.Call(ping);
  EXPECT_TRUE(result.ok) << result.error;
  conn.Close();
  ExpectDaemonAlive();
}

TEST_F(WfdHardeningTest, SurvivesBinaryGarbageAfterNegotiation) {
  // Truncated TLV and garbage on a NEGOTIATED connection: the daemon must
  // answer an error (the frame is intact, just semantically bad) or drop,
  // and stay alive either way.
  ServiceRequest request;
  request.command = "status";
  std::string valid = EncodeRequestBinary(request);
  for (size_t cut : {size_t(1), valid.size() / 2, valid.size() - 1}) {
    UnixConn conn = ConnectUnix(socket_path_);
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(WriteFrame(conn.fd(), std::string(kBinaryHello, 4)));
    std::string ack;
    ASSERT_EQ(ReadFrame(conn.fd(), &ack), FrameStatus::kOk);
    ASSERT_TRUE(WriteFrame(conn.fd(), valid.substr(0, cut)));
    std::string reply;
    if (ReadFrame(conn.fd(), &reply) == FrameStatus::kOk) {
      ServiceResponse response;
      std::string error;
      ASSERT_TRUE(DecodeResponseBinary(reply, &response, &error)) << error;
      EXPECT_FALSE(response.ok);
    }
  }
  ExpectDaemonAlive();
}

// ---------------------------------------------------------------------------
// Watch subscribers vanishing mid-stream.

TEST_F(WfdHardeningTest, WatchOnUnknownSessionErrors) {
  ServiceConnection conn;
  std::string error;
  ASSERT_TRUE(conn.Connect(socket_path_, false, &error)) << error;
  ServiceRequest watch;
  watch.command = "watch";
  watch.id = "s404";
  ServiceCallResult result = conn.Call(watch);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("unknown session"), std::string::npos);
  conn.Close();
  ExpectDaemonAlive();
}

TEST_F(WfdHardeningTest, SurvivesWatcherDisconnectMidPush) {
  // A real session committing waves, a subscriber that hangs up right after
  // the ack: the daemon must clean up the subscription (the observer posts
  // into a dead connection id, which must be a no-op) and keep serving.
  std::string job;
  job += "name: watch-abort\n";
  job += "os: linux\n";
  job += "application: nginx\n";
  job += "metric: performance\n";
  job += "budget:\n  iterations: 40\n";
  job += "search:\n  algorithm: random\n  seed: 11\n";
  ServiceCallResult submit = SubmitJob(socket_path_, job);
  ASSERT_TRUE(submit.ok) << submit.error;
  const std::string id = submit.response.id;

  {
    ServiceConnection watcher;
    std::string error;
    ASSERT_TRUE(watcher.Connect(socket_path_, false, &error)) << error;
    ServiceRequest watch;
    watch.command = "watch";
    watch.id = id;
    ServiceCallResult ack = watcher.Call(watch);
    ASSERT_TRUE(ack.ok) << ack.error;
    EXPECT_EQ(ack.response.state, "watching");
    watcher.Close();  // Vanish while the session is still pushing.
  }

  // The session must still run to completion under a live daemon.
  for (int i = 0; i < 200; ++i) {
    ServiceCallResult status = QueryStatus(socket_path_, id);
    ASSERT_TRUE(status.ok) << status.error;
    ASSERT_EQ(status.response.sessions.size(), 1u);
    if (status.response.sessions[0].state == "done") {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  ExpectDaemonAlive();
}

}  // namespace
}  // namespace wayfinder
