// Binary TLV wire codec for the wfd protocol — the opt-in fast path next
// to the YAML default (src/service/protocol.h).
//
// Negotiation: a client wanting binary sends the 4-byte hello "WFB1" as its
// FIRST frame. A daemon that speaks it answers with the same 4 bytes and
// flips the connection to binary for both directions; one that does not
// (or a 4-byte "WFB?" future version it does not know) answers in YAML, and
// the client falls back. YAML remains the debug path: any frame that is not
// a codec hello is processed as YAML exactly as before, so existing clients
// never notice the negotiation exists.
//
// Message layout (all integers big-endian):
//
//   [kind u8] then fields, each [tag u8][len u32][value]
//
// kind 0x01 = request, 0x02 = response. Strings are raw bytes; u64 fields
// are 8 bytes; doubles are IEEE-754 bits as u64; bools are 1 byte (0/1).
// A session status rides as a nested TLV block (tag 6 of a response,
// repeated per session). Decoders skip unknown tags (forward compatibility)
// and reject anything truncated, oversized, or type-malformed — the fuzz
// suite in tests/protocol_test.cpp feeds both codecs the same garbage.
//
// Tags, field order and presence rules are not written here: each field's
// TLV tag sits next to its YAML key in the one field list per message
// (src/service/wire_schema.h) that both codecs walk, so an absent YAML key
// is an absent TLV tag by construction and decode(encode_yaml(m)) ==
// decode(encode_binary(m)) for every message shape.
#ifndef WAYFINDER_SRC_SERVICE_BINARY_CODEC_H_
#define WAYFINDER_SRC_SERVICE_BINARY_CODEC_H_

#include <string>

#include "src/service/protocol.h"

namespace wayfinder {

// The exact first-frame payload that requests binary mode (and acks it).
extern const char kBinaryHello[4];

// True when `payload` is exactly the supported hello.
bool IsBinaryHello(const std::string& payload);

// True when `payload` looks like SOME codec hello ("WFB" + one version
// byte) — including versions we do not speak. The daemon answers those
// with a YAML error instead of trying to parse them as a YAML request.
bool LooksLikeCodecHello(const std::string& payload);

std::string EncodeRequestBinary(const ServiceRequest& request);
bool DecodeRequestBinary(const std::string& data, ServiceRequest* request,
                         std::string* error);

std::string EncodeResponseBinary(const ServiceResponse& response);
bool DecodeResponseBinary(const std::string& data, ServiceResponse* response,
                          std::string* error);

// Codec-dispatching helpers: one call site regardless of negotiated mode.
std::string EncodeRequestWire(const ServiceRequest& request, bool binary);
bool DecodeRequestWire(const std::string& data, bool binary,
                       ServiceRequest* request, std::string* error);
std::string EncodeResponseWire(const ServiceResponse& response, bool binary);
bool DecodeResponseWire(const std::string& data, bool binary,
                        ServiceResponse* response, std::string* error);

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_SERVICE_BINARY_CODEC_H_
