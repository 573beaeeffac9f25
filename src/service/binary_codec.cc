#include "src/service/binary_codec.h"

#include <bitset>
#include <cstring>
#include <type_traits>
#include <utility>

#include "src/service/wire_schema.h"

namespace wayfinder {

namespace {

// Message kinds.
constexpr unsigned char kKindRequest = 0x01;
constexpr unsigned char kKindResponse = 0x02;

void StoreU32(char* at, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    at[i] = static_cast<char>(value >> (24 - 8 * i));
  }
}

void PutField(std::string* out, unsigned char tag, const char* data, size_t n) {
  char header[5] = {static_cast<char>(tag)};
  StoreU32(header + 1, static_cast<uint32_t>(n));
  out->append(header, 5);
  out->append(data, n);
}

// Bounds-checked cursor over an untrusted buffer. Every Read* returns false
// instead of ever looking past `n` — the fuzz tests hammer this.
struct Reader {
  const unsigned char* p;
  size_t n;
  size_t pos = 0;

  bool done() const { return pos >= n; }

  bool ReadU8(unsigned char* out) {
    if (n - pos < 1) {
      return false;
    }
    *out = p[pos++];
    return true;
  }

  bool ReadU32(uint32_t* out) {
    if (n - pos < 4) {
      return false;
    }
    *out = (static_cast<uint32_t>(p[pos]) << 24) |
           (static_cast<uint32_t>(p[pos + 1]) << 16) |
           (static_cast<uint32_t>(p[pos + 2]) << 8) |
           static_cast<uint32_t>(p[pos + 3]);
    pos += 4;
    return true;
  }

  bool Skip(size_t count, const unsigned char** start) {
    if (n - pos < count) {
      return false;
    }
    *start = p + pos;
    pos += count;
    return true;
  }
};

// Appends one message's fields as TLV.
class TlvWriter {
 public:
  explicit TlvWriter(std::string* out) : out_(out) {}

  template <typename T, typename P>
  void operator()(const char*, unsigned char tag, const T& value, P presence) {
    if (wire::Emitted(value, presence)) {
      Put(tag, value);
    }
  }

 private:
  template <typename T>
  void Put(unsigned char tag, const T& value) {
    if constexpr (std::is_same_v<T, std::string>) {
      PutField(out_, tag, value.data(), value.size());
    } else if constexpr (std::is_same_v<T, wire::Spelled<const bool>>) {
      Put(tag, value.value);
    } else if constexpr (std::is_same_v<T, bool>) {
      char byte = value ? 1 : 0;
      PutField(out_, tag, &byte, 1);
    } else if constexpr (std::is_same_v<T, double>) {
      uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(value), "f64 rides as u64 bits");
      std::memcpy(&bits, &value, sizeof(bits));
      Put(tag, bits);
    } else if constexpr (std::is_integral_v<T>) {
      char bytes[8];
      for (int i = 0; i < 8; ++i) {
        bytes[i] = static_cast<char>(static_cast<uint64_t>(value) >> (56 - 8 * i));
      }
      PutField(out_, tag, bytes, 8);
    } else {
      // The status list: one nested block per session, all under `tag`,
      // each encoded in place with its length patched in after.
      for (const SessionStatus& status : value) {
        PutField(out_, tag, "", 0);  // Length patched below.
        const size_t start = out_->size();
        wire::VisitFields(status, *this);
        StoreU32(&(*out_)[start - 4], static_cast<uint32_t>(out_->size() - start));
      }
    }
  }

  std::string* out_;
};

template <typename M>
bool DecodeFields(const unsigned char* data, size_t n, const char* what, M* message,
                  std::string* error);

// Walks a run of [tag][len][value] fields against a field list. One visit
// of the list consumes, in frame order, every field whose tag matches the
// entry being visited, so a frame in list order decodes in a single pass
// (O(1) per field); out-of-order or repeated fields take another pass, and
// a field no entry claims is an unknown tag and is skipped (forward
// compatibility). Once the frame is consumed, a visit flags the first
// kRequired entry whose tag never came.
struct TlvCursor {
  enum class Fault { kNone, kTruncated, kMalformed, kNested, kMissing };

  Reader reader;
  std::string* error;
  unsigned char tag = 0;
  const unsigned char* data = nullptr;
  size_t n = 0;
  bool pending = false;
  Fault fault = Fault::kNone;
  const char* missing = nullptr;  // kMissing: the absent entry's key.
  std::bitset<256> seen{};

  // Loads the next field, moving past the current one without decoding it.
  void Next() {
    uint32_t len = 0;
    pending = !reader.done() && fault == Fault::kNone;
    if (pending && !(reader.ReadU8(&tag) && reader.ReadU32(&len) && reader.Skip(len, &data))) {
      Stop(Fault::kTruncated);
    }
    n = len;
  }

  template <typename T, typename P>
  void operator()(const char* key, unsigned char entry_tag, T&& value, P&& presence) {
    while (pending && tag == entry_tag) {
      if (!Take(value)) {
        Stop(fault == Fault::kNone ? Fault::kMalformed : fault);
        return;
      }
      if constexpr (std::is_same_v<std::decay_t<P>, bool>) {
        presence = true;
      }
      seen.set(tag);
      Next();
    }
    if (std::is_same_v<std::decay_t<P>, wire::Required> && !pending &&
        fault == Fault::kNone && !seen[entry_tag]) {
      missing = key;
      Stop(Fault::kMissing);
    }
  }

  template <typename T>
  bool Take(T& value) {
    if constexpr (std::is_same_v<T, std::string>) {
      value.assign(reinterpret_cast<const char*>(data), n);
    } else if constexpr (std::is_same_v<T, wire::Spelled<bool>>) {
      return Take(value.value);
    } else if constexpr (std::is_same_v<T, bool>) {
      if (n != 1 || data[0] > 1) {
        return false;
      }
      value = data[0] == 1;
    } else if constexpr (std::is_same_v<T, double>) {
      uint64_t bits = 0;
      if (!Take(bits)) {
        return false;
      }
      std::memcpy(&value, &bits, sizeof(value));
    } else if constexpr (std::is_integral_v<T>) {
      if (n != 8) {
        return false;
      }
      uint64_t bits = 0;
      for (int i = 0; i < 8; ++i) {
        bits = (bits << 8) | data[i];
      }
      value = static_cast<T>(bits);
    } else {  // The status list: each field carries one session's block.
      SessionStatus status;
      if (!DecodeFields(data, n, "session", &status, error)) {
        fault = Fault::kNested;  // *error already holds the block's reason.
        return false;
      }
      value.push_back(std::move(status));
    }
    return true;
  }

  void Stop(Fault why) {
    fault = why;
    pending = false;
  }
};

// Decodes a run of fields into `message`; `what` names it in errors
// ("request", "response", "session").
template <typename M>
bool DecodeFields(const unsigned char* data, size_t n, const char* what, M* message,
                  std::string* error) {
  TlvCursor cursor{Reader{data, n}, error};
  cursor.Next();
  while (cursor.pending) {
    const size_t at = cursor.reader.pos;
    wire::VisitFields(*message, cursor);
    if (cursor.pending && cursor.reader.pos == at) {
      cursor.Next();  // No entry claims this tag.
    }
  }
  wire::VisitFields(*message, cursor);  // Frame consumed: check kRequired.
  using Fault = TlvCursor::Fault;
  if (cursor.fault == Fault::kMissing) {
    *error = std::string(what) + " has no " + cursor.missing;
  } else if (cursor.fault != Fault::kNone && cursor.fault != Fault::kNested) {
    *error = std::string(cursor.fault == Fault::kTruncated ? "truncated " : "malformed ") +
             what + " field";
  }
  return cursor.fault == Fault::kNone;
}

template <typename M>
std::string EncodeMessage(unsigned char kind, const M& message) {
  std::string out(1, static_cast<char>(kind));
  TlvWriter writer(&out);
  wire::VisitFields(message, writer);
  return out;
}

// Resets `message`, then decodes `data` when its kind byte matches.
template <typename M>
bool DecodeMessage(const std::string& data, unsigned char kind, const char* what, M* message,
                   std::string* error) {
  *message = M();
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  if (data.empty() || bytes[0] != kind) {
    *error = std::string("not a binary ") + what;
    return false;
  }
  return DecodeFields(bytes + 1, data.size() - 1, what, message, error);
}

}  // namespace

const char kBinaryHello[4] = {'W', 'F', 'B', '1'};

bool IsBinaryHello(const std::string& payload) {
  return payload.size() == 4 &&
         std::memcmp(payload.data(), kBinaryHello, 4) == 0;
}

bool LooksLikeCodecHello(const std::string& payload) {
  return payload.size() == 4 && payload[0] == 'W' && payload[1] == 'F' &&
         payload[2] == 'B';
}

std::string EncodeRequestBinary(const ServiceRequest& request) {
  return EncodeMessage(kKindRequest, request);
}

bool DecodeRequestBinary(const std::string& data, ServiceRequest* request,
                         std::string* error) {
  return DecodeMessage(data, kKindRequest, "request", request, error) &&
         ValidateRequest(*request, error);
}

std::string EncodeResponseBinary(const ServiceResponse& response) {
  return EncodeMessage(kKindResponse, response);
}

bool DecodeResponseBinary(const std::string& data, ServiceResponse* response,
                          std::string* error) {
  return DecodeMessage(data, kKindResponse, "response", response, error);
}

std::string EncodeRequestWire(const ServiceRequest& request, bool binary) {
  return binary ? EncodeRequestBinary(request) : EncodeRequest(request);
}

bool DecodeRequestWire(const std::string& data, bool binary,
                       ServiceRequest* request, std::string* error) {
  return binary ? DecodeRequestBinary(data, request, error)
                : DecodeRequest(data, request, error);
}

std::string EncodeResponseWire(const ServiceResponse& response, bool binary) {
  return binary ? EncodeResponseBinary(response) : EncodeResponse(response);
}

bool DecodeResponseWire(const std::string& data, bool binary,
                        ServiceResponse* response, std::string* error) {
  return binary ? DecodeResponseBinary(data, response, error)
                : DecodeResponse(data, response, error);
}

}  // namespace wayfinder
