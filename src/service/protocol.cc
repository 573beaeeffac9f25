#include "src/service/protocol.h"

#include <cstdio>
#include <type_traits>
#include <utility>

#include "src/service/wire_schema.h"

namespace wayfinder {

namespace {

// Scalar-quoting for our YAML subset: values that could confuse the parser
// (colons, leading dashes, '#') ride inside double quotes; embedded double
// quotes are dropped (nothing in the protocol legitimately carries them).
std::string Quote(const std::string& text) {
  std::string cleaned;
  cleaned.reserve(text.size());
  for (char c : text) {
    if (c != '"' && c != '\n' && c != '\r') {
      cleaned.push_back(c);
    }
  }
  return "\"" + cleaned + "\"";
}

std::string FormatDouble(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

// YAML text of one scalar field.
template <typename T>
std::string Scalar(const T& value) {
  if constexpr (std::is_same_v<T, std::string>) {
    return Quote(value);
  } else if constexpr (std::is_same_v<T, wire::Spelled<const bool>>) {
    return value.value ? value.yes : value.no;
  } else if constexpr (std::is_same_v<T, bool>) {
    return value ? "true" : "false";
  } else if constexpr (std::is_floating_point_v<T>) {
    return FormatDouble(value);
  } else {
    return std::to_string(value);  // Counts.
  }
}

// Appends one mapping's fields as YAML lines: `first` starts the first line
// (a list item's "- "), `indent` every other one.
class YamlWriter {
 public:
  YamlWriter(std::string* out, std::string first, std::string indent)
      : out_(out), first_(std::move(first)), indent_(std::move(indent)) {}

  template <typename T, typename P>
  void operator()(const char* key, unsigned char, const T& value, P presence) {
    if (!wire::Emitted(value, presence)) {
      return;
    }
    *out_ += first_line_ ? first_ : indent_;
    *out_ += key;
    first_line_ = false;
    if constexpr (std::is_same_v<T, std::vector<SessionStatus>>) {
      *out_ += ":\n";
      for (const SessionStatus& item : value) {
        YamlWriter writer(out_, indent_ + "  - ", indent_ + "    ");
        wire::VisitFields(item, writer);
      }
    } else {
      *out_ += ": ";
      *out_ += Scalar(value);
      *out_ += '\n';
    }
  }

 private:
  std::string* out_;
  std::string first_;
  std::string indent_;
  bool first_line_ = true;
};

// Reads one mapping's fields. Every member is assigned only from a key that
// is present and parses, so absent keys keep the message's defaults.
class YamlReader {
 public:
  YamlReader(const YamlNode& node, const char* what, std::string* error)
      : node_(node), what_(what), error_(error) {}

  bool ok() const { return ok_; }

  template <typename T, typename P>
  void operator()(const char* key, unsigned char, T&& value, P&& presence) {
    const YamlNode* field = ok_ ? node_.Get(key) : nullptr;
    const bool present = field != nullptr && Read(key, *field, value);
    if constexpr (std::is_same_v<std::decay_t<P>, bool>) {
      presence = present;
    } else if constexpr (std::is_same_v<std::decay_t<P>, wire::Required>) {
      if (!present) {
        Fail(std::string(what_) + " has no " + key);
      }
    }
  }

 private:
  // False when the field counts as absent: a word that is neither spelling.
  template <typename T>
  bool Read(const char* key, const YamlNode& field, T& value) {
    if constexpr (std::is_same_v<T, std::string>) {
      if (field.IsScalar()) {
        value = field.AsString();
      }
    } else if constexpr (std::is_same_v<T, wire::Spelled<bool>>) {
      const std::string word = field.IsScalar() ? field.AsString() : std::string();
      value.value = word == value.yes;
      return value.value || word == value.no;
    } else if constexpr (std::is_same_v<T, bool>) {
      value = field.AsBool().value_or(value);
    } else if constexpr (std::is_floating_point_v<T>) {
      value = field.AsDouble().value_or(value);
    } else if constexpr (std::is_integral_v<T>) {
      value = static_cast<T>(field.AsInt().value_or(static_cast<int64_t>(value)));
    } else {  // The status list.
      if (!field.IsSequence()) {
        Fail(std::string(key) + " must be a sequence");
      }
      for (size_t i = 0; ok_ && i < field.Size(); ++i) {
        SessionStatus item;
        YamlReader reader(field.At(i), "session", error_);
        wire::VisitFields(item, reader);
        ok_ = reader.ok();
        value.push_back(std::move(item));
      }
    }
    return true;
  }

  void Fail(std::string message) {
    if (ok_) {
      *error_ = std::move(message);
      ok_ = false;
    }
  }

  const YamlNode& node_;
  const char* what_;
  std::string* error_;
  bool ok_ = true;
};

template <typename M>
std::string ToYaml(const M& message) {
  std::string out;
  YamlWriter writer(&out, "", "");
  wire::VisitFields(message, writer);
  return out;
}

// Parses `text` into a default-constructed `message`; `what` names it in
// errors ("request", "response").
template <typename M>
bool FromYaml(const std::string& text, const char* what, M* message, std::string* error) {
  YamlParseResult parsed = ParseYaml(text);
  if (!parsed.ok) {
    *error = std::string(what) + " is not valid YAML: " + parsed.error;
    return false;
  }
  if (!parsed.root.IsMapping()) {
    *error = std::string(what) + " must be a YAML mapping";
    return false;
  }
  *message = M();
  YamlReader reader(parsed.root, what, error);
  wire::VisitFields(*message, reader);
  return reader.ok();
}

struct CommandInfo {
  const char* name;
  bool needs_id;    // Per-session: the request must carry an `id`.
  bool idempotent;  // Only reads state (or re-subscribes): safe to re-send.
};

// Every command the protocol knows.
constexpr CommandInfo kCommands[] = {
    {"submit", false, false},  {"status", false, true}, {"watch", true, true},
    {"result", true, true},    {"pause", true, false},  {"resume", true, false},
    {"stop", false, false},    {"compact", false, false}, {"ping", false, true},
    {"metrics", false, true},  {"trace", true, true},
};

const CommandInfo* FindCommand(const std::string& command) {
  for (const CommandInfo& info : kCommands) {
    if (command == info.name) {
      return &info;
    }
  }
  return nullptr;
}

}  // namespace

bool KnownServiceCommand(const std::string& command) {
  return FindCommand(command) != nullptr;
}

bool CommandNeedsId(const std::string& command) {
  const CommandInfo* info = FindCommand(command);
  return info != nullptr && info->needs_id;
}

bool IdempotentServiceCommand(const std::string& command) {
  const CommandInfo* info = FindCommand(command);
  return info != nullptr && info->idempotent;
}

bool ValidateRequest(const ServiceRequest& request, std::string* error) {
  if (request.command.empty()) {
    *error = "request has no command";
    return false;
  }
  if (!KnownServiceCommand(request.command)) {
    *error = "unknown command: " + request.command;
    return false;
  }
  if (CommandNeedsId(request.command) && request.id.empty()) {
    *error = request.command + " requires an id";
    return false;
  }
  return true;
}

std::string EncodeRequest(const ServiceRequest& request) { return ToYaml(request); }

bool DecodeRequest(const std::string& text, ServiceRequest* request, std::string* error) {
  return FromYaml(text, "request", request, error) && ValidateRequest(*request, error);
}

std::string EncodeResponse(const ServiceResponse& response) { return ToYaml(response); }

bool DecodeResponse(const std::string& text, ServiceResponse* response,
                    std::string* error) {
  return FromYaml(text, "response", response, error);
}

}  // namespace wayfinder
