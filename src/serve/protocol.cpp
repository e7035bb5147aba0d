#include "serve/protocol.hpp"

#include <cmath>
#include <cstdio>

#include "util/json.hpp"
#include "util/json_value.hpp"
#include "util/strings.hpp"

namespace nshot::serve {

namespace {

/// Canonicalize a JSON override value to the string a batch manifest
/// would carry: strings pass through, integral numbers render without a
/// fractional part, booleans become 1/0.
std::string override_string(const std::string& key, const JsonValue& value) {
  if (value.is_string()) return value.as_string();
  if (value.is_bool()) return value.as_bool() ? "1" : "0";
  if (value.is_number()) {
    const double number = value.as_number();
    if (number == std::floor(number) && std::abs(number) < 1e15) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(number));
      return buf;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", number);
    return buf;
  }
  throw Error(ErrorCode::kInputInvalid,
              "override '" + key + "' must be a string, number or boolean");
}

}  // namespace

WireRequest parse_request(const std::string& line) {
  NSHOT_REQUIRE(line.size() <= kMaxParserLine,
                "request line is longer than " + std::to_string(kMaxParserLine) + " bytes");
  const JsonValue doc = parse_json(line, "request line");
  NSHOT_REQUIRE(doc.is_object(), "request line must be a JSON object");

  WireRequest wire;
  for (const auto& [key, value] : doc.as_object()) {
    if (key == "id")
      wire.request.id = value.as_string();
    else if (key == "client")
      wire.client = value.as_string();
    else if (key == "kind")
      wire.request.kind = value.as_string();
    else if (key == "spec")
      wire.request.spec = value.as_string();
    else if (key == "g_text")
      wire.request.g_text = value.as_string();
    else if (key == "overrides") {
      NSHOT_REQUIRE(value.is_object(), "'overrides' must be a JSON object");
      for (const auto& [override_key, override_value] : value.as_object()) {
        NSHOT_REQUIRE(Request::known_override_keys().count(override_key) != 0,
                      "unknown override key '" + override_key + "'");
        wire.request.overrides[override_key] = override_string(override_key, override_value);
      }
    } else {
      throw Error(ErrorCode::kInputInvalid, "unknown request field '" + key + "'");
    }
  }
  NSHOT_REQUIRE(!wire.client.empty(), "'client' must not be empty");
  NSHOT_REQUIRE(wire.request.spec.empty() || wire.request.g_text.empty(),
                "request carries both 'spec' and 'g_text'");
  NSHOT_REQUIRE(!wire.request.spec.empty() || !wire.request.g_text.empty(),
                "request carries neither 'spec' nor 'g_text'");
  return wire;
}

std::string request_json(const WireRequest& wire) {
  JsonWriter json;
  json.begin_object();
  json.key("id").value(wire.request.id);
  json.key("client").value(wire.client);
  if (!wire.request.kind.empty()) json.key("kind").value(wire.request.kind);
  if (!wire.request.spec.empty()) json.key("spec").value(wire.request.spec);
  if (!wire.request.g_text.empty()) json.key("g_text").value(wire.request.g_text);
  if (!wire.request.overrides.empty()) {
    json.key("overrides").begin_object();
    for (const auto& [key, value] : wire.request.overrides) json.key(key).value(value);
    json.end_object();
  }
  json.end_object();
  return json.str();
}

Response rejection(const std::string& id, ErrorCode code, const std::string& message) {
  Response response;
  response.id = id;
  response.attempts = 0;
  response.outcome.code = code;
  response.outcome.stage = "admission";
  response.outcome.message = message;
  return response;
}

}  // namespace nshot::serve
