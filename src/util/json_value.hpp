// Minimal JSON document parser — the read-side counterpart of JsonWriter.
//
// The serve wire protocol (schemas/request.schema.json) and the run
// journal are newline-delimited JSON, read back through this parser.  It
// is dependency-free, recursive-descent over RFC 8259, with a depth cap so
// a hostile request line cannot recurse without bound.  It has no size
// cap of its own: callers bound the input (serve::parse_request rejects a
// line longer than kMaxParserLine before parsing it).
//
// Values are held in an immutable tree of JsonValue nodes.  Accessors are
// checked: as_string() on a number throws Error(kInputInvalid) naming the
// member path, so protocol code gets classified diagnostics for free.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace nshot {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;  // null

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Checked accessors; throw Error(kInputInvalid) on a kind mismatch.
  bool as_bool() const;
  double as_number() const;
  /// as_number() narrowed to an integral value (3.0 ok, 3.5 throws).
  std::int64_t as_int() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  /// Members in source order (duplicate keys rejected at parse time).
  const std::vector<std::pair<std::string, JsonValue>>& as_object() const;

  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(const std::string& key) const;
  /// Object member that must exist; throws naming `key` when absent.
  const JsonValue& at(const std::string& key) const;

  /// Convenience over find(): the member's value, or `fallback` when the
  /// member is absent or null.  Kind mismatches still throw.
  std::string string_or(const std::string& key, const std::string& fallback) const;
  double number_or(const std::string& key, double fallback) const;
  bool bool_or(const std::string& key, bool fallback) const;

  static JsonValue make_bool(bool value);
  static JsonValue make_number(double value);
  static JsonValue make_string(std::string value);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  // Shared so JsonValue stays cheaply copyable (the protocol layer passes
  // parsed requests by value); the tree is immutable after parsing.
  std::shared_ptr<const std::vector<JsonValue>> array_;
  std::shared_ptr<const std::vector<std::pair<std::string, JsonValue>>> object_;
};

/// Parse one complete JSON document.  Throws Error(kInputInvalid) with a
/// byte offset on malformed input, trailing garbage, nesting deeper than
/// 64 levels, or duplicate object keys.  `what` names the document in
/// error messages ("request line", "response", ...).
JsonValue parse_json(const std::string& text, const std::string& what = "JSON text");

}  // namespace nshot
