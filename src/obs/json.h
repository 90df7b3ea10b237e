// Minimal JSON document model for the observability subsystem.
//
// The observability outputs (Chrome trace files, FlowReport documents)
// are JSON, and the tests must be able to parse those files back to
// verify well-formedness and round-trip fidelity — so this module carries
// both a writer and a strict recursive-descent parser.  It is not a
// general-purpose JSON library: numbers are doubles (integral values are
// emitted without a decimal point; 64-bit identifiers such as cache keys
// travel as hex strings, never as numbers), object member order is
// preserved, and duplicate keys are rejected on parse.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace secflow {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;                      // null
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  JsonValue(double v) : kind_(Kind::kNumber), num_(v) {}
  JsonValue(int v) : JsonValue(static_cast<double>(v)) {}
  JsonValue(std::int64_t v) : JsonValue(static_cast<double>(v)) {}
  JsonValue(std::uint64_t v) : JsonValue(static_cast<double>(v)) {}
  JsonValue(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  JsonValue(const char* s) : JsonValue(std::string(s)) {}

  static JsonValue array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static JsonValue object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; SECFLOW_CHECK on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;
  std::vector<JsonValue>& items();
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Array append / object insert (the value must already be that kind).
  JsonValue& push_back(JsonValue v);
  JsonValue& set(std::string key, JsonValue v);

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  JsonValue* find(std::string_view key);

  bool operator==(const JsonValue& o) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<JsonValue> arr_;
  std::vector<std::pair<std::string, JsonValue>> obj_;
};

/// Serialize.  indent > 0 pretty-prints with that many spaces per level;
/// 0 emits the compact single-line form.  Doubles are printed with enough
/// digits to round-trip IEEE-754 exactly; integral values (within the
/// 2^53 exact range) print without a decimal point.
std::string json_dump(const JsonValue& v, int indent = 0);

/// Strict parse of a complete JSON document (trailing garbage is an
/// error).  Throws ParseError at "json <line>:<column>" on malformed input.
JsonValue json_parse(std::string_view text);

}  // namespace secflow
