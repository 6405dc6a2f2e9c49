// The repo's one JSON reader and writer.
//
// Every JSON surface goes through here: the topology format
// (graph/json_topology), the metrics and trace artifacts (obs/), and
// drift_report's reader side.  It is deliberately small: a
// recursive-descent parser over the full JSON grammar with a nesting
// limit, a document model whose objects are std::map (so iteration —
// and therefore canonical output — is always key-sorted), and a writer
// that renders doubles through std::to_chars so the same document
// always serializes to the same bytes on every conforming platform.
// Integers that arrive without a fraction or exponent are kept as int64
// and re-emitted without a decimal point, so artifact round-trips don't
// grow ".0" noise.
//
// Malformed input never crashes the parser: every rejection is one
// message that starts with "line L, col C: " (1-based, bytes), naming
// the first bad byte.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace drift::util {

class JsonValue;

using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  explicit JsonValue(bool v) : kind_(Kind::kBool), bool_(v) {}
  explicit JsonValue(std::int64_t v) : kind_(Kind::kInt), int_(v) {}
  explicit JsonValue(double v) : kind_(Kind::kDouble), double_(v) {}
  explicit JsonValue(std::string v)
      : kind_(Kind::kString), string_(std::move(v)) {}
  explicit JsonValue(JsonArray v) : kind_(Kind::kArray), array_(std::move(v)) {}
  explicit JsonValue(JsonObject v)
      : kind_(Kind::kObject), object_(std::move(v)) {}

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return bool_; }
  /// Doubles truncate toward zero, saturating at the int64 range (NaN
  /// reads as 0), so a hostile artifact cannot trigger an undefined
  /// float-to-int conversion.
  std::int64_t as_int() const;
  double as_double() const {
    return kind_ == Kind::kInt ? static_cast<double>(int_) : double_;
  }
  const std::string& as_string() const { return string_; }
  const JsonArray& as_array() const { return array_; }
  const JsonObject& as_object() const { return object_; }
  JsonObject& as_object() { return object_; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* get(const std::string& key) const;

  /// `get` chained through nested objects, nullptr on any miss.
  const JsonValue* get_path(std::initializer_list<const char*> keys) const;

  /// Deep structural equality.  Kinds must match (the int 1 and the
  /// double 1.0 differ); doubles compare with ==.
  bool operator==(const JsonValue& other) const;

 private:
  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  JsonArray array_;
  JsonObject object_;
};

/// Parses `text`; on failure returns nullopt and fills `error` with one
/// message carrying the 1-based line/column of the first bad byte.
/// Duplicate object keys and nesting deeper than 64 are errors.
std::optional<JsonValue> parse_json(const std::string& text,
                                    std::string& error);

/// Canonical serialization: object keys in sorted (std::map) order,
/// doubles via format_double, 2-space indent, trailing newline.
/// Byte-identical for equal documents — the contract the report
/// goldens and `drift_report diff` rely on.
std::string write_canonical(const JsonValue& value);

/// Shortest round-trip decimal rendering (std::to_chars): the same
/// bytes on every conforming implementation, unlike printf("%g").
/// Non-finite values, which JSON cannot spell, render as the
/// overflowing literals 1e999 / -1e999 (NaN as 0).
std::string format_double(double v);

/// Appends `s` as a quoted JSON string literal: '"', '\\' and control
/// bytes are escaped, everything else is copied byte for byte.
void append_json_string(std::string& out, const std::string& s);

}  // namespace drift::util
