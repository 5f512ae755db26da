// Minimal JSON value model for the telemetry reports.
//
// Design constraints (see docs/ARCHITECTURE.md, "Telemetry & JSON
// reports"):
//
//  * Objects preserve insertion order, so a Report serialises its sections
//    in a fixed documented order — two runs that produce the same values
//    produce byte-identical files.
//  * Numbers keep their integer-ness: counters serialise as integers, not
//    as "1.0". Doubles render via std::to_chars (shortest round-trip form),
//    which is deterministic and locale-independent — iostreams are not.
//    A double with an integral value therefore renders without a fraction
//    ("1", "-0") and parses back as an integer of the same value.
//  * The parser accepts exactly what the writer emits plus ordinary
//    hand-written JSON (it exists so bench_diff can load committed
//    baselines); it throws std::runtime_error with a byte offset on
//    malformed input. Numbers follow JSON's grammar (no "01", "1." or
//    ".5"); a surrogate-pair escape decodes to one code point, and a lone
//    surrogate is refused, so every escape yields UTF-8.
//
// This is deliberately not a general-purpose JSON library: no comments, no
// NaN/Infinity extensions (non-finite doubles serialise as null), no
// streaming API. Everything the reports need, nothing more.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace pair_ecc::telemetry {

class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kInt,
    kReal,
    kString,
    kArray,
    kObject,
  };

  using Array = std::vector<JsonValue>;
  /// Insertion-ordered key/value pairs. Keys are unique (Set replaces).
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : value_(nullptr) {}
  JsonValue(bool b) : value_(b) {}
  JsonValue(int v) : value_(static_cast<std::int64_t>(v)) {}
  JsonValue(unsigned v) : value_(static_cast<std::int64_t>(v)) {}
  JsonValue(std::int64_t v) : value_(v) {}
  JsonValue(std::uint64_t v) : value_(static_cast<std::int64_t>(v)) {}
  JsonValue(double v) : value_(v) {}
  JsonValue(std::string s) : value_(std::move(s)) {}
  JsonValue(std::string_view s) : value_(std::string(s)) {}
  JsonValue(const char* s) : value_(std::string(s)) {}

  static JsonValue MakeArray() { JsonValue v; v.value_ = Array{}; return v; }
  static JsonValue MakeObject() { JsonValue v; v.value_ = Object{}; return v; }

  Kind kind() const noexcept { return static_cast<Kind>(value_.index()); }
  bool IsNumber() const noexcept {
    return kind() == Kind::kInt || kind() == Kind::kReal;
  }

  /// Typed accessors; throw std::runtime_error on kind mismatch.
  bool AsBool() const;
  std::int64_t AsInt() const;
  /// Numeric value as double (accepts both kInt and kReal).
  double AsReal() const;
  const std::string& AsString() const;
  const Array& AsArray() const;
  Array& AsArray();
  const Object& AsObject() const;
  Object& AsObject();

  /// Object helpers. Set appends (or replaces an existing key in place,
  /// keeping its position); Find returns nullptr when absent.
  JsonValue& Set(std::string_view key, JsonValue value);
  const JsonValue* Find(std::string_view key) const;

  /// Array helper.
  void Append(JsonValue value);

  /// Pretty-prints with 2-space indentation and a trailing newline at the
  /// top level. Deterministic: fixed key order (insertion), fixed number
  /// formatting.
  void Write(std::ostream& os) const;
  std::string Dump() const;

  /// Parses a complete JSON document (trailing whitespace allowed, trailing
  /// garbage is an error). Throws std::runtime_error on malformed input,
  /// and on arrays and objects nested more than 64 deep (the writer's
  /// deepest document, a checkpoint, nests 6).
  static JsonValue Parse(std::string_view text);

  friend bool operator==(const JsonValue&, const JsonValue&) = default;

 private:
  void WriteIndented(std::ostream& os, int depth) const;

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               Object>
      value_;
};

/// Deterministic number rendering used by the writer: integers as-is,
/// doubles in std::to_chars shortest round-trip form ("0.1", "1e+30").
/// Exposed for the diff tool's delta table.
std::string FormatJsonNumber(double value);

}  // namespace pair_ecc::telemetry
