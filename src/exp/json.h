// Minimal JSON value type for the sweep telemetry layer (JSONL lines).
//
// This is deliberately a subset of JSON sized for telemetry records:
// objects keep insertion order (stable line layout), numbers carry an
// exact 64-bit integer twin when they were written/parsed as integers
// (cell seeds are full-range uint64 and must round-trip losslessly), and
// doubles render with max_digits10 so parse(dump()) is the identity on
// every value the sink emits. Non-finite doubles (±inf best objectives
// of failed/degenerate cells, NaN stats) are not valid JSON numbers, so
// dump() writes the sentinel strings "inf"/"-inf"/"nan" and parse()
// maps exactly those strings back to non-finite numbers — the one
// deliberate asymmetry: a *string* value spelled "inf" does not survive
// a round-trip (telemetry never emits one). Not a general-purpose JSON
// library — no \uXXXX escapes beyond what escaping our own strings
// needs, no streaming — just enough for the telemetry schema and its
// tests.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace psga::exp {

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Member = std::pair<std::string, Json>;
  using Array = std::vector<Json>;
  using Object = std::vector<Member>;

  Json() = default;

  // --- constructors -------------------------------------------------------
  static Json null() { return Json(); }
  static Json boolean(bool value);
  static Json number(double value);
  /// Exact 64-bit integer (renders as plain digits, parses back exactly).
  static Json integer(std::int64_t value);
  static Json uinteger(std::uint64_t value);
  static Json string(std::string value);
  static Json array();
  static Json object();

  // --- builders -----------------------------------------------------------
  /// Appends a member (objects) — returns *this for chaining.
  Json& set(const std::string& key, Json value);
  /// Appends an element (arrays).
  Json& push(Json value);

  // --- accessors ----------------------------------------------------------
  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  /// The exact value of a whole number in the type's range. A value
  /// built via integer()/uinteger() or parsed from undecorated digits
  /// reads its exact 64-bit twin; one in decimal or exponent form (1e3,
  /// 2000.0) reads its double. Throws std::invalid_argument, naming the
  /// value, for a non-number, a fraction, or a value out of range (any
  /// negative one for as_u64).
  std::uint64_t as_u64() const;
  std::int64_t as_i64() const;
  int as_int() const;
  const std::string& as_string() const { return string_; }
  const Array& items() const { return array_; }
  const Object& members() const { return object_; }

  /// Member lookup on objects; nullptr when absent (or not an object).
  const Json* find(const std::string& key) const;
  /// Convenience lookups with fallbacks.
  double number_or(const std::string& key, double fallback) const;
  /// Integer member: `fallback` when `key` is absent, otherwise the
  /// member's exact value by as_int() (T = int), as_u64() (unsigned T)
  /// or as_i64() (other signed T) — so a present value that does not
  /// read as a whole number in range throws std::invalid_argument
  /// naming it, never truncates.
  template <typename T>
  T integer_or(const std::string& key, T fallback) const {
    const Json* value = find(key);
    if (value == nullptr) return fallback;
    if constexpr (std::is_same_v<T, int>) {
      return value->as_int();
    } else if constexpr (std::is_unsigned_v<T>) {
      return value->as_u64();
    } else {
      return value->as_i64();
    }
  }
  std::string string_or(const std::string& key,
                        const std::string& fallback) const;

  // --- serialization ------------------------------------------------------
  /// Compact single-line rendering (the JSONL line format).
  std::string dump() const;

  /// Indented pretty-printing (`indent` spaces per level, newlines
  /// between members/elements). Semantically identical to the compact
  /// form: parse(dump(n)) == parse(dump()) for every value. Used by
  /// psgactl for human-readable stats/info output.
  std::string dump(int indent) const;

  /// Deepest array/object nesting parse() accepts. Far above anything
  /// psga writes; it keeps a hostile line from exhausting the stack.
  static constexpr int kMaxDepth = 256;

  /// Parses one JSON document; throws std::invalid_argument (with a byte
  /// offset) on malformed input, nesting deeper than kMaxDepth or
  /// trailing garbage.
  static Json parse(const std::string& text);

  /// JSON string escaping (exposed for tests).
  static std::string escape(const std::string& raw);

 private:
  void dump_to(std::string& out) const;
  void dump_pretty_to(std::string& out, int indent, int depth) const;
  std::string number_text() const;
  template <typename T>
  T integer_as(const char* type) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::uint64_t u64_ = 0;
  bool exact_int_ = false;  ///< render from u64_ (negative flag in neg_)
  bool negative_ = false;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace psga::exp
