// Minimal JSON value type, parser and serialiser.
//
// The CLI front-end (tools/cpmctl) reads cluster models from JSON files;
// the repro environment has no third-party JSON library, so this is a
// small self-contained implementation of the JSON subset the model format
// needs: null, booleans, finite doubles, strings, arrays and objects. Parse
// errors carry line/column positions.
//
// A \uXXXX escape decodes to UTF-8: a BMP character to one to three bytes,
// and a high surrogate escape followed by a low one (U+10000 to U+10FFFF)
// to one four-byte sequence. A surrogate escape without its partner is a
// parse error, so escapes never yield invalid UTF-8 and a parsed document
// dumps back as UTF-8 JSON (RFC 8259 section 8.1). Unescaped bytes are
// taken as they are; dump escapes only quotes, backslashes and control
// characters.
//
// Number text is part of the cache-key and document formats, so it is
// fixed byte for byte and does not depend on the locale: an integral
// value with |d| < 1e15 is written as that integer, every other number as
// printf's "%.17g" in the C locale (std::to_chars, general format,
// precision 17). Parsing rounds as strtod does in the C locale. Arrays and
// objects nest at most kMaxNesting (256) deep; deeper input is a parse
// error, so hostile bytes cannot exhaust the stack.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace cpm {

class Json;

using JsonArray = std::vector<Json>;
/// std::map keeps object keys ordered, making dumps deterministic.
using JsonObject = std::map<std::string, Json>;

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}                    // NOLINT
  Json(double d) : type_(Type::kNumber), num_(d) {}                 // NOLINT
  Json(int i) : type_(Type::kNumber), num_(i) {}                    // NOLINT
  Json(const char* s) : type_(Type::kString), str_(s) {}            // NOLINT
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {} // NOLINT
  Json(JsonArray a);                                                // NOLINT
  Json(JsonObject o);                                               // NOLINT

  /// Deepest nesting of arrays and objects that parse accepts.
  static constexpr int kMaxNesting = 256;

  /// Parses a complete JSON document; throws cpm::Error with a
  /// line:column message on malformed input, trailing garbage or
  /// nesting deeper than kMaxNesting.
  static Json parse(const std::string& text);

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw cpm::Error on type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const JsonArray& as_array() const;
  [[nodiscard]] const JsonObject& as_object() const;

  /// Object member access; throws when not an object / key missing.
  [[nodiscard]] const Json& at(const std::string& key) const;
  [[nodiscard]] bool contains(const std::string& key) const;
  /// Object member with a fallback when the key is absent.
  [[nodiscard]] double number_or(const std::string& key, double fallback) const;
  [[nodiscard]] std::string string_or(const std::string& key,
                                      std::string fallback) const;

  /// The number as an integer in [lo, hi] (hi defaults to T's maximum).
  /// Throws cpm::Error naming the value unless it is finite, integral and
  /// inside the range, so no document reaches an undefined float-to-integer
  /// cast.
  template <class T>
  [[nodiscard]] T as_integer(T lo,
                             T hi = std::numeric_limits<T>::max()) const;
  /// Member `key` through as_integer, or `fallback` when absent.
  template <class T>
  [[nodiscard]] T integer_or(const std::string& key, T fallback, T lo,
                             T hi = std::numeric_limits<T>::max()) const {
    return contains(key) ? at(key).as_integer(lo, hi) : fallback;
  }

  /// Array element access; throws when not an array / out of range.
  [[nodiscard]] const Json& at(std::size_t index) const;
  [[nodiscard]] std::size_t size() const;

  /// Serialises; `indent` > 0 pretty-prints with that many spaces.
  [[nodiscard]] std::string dump(int indent = 0) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;
  [[noreturn]] void throw_not_integer(const std::string& lo,
                                      const std::string& hi) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  // Indirection keeps Json small and allows the recursive types.
  std::shared_ptr<JsonArray> arr_;
  std::shared_ptr<JsonObject> obj_;
};

template <class T>
T Json::as_integer(T lo, T hi) const {
  static_assert(std::is_integral_v<T>);
  const double v = as_number();
  // 2^digits is the first value past T's range, and exact as a double.
  const double past_max = std::ldexp(1.0, std::numeric_limits<T>::digits);
  const double min = std::is_signed_v<T> ? -past_max : 0.0;
  if (v >= min && v < past_max &&
      v == std::floor(v)) {  // conv-ok: CONV-5 (integrality test)
    const auto t = static_cast<T>(v);
    if (t >= lo && t <= hi) return t;
  }
  throw_not_integer(std::to_string(lo), std::to_string(hi));
}

}  // namespace cpm
