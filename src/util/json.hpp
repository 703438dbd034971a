// The one JSON codec: a JSON value, a strict parser and a serializer.
//
// The library, its tools and its benches read and write JSON only through
// here: the serve wire protocol (line-delimited objects), `llp_trace check`,
// and the BENCH_*.json records. The trace exporter streams its output by
// hand, but quotes strings with json_quote below. The needs are modest: the six JSON
// types, strict recursive-descent parsing with a depth limit, and a
// serializer whose number formatting round-trips doubles exactly (%.17g) —
// residuals cross the wire as text and the kill-and-resume tests compare
// them bitwise. Objects keep their keys sorted (std::map), so a value
// serializes to the same bytes everywhere: event lines are comparable as
// strings.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

namespace llp {

class Json {
public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  /// parse() rejects documents nested deeper than this.
  static constexpr int kMaxDepth = 64;

  Json() : v_(nullptr) {}
  Json(std::nullptr_t) : v_(nullptr) {}
  Json(bool b) : v_(b) {}
  Json(double d) : v_(d) {}
  Json(int i) : v_(static_cast<double>(i)) {}
  Json(std::int64_t i) : v_(static_cast<double>(i)) {}
  Json(std::uint64_t i) : v_(static_cast<double>(i)) {}
  Json(const char* s) : v_(std::string(s)) {}
  Json(std::string s) : v_(std::move(s)) {}
  Json(Array a) : v_(std::move(a)) {}
  Json(Object o) : v_(std::move(o)) {}

  Type type() const { return static_cast<Type>(v_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  bool as_bool() const { return std::get<bool>(v_); }
  double as_double() const { return std::get<double>(v_); }
  /// The number as a T when it is integral and inside T's range; nullopt
  /// for anything else (not a number, fractional, out of range). Never a
  /// truncating cast.
  template <class T = std::int64_t>
  std::optional<T> as_int() const {
    static_assert(std::is_integral_v<T>);
    if (!is_number()) return std::nullopt;
    const double d = as_double();
    // Both bounds are zero or a power of two, so exact as doubles.
    const double lo = static_cast<double>(std::numeric_limits<T>::min());
    const double hi = std::ldexp(1.0, std::numeric_limits<T>::digits);
    if (!(d >= lo && d < hi) || d != std::trunc(d)) return std::nullopt;
    return static_cast<T>(d);
  }
  const std::string& as_string() const { return std::get<std::string>(v_); }
  const Array& array() const { return std::get<Array>(v_); }
  Array& array() { return std::get<Array>(v_); }
  const Object& object() const { return std::get<Object>(v_); }
  Object& object() { return std::get<Object>(v_); }

  /// Object member lookup; nullptr when absent or not an object.
  const Json* find(const std::string& key) const {
    if (!is_object()) return nullptr;
    auto it = object().find(key);
    return it == object().end() ? nullptr : &it->second;
  }

  // Typed getters with defaults — missing or wrong-typed members (for
  // get_int, anything but an integer) yield the fallback; input validation
  // uses read_int below.
  std::string get_string(const std::string& key,
                         const std::string& fallback = {}) const {
    const Json* j = find(key);
    return (j != nullptr && j->is_string()) ? j->as_string() : fallback;
  }
  double get_double(const std::string& key, double fallback = 0.0) const {
    const Json* j = find(key);
    return (j != nullptr && j->is_number()) ? j->as_double() : fallback;
  }
  std::int64_t get_int(const std::string& key,
                       std::int64_t fallback = 0) const {
    const Json* j = find(key);
    return j != nullptr ? j->as_int().value_or(fallback) : fallback;
  }
  bool get_bool(const std::string& key, bool fallback = false) const {
    const Json* j = find(key);
    return (j != nullptr && j->is_bool()) ? j->as_bool() : fallback;
  }

  /// Strict integer member read, for validating input: an absent member
  /// leaves *out as it is; a present one must be an integral number in
  /// [lo, hi] (by default all of T), or the read fails with *error naming
  /// the member and its valid range.
  template <class T>
  bool read_int(const std::string& key, T* out, std::string* error,
                std::type_identity_t<T> lo = std::numeric_limits<T>::min(),
                std::type_identity_t<T> hi =
                    std::numeric_limits<T>::max()) const {
    const Json* j = find(key);
    if (j == nullptr) return true;
    const std::optional<T> v = j->as_int<T>();
    if (!v.has_value() || *v < lo || *v > hi) {
      *error = key + " must be an integer in [" + std::to_string(lo) + ", " +
               std::to_string(hi) + "], got " + j->dump();
      return false;
    }
    *out = *v;
    return true;
  }

  /// Object member insert/update (converts a null value to an object).
  Json& operator[](const std::string& key) {
    if (is_null()) v_ = Object{};
    return std::get<Object>(v_)[key];
  }

  /// Compact single-line serialization (doubles as %.17g, NaN/Inf as
  /// null — JSON has no non-finite numbers). Never contains a newline,
  /// so a dumped value is always a valid wire line.
  std::string dump() const;

  /// Strict parse of exactly one JSON value (trailing garbage is an
  /// error). Nesting is capped at 64 levels. On failure returns nullopt
  /// and describes the problem in *error.
  static std::optional<Json> parse(std::string_view text,
                                   std::string* error = nullptr);

private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

/// `s` as a quoted JSON string literal — the codec's one string escaper,
/// for writers that stream JSON by hand instead of building a Json.
std::string json_quote(std::string_view s);

}  // namespace llp
