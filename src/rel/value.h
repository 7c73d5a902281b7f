// Value: the dynamically-typed cell value of the relational engine.

#ifndef INSIGHTNOTES_REL_VALUE_H_
#define INSIGHTNOTES_REL_VALUE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>

#include "common/result.h"
#include "common/status.h"

namespace insightnotes::rel {

enum class ValueType : uint8_t {
  kNull = 0,
  kInt64 = 1,
  kFloat64 = 2,
  kString = 3,
};

std::string_view ValueTypeToString(ValueType type);

/// A nullable SQL value: NULL, BIGINT, DOUBLE or TEXT. Ordered comparisons
/// between numeric types coerce int to double; comparing a string with a
/// number is a type error.
class Value {
 public:
  /// NULL value.
  Value() : data_(std::monostate{}) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  explicit Value(std::string_view v) : data_(std::string(v)) {}
  explicit Value(const char* v) : data_(std::string(v)) {}

  static Value Null() { return Value(); }

  ValueType type() const {
    return static_cast<ValueType>(data_.index());
  }
  bool is_null() const { return type() == ValueType::kNull; }

  /// Typed accessors; the value must hold the requested type.
  int64_t AsInt64() const { return std::get<int64_t>(data_); }
  double AsFloat64() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }

  /// Numeric value as double (int coerced); TypeError for strings/null.
  Result<double> ToNumeric() const;

  /// SQL-style three-valued comparison is simplified to: NULL equals NULL
  /// and sorts first (needed for grouping/distinct semantics).
  /// Returns <0, 0, >0; TypeError on string-vs-number comparisons.
  Result<int> Compare(const Value& other) const;

  /// Equality consistent with Compare()==0; incompatible types are unequal.
  bool operator==(const Value& other) const;

  /// Hash consistent with operator== (numeric 5 and 5.0 hash alike).
  uint64_t Hash() const;

  /// Display form: NULL, 42, 3.14, or the raw string.
  std::string ToString() const;

  /// Binary serialization (appends to `out`): [type u8][payload].
  void Serialize(std::string* out) const;

  /// Deserializes one value from `in` advancing `*offset`.
  static Result<Value> Deserialize(std::string_view in, size_t* offset);

 private:
  std::variant<std::monostate, int64_t, double, std::string> data_;
};

std::ostream& operator<<(std::ostream& os, const Value& v);

/// Total order over Values usable as a map comparator: orders first by type
/// class (NULL < numeric < string), then by value within the class. This
/// sidesteps the TypeError a raw Value::Compare would raise for mixed types.
struct ValueLess {
  bool operator()(const Value& a, const Value& b) const;
};

/// Hash functor/equality pair for unordered containers keyed by Value.
struct ValueHash {
  size_t operator()(const Value& v) const { return static_cast<size_t>(v.Hash()); }
};
struct ValueEq {
  bool operator()(const Value& a, const Value& b) const { return a == b; }
};

}  // namespace insightnotes::rel

#endif  // INSIGHTNOTES_REL_VALUE_H_
