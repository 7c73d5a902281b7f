// Tuple: a row of Values, serializable into heap-file records.

#ifndef INSIGHTNOTES_REL_TUPLE_H_
#define INSIGHTNOTES_REL_TUPLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "rel/schema.h"
#include "rel/value.h"

namespace insightnotes::rel {

/// Stable identifier of a base-table row; annotations attach to it.
using RowId = uint64_t;
inline constexpr RowId kInvalidRowId = static_cast<RowId>(-1);

class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}

  size_t NumValues() const { return values_.size(); }
  const Value& ValueAt(size_t i) const { return values_[i]; }
  Value& MutableValueAt(size_t i) { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }

  void Append(Value v) { values_.push_back(std::move(v)); }

  /// Concatenation for joins.
  static Tuple Concat(const Tuple& left, const Tuple& right);

  /// Serialization: [count u16][value]*.
  void Serialize(std::string* out) const;
  static Result<Tuple> Deserialize(std::string_view in);
  /// Deserializes one tuple from `in` at `*offset`, advancing it past the
  /// tuple's bytes.
  static Result<Tuple> Deserialize(std::string_view in, size_t* offset);

  /// Hash/equality over all values (grouping, distinct).
  uint64_t Hash() const;
  bool operator==(const Tuple& other) const;

  /// "(1, swan, 3.2)".
  std::string ToString() const;

 private:
  std::vector<Value> values_;
};

}  // namespace insightnotes::rel

#endif  // INSIGHTNOTES_REL_TUPLE_H_
