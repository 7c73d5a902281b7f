#include "rel/value.h"

#include <cmath>
#include <cstring>
#include <functional>
#include <sstream>

#include "common/hash.h"

namespace insightnotes::rel {

std::string_view ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return "BIGINT";
    case ValueType::kFloat64:
      return "DOUBLE";
    case ValueType::kString:
      return "TEXT";
  }
  return "?";
}

Result<double> Value::ToNumeric() const {
  switch (type()) {
    case ValueType::kInt64:
      return static_cast<double>(AsInt64());
    case ValueType::kFloat64:
      return AsFloat64();
    default:
      return Status::TypeError(std::string("value of type ") +
                               std::string(ValueTypeToString(type())) +
                               " is not numeric");
  }
}

Result<int> Value::Compare(const Value& other) const {
  // NULLs: equal to each other, before everything else.
  if (is_null() && other.is_null()) return 0;
  if (is_null()) return -1;
  if (other.is_null()) return 1;

  bool this_numeric = type() == ValueType::kInt64 || type() == ValueType::kFloat64;
  bool other_numeric =
      other.type() == ValueType::kInt64 || other.type() == ValueType::kFloat64;
  if (this_numeric && other_numeric) {
    if (type() == ValueType::kInt64 && other.type() == ValueType::kInt64) {
      int64_t a = AsInt64();
      int64_t b = other.AsInt64();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    double a = *ToNumeric();
    double b = *other.ToNumeric();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (type() == ValueType::kString && other.type() == ValueType::kString) {
    int c = AsString().compare(other.AsString());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  return Status::TypeError(std::string("cannot compare ") +
                           std::string(ValueTypeToString(type())) + " with " +
                           std::string(ValueTypeToString(other.type())));
}

bool Value::operator==(const Value& other) const {
  auto cmp = Compare(other);
  return cmp.ok() && *cmp == 0;
}

uint64_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9ae16a3b2f90404fULL;
    case ValueType::kInt64: {
      // Hash via the double representation so 5 == 5.0 implies equal hashes.
      double d = static_cast<double>(AsInt64());
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return Fnv1a64(&bits, sizeof(bits));
    }
    case ValueType::kFloat64: {
      double d = AsFloat64();
      if (d == 0.0) d = 0.0;  // Collapse -0.0 and +0.0.
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return Fnv1a64(&bits, sizeof(bits));
    }
    case ValueType::kString:
      return Fnv1a64(AsString());
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return std::to_string(AsInt64());
    case ValueType::kFloat64: {
      std::ostringstream os;
      os << AsFloat64();
      return os.str();
    }
    case ValueType::kString:
      return AsString();
  }
  return "?";
}

void Value::Serialize(std::string* out) const {
  out->push_back(static_cast<char>(type()));
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64: {
      int64_t v = AsInt64();
      out->append(reinterpret_cast<const char*>(&v), sizeof(v));
      break;
    }
    case ValueType::kFloat64: {
      double v = AsFloat64();
      out->append(reinterpret_cast<const char*>(&v), sizeof(v));
      break;
    }
    case ValueType::kString: {
      const std::string& s = AsString();
      auto len = static_cast<uint32_t>(s.size());
      out->append(reinterpret_cast<const char*>(&len), sizeof(len));
      out->append(s);
      break;
    }
  }
}

Result<Value> Value::Deserialize(std::string_view in, size_t* offset) {
  if (*offset >= in.size()) return Status::ParseError("value: truncated tag");
  auto tag = static_cast<ValueType>(in[*offset]);
  ++*offset;
  switch (tag) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kInt64: {
      if (*offset + sizeof(int64_t) > in.size()) {
        return Status::ParseError("value: truncated int64");
      }
      int64_t v;
      std::memcpy(&v, in.data() + *offset, sizeof(v));
      *offset += sizeof(v);
      return Value(v);
    }
    case ValueType::kFloat64: {
      if (*offset + sizeof(double) > in.size()) {
        return Status::ParseError("value: truncated double");
      }
      double v;
      std::memcpy(&v, in.data() + *offset, sizeof(v));
      *offset += sizeof(v);
      return Value(v);
    }
    case ValueType::kString: {
      if (*offset + sizeof(uint32_t) > in.size()) {
        return Status::ParseError("value: truncated string length");
      }
      uint32_t len;
      std::memcpy(&len, in.data() + *offset, sizeof(len));
      *offset += sizeof(len);
      if (*offset + len > in.size()) {
        return Status::ParseError("value: truncated string payload");
      }
      Value v(std::string(in.substr(*offset, len)));
      *offset += len;
      return v;
    }
  }
  return Status::ParseError("value: unknown type tag");
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

namespace {
int TypeClass(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kInt64:
    case ValueType::kFloat64:
      return 1;
    case ValueType::kString:
      return 2;
  }
  return 3;
}
}  // namespace

bool ValueLess::operator()(const Value& a, const Value& b) const {
  int ca = TypeClass(a);
  int cb = TypeClass(b);
  if (ca != cb) return ca < cb;
  auto cmp = a.Compare(b);
  // Same type class => Compare cannot fail.
  return cmp.ok() && *cmp < 0;
}

}  // namespace insightnotes::rel
