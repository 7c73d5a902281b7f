#include "rel/tuple.h"

#include <cstring>

#include "common/hash.h"

namespace insightnotes::rel {

Tuple Tuple::Concat(const Tuple& left, const Tuple& right) {
  std::vector<Value> values = left.values_;
  values.insert(values.end(), right.values_.begin(), right.values_.end());
  return Tuple(std::move(values));
}

void Tuple::Serialize(std::string* out) const {
  auto count = static_cast<uint16_t>(values_.size());
  out->append(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const Value& v : values_) v.Serialize(out);
}

Result<Tuple> Tuple::Deserialize(std::string_view in) {
  size_t offset = 0;
  return Deserialize(in, &offset);
}

Result<Tuple> Tuple::Deserialize(std::string_view in, size_t* offset) {
  if (*offset + sizeof(uint16_t) > in.size()) {
    return Status::ParseError("tuple: truncated header");
  }
  uint16_t count;
  std::memcpy(&count, in.data() + *offset, sizeof(count));
  *offset += sizeof(count);
  std::vector<Value> values;
  values.reserve(count);
  for (uint16_t i = 0; i < count; ++i) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(Value v, Value::Deserialize(in, offset));
    values.push_back(std::move(v));
  }
  return Tuple(std::move(values));
}

uint64_t Tuple::Hash() const {
  uint64_t h = 0x51ed270b9f442d22ULL;
  for (const Value& v : values_) {
    HashCombine(&h, v.Hash());
  }
  return h;
}

bool Tuple::operator==(const Tuple& other) const {
  if (values_.size() != other.values_.size()) return false;
  for (size_t i = 0; i < values_.size(); ++i) {
    if (!(values_[i] == other.values_[i])) return false;
  }
  return true;
}

std::string Tuple::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    out += values_[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace insightnotes::rel
