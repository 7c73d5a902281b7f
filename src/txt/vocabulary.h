// Vocabulary: interns term strings to dense integer ids, so the mining
// kernels can work on integer term ids.

#ifndef INSIGHTNOTES_TXT_VOCABULARY_H_
#define INSIGHTNOTES_TXT_VOCABULARY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace insightnotes::txt {

using TermId = uint32_t;
inline constexpr TermId kInvalidTermId = static_cast<TermId>(-1);

/// Transparent string hash: a map keyed by std::string is probed with a
/// std::string_view, building no string.
struct TermHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const { return std::hash<std::string_view>{}(s); }
};

/// Append-only term dictionary. Term ids are dense and stable.
class Vocabulary {
 public:
  /// Returns the id for `term`, adding it if unseen.
  TermId GetOrAdd(std::string_view term);

  /// Returns the id for `term` or kInvalidTermId if unseen.
  TermId Lookup(std::string_view term) const;

  /// Inverse mapping; `id` must be valid.
  const std::string& TermOf(TermId id) const { return terms_[id]; }

  size_t size() const { return terms_.size(); }

 private:
  std::unordered_map<std::string, TermId, TermHash, std::equal_to<>> index_;
  std::vector<std::string> terms_;
};

}  // namespace insightnotes::txt

#endif  // INSIGHTNOTES_TXT_VOCABULARY_H_
