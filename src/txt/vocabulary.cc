#include "txt/vocabulary.h"

namespace insightnotes::txt {

TermId Vocabulary::GetOrAdd(std::string_view term) {
  auto it = index_.find(term);
  if (it != index_.end()) return it->second;
  TermId id = static_cast<TermId>(terms_.size());
  terms_.emplace_back(term);
  index_.emplace(terms_.back(), id);
  return id;
}

TermId Vocabulary::Lookup(std::string_view term) const {
  auto it = index_.find(term);
  return it == index_.end() ? kInvalidTermId : it->second;
}

}  // namespace insightnotes::txt
