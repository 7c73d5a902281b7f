#include "txt/vocabulary.h"

#include <cmath>

namespace insightnotes::txt {

TermId Vocabulary::GetOrAdd(std::string_view term) {
  auto it = index_.find(term);
  if (it != index_.end()) return it->second;
  TermId id = static_cast<TermId>(terms_.size());
  terms_.emplace_back(term);
  doc_freq_.push_back(0);
  index_.emplace(terms_.back(), id);
  return id;
}

TermId Vocabulary::Lookup(std::string_view term) const {
  auto it = index_.find(term);
  return it == index_.end() ? kInvalidTermId : it->second;
}

void Vocabulary::BumpDocumentFrequency(TermId id) { ++doc_freq_[id]; }

double Vocabulary::Idf(TermId id) const {
  double n = static_cast<double>(num_documents_);
  double df = static_cast<double>(doc_freq_[id]);
  return std::log((n + 1.0) / (df + 1.0)) + 1.0;
}

}  // namespace insightnotes::txt
