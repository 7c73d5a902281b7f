#include "txt/tfidf.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace insightnotes::txt {

namespace {
constexpr double kEpsilon = 1e-12;
}  // namespace

SparseVector SparseVector::FromTokens(const std::vector<std::string>& tokens,
                                      Vocabulary* vocab) {
  std::map<TermId, double> counts;
  for (const std::string& token : tokens) {
    counts[vocab->GetOrAdd(token)] += 1.0;
  }
  SparseVector v;
  v.entries_.reserve(counts.size());
  for (const auto& [term, value] : counts) {
    v.entries_.push_back({term, value});
  }
  return v;
}

SparseVector SparseVector::FromTokensConst(const std::vector<std::string>& tokens,
                                           const Vocabulary& vocab) {
  std::map<TermId, double> counts;
  for (const std::string& token : tokens) {
    TermId id = vocab.Lookup(token);
    if (id != kInvalidTermId) counts[id] += 1.0;
  }
  SparseVector v;
  v.entries_.reserve(counts.size());
  for (const auto& [term, value] : counts) {
    v.entries_.push_back({term, value});
  }
  return v;
}

void SparseVector::Set(TermId id, double value) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const Entry& e, TermId t) { return e.term < t; });
  if (it != entries_.end() && it->term == id) {
    if (std::fabs(value) < kEpsilon) {
      entries_.erase(it);
    } else {
      it->value = value;
    }
  } else if (std::fabs(value) >= kEpsilon) {
    entries_.insert(it, {id, value});
  }
}

double SparseVector::Get(TermId id) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const Entry& e, TermId t) { return e.term < t; });
  return (it != entries_.end() && it->term == id) ? it->value : 0.0;
}

void SparseVector::AddScaled(const SparseVector& other, double scale) {
  std::vector<Entry> merged;
  merged.reserve(entries_.size() + other.entries_.size());
  size_t i = 0;
  size_t j = 0;
  while (i < entries_.size() || j < other.entries_.size()) {
    if (j >= other.entries_.size() ||
        (i < entries_.size() && entries_[i].term < other.entries_[j].term)) {
      merged.push_back(entries_[i++]);
    } else if (i >= entries_.size() || other.entries_[j].term < entries_[i].term) {
      double v = other.entries_[j].value * scale;
      if (std::fabs(v) >= kEpsilon) merged.push_back({other.entries_[j].term, v});
      ++j;
    } else {
      double v = entries_[i].value + other.entries_[j].value * scale;
      if (std::fabs(v) >= kEpsilon) merged.push_back({entries_[i].term, v});
      ++i;
      ++j;
    }
  }
  entries_ = std::move(merged);
}

void SparseVector::Subtract(const SparseVector& part) {
  auto term_less = [](const Entry& e, TermId t) { return e.term < t; };
  bool zeroed = false;
  auto it = entries_.begin();
  for (const Entry& e : part.entries_) {
    it = std::lower_bound(it, entries_.end(), e.term, term_less);
    if (it == entries_.end() || it->term != e.term) {
      it = entries_.insert(it, Entry{e.term, -e.value});
    } else {
      it->value -= e.value;
      zeroed |= std::fabs(it->value) < kEpsilon;
    }
  }
  if (zeroed) {
    std::erase_if(entries_, [](const Entry& e) { return std::fabs(e.value) < kEpsilon; });
  }
}

double SparseVector::Dot(const SparseVector& other) const {
  double sum = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < entries_.size() && j < other.entries_.size()) {
    if (entries_[i].term < other.entries_[j].term) {
      ++i;
    } else if (other.entries_[j].term < entries_[i].term) {
      ++j;
    } else {
      sum += entries_[i].value * other.entries_[j].value;
      ++i;
      ++j;
    }
  }
  return sum;
}

double SparseVector::Norm() const {
  double sum = 0.0;
  for (const Entry& e : entries_) sum += e.value * e.value;
  return std::sqrt(sum);
}

double SparseVector::Cosine(const SparseVector& other) const {
  return CosineWithNorm(other, Norm());
}

double SparseVector::CosineWithNorm(const SparseVector& other, double norm) const {
  double other_norm = other.Norm();
  if (norm < kEpsilon || other_norm < kEpsilon) return 0.0;
  double c = Dot(other) / (norm * other_norm);
  return std::clamp(c, 0.0, 1.0);
}

SparseVector SparseVector::Normalized() const {
  SparseVector out = *this;
  double n = Norm();
  if (n < kEpsilon) return out;
  for (Entry& e : out.entries_) e.value /= n;
  return out;
}

}  // namespace insightnotes::txt
