#include "txt/tfidf.h"

#include <algorithm>
#include <cmath>

namespace insightnotes::txt {

namespace {
constexpr double kEpsilon = 1e-12;
}  // namespace

SparseVector SparseVector::FromTermIds(std::span<const TermId> terms) {
  std::vector<TermId> sorted(terms.begin(), terms.end());
  std::sort(sorted.begin(), sorted.end());
  // Exact capacity: a committed vector lives as long as its instance.
  size_t distinct = 0;
  for (size_t i = 0; i < sorted.size(); ++i) distinct += i == 0 || sorted[i] != sorted[i - 1];
  SparseVector v;
  v.entries_.reserve(distinct);
  for (size_t i = 0; i < sorted.size();) {
    size_t run = i + 1;
    while (run < sorted.size() && sorted[run] == sorted[i]) ++run;
    v.entries_.push_back({sorted[i], static_cast<double>(run - i)});
    i = run;
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

double SparseVector::Dot(const SparseVector& other) const { return view().Dot(other.view()); }

double SparseVector::Norm() const { return view().Norm(); }

double SparseVector::Cosine(const SparseVector& other) const {
  return CosineWithNorm(other, Norm());
}

double SparseVector::CosineWithNorm(const SparseVector& other, double norm) const {
  return view().CosineWithNorms(other.view(), norm, other.Norm());
}

SparseVector SparseVector::Normalized() const {
  SparseVector out = *this;
  double n = Norm();
  if (n < kEpsilon) return out;
  for (Entry& e : out.entries_) e.value /= n;
  return out;
}

double SparseView::Dot(SparseView other) const {
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

double SparseView::Norm() const {
  double sum = 0.0;
  for (const TermWeight& e : entries_) sum += e.value * e.value;
  return std::sqrt(sum);
}

double SparseView::CosineWithNorms(SparseView other, double norm, double other_norm) const {
  if (norm < kEpsilon || other_norm < kEpsilon) return 0.0;
  return CosineFromDot(Dot(other), norm, other_norm);
}

double SparseView::CosineFromDot(double dot, double norm, double other_norm) {
  if (norm < kEpsilon || other_norm < kEpsilon) return 0.0;
  return std::clamp(dot / (norm * other_norm), 0.0, 1.0);
}

void AppendSum(SparseView a, SparseView b, std::vector<TermWeight>* out) {
  std::span<const TermWeight> x = a.entries();
  std::span<const TermWeight> y = b.entries();
  size_t i = 0;
  size_t j = 0;
  while (i < x.size() || j < y.size()) {
    if (j >= y.size() || (i < x.size() && x[i].term < y[j].term)) {
      out->push_back(x[i++]);
    } else if (i >= x.size() || y[j].term < x[i].term) {
      out->push_back(y[j++]);
    } else {
      double v = x[i].value + y[j].value;
      if (std::fabs(v) >= kEpsilon) out->push_back({x[i].term, v});
      ++i;
      ++j;
    }
  }
}

void SubtractFromTail(std::vector<TermWeight>* entries, size_t begin, SparseView part) {
  auto term_less = [](const TermWeight& e, TermId t) { return e.term < t; };
  auto it = entries->begin() + static_cast<std::ptrdiff_t>(begin);
  for (const TermWeight& e : part.entries()) {
    it = std::lower_bound(it, entries->end(), e.term, term_less);
    if (it == entries->end() || it->term != e.term) {
      it = entries->insert(it, TermWeight{e.term, -e.value});
    } else {
      it->value -= e.value;
    }
  }
}

void DropZeros(std::vector<TermWeight>* entries, size_t begin) {
  entries->erase(std::remove_if(entries->begin() + static_cast<std::ptrdiff_t>(begin),
                                entries->end(),
                                [](const TermWeight& e) { return std::fabs(e.value) < kEpsilon; }),
                 entries->end());
}

}  // namespace insightnotes::txt
