// One-pass set operations on ascending, duplicate-free sequences keyed by
// an id. The summary algebra restricts and merges whole id sets with these
// merge walks instead of one binary search and one shift per id; the walks
// gallop, so a few ids against a long list stay logarithmic.

#ifndef INSIGHTNOTES_COMMON_SORTED_IDS_H_
#define INSIGHTNOTES_COMMON_SORTED_IDS_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace insightnotes {

/// Key of a plain id sequence: the element itself.
struct IdentityKey {
  template <typename T>
  const T& operator()(const T& value) const {
    return value;
  }
};

/// First index at or after `from` whose key is not below `id`. A galloping
/// search: walking k ascending ids through n items costs O(k log(n / k)),
/// so a handful of ids does not pay for a scan of a long list.
template <typename Item, typename Id, typename Key = IdentityKey>
size_t GallopSorted(const std::vector<Item>& items, size_t from, const Id& id,
                    Key key = {}) {
  size_t lo = from;
  size_t hi = from;
  for (size_t step = 1; hi < items.size() && key(items[hi]) < id; step *= 2) {
    lo = hi + 1;
    hi += step;
  }
  hi = std::min(hi, items.size());
  auto it = std::lower_bound(items.begin() + static_cast<std::ptrdiff_t>(lo),
                             items.begin() + static_cast<std::ptrdiff_t>(hi), id,
                             [&key](const Item& item, const Id& v) { return key(item) < v; });
  return static_cast<size_t>(it - items.begin());
}

/// True if some element of `items` has a key in `ids`. Both ascending.
template <typename Item, typename Id, typename Key = IdentityKey>
bool IntersectsSorted(const std::vector<Item>& items, std::span<const Id> ids,
                      Key key = {}) {
  size_t i = 0;
  for (const Id& id : ids) {
    i = GallopSorted(items, i, id, key);
    if (i == items.size()) return false;
    if (key(items[i]) == id) return true;
  }
  return false;
}

/// Unions `from` into `into`. An element whose key is on both sides keeps
/// `into`'s copy. Both ascending. In place: one galloping pass counts the
/// new keys, then one backward merge moves each of `into`'s elements at
/// most once, so a few incoming elements cost no allocation beyond the
/// vector's own growth.
template <typename Item, typename Key = IdentityKey>
void UnionSorted(std::vector<Item>* into, const std::vector<Item>& from, Key key = {}) {
  size_t fresh = 0;
  size_t at = 0;
  for (const Item& item : from) {
    at = GallopSorted(*into, at, key(item), key);
    if (at == into->size() || !(key((*into)[at]) == key(item))) ++fresh;
  }
  if (fresh == 0) return;
  size_t i = into->size();  // Unplaced elements of `into`: [0, i).
  size_t j = from.size();   // Unplaced elements of `from`: [0, j).
  into->resize(into->size() + fresh);
  // While a new element remains unplaced, the write position w stays above
  // i, so no element is ever moved onto itself.
  for (size_t w = into->size(); w > i;) {
    const Item& incoming = from[j - 1];
    if (i > 0 && !(key((*into)[i - 1]) < key(incoming))) {
      if (key((*into)[i - 1]) == key(incoming)) --j;  // Shared: `into` keeps its copy.
      (*into)[--w] = std::move((*into)[--i]);
    } else {
      (*into)[--w] = incoming;
      --j;
    }
  }
}

}  // namespace insightnotes

#endif  // INSIGHTNOTES_COMMON_SORTED_IDS_H_
