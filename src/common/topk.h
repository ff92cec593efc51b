#ifndef KWDB_COMMON_TOPK_H_
#define KWDB_COMMON_TOPK_H_

#include <algorithm>
#include <cstddef>
#include <queue>
#include <utility>
#include <vector>

namespace kws {

/// Bounded best-k collector under a caller-supplied strict total order:
/// `Better(a, b)` is true when `a` ranks strictly above `b`, and every
/// pair of distinct items must be ordered. The retained set and the
/// `TakeSorted` output are pure functions of the *multiset* of offered
/// items — independent of offer order. Every ranked answer in the
/// library collects through one of these, so no top-k depends on the
/// order its candidates were visited in; it is also what lets the
/// parallel CN search return bit-identical results to the serial path
/// (common/concurrent_topk.h merges one of these per shard).
template <typename T, typename Better>
class OrderedTopK {
 public:
  /// `k == 0` rejects every offer and probe.
  explicit OrderedTopK(size_t k) : k_(k) {}

  /// Keeps `item` iff the collector is not yet full or `item` ranks above
  /// the current worst retained item (which is then evicted).
  bool Offer(T item) {
    if (WouldReject(item)) return false;
    if (Full()) heap_.pop();
    heap_.push(std::move(item));
    return true;
  }

  /// True when `probe` could not enter: full and `probe` does not rank
  /// above the worst retained item. For sound early termination, pass the
  /// *best-ranked* hypothetical item a producer could still generate
  /// (e.g. a score upper bound with the smallest possible tie-break key).
  bool WouldReject(const T& probe) const {
    return Full() && (heap_.empty() || !better_(probe, heap_.top()));
  }

  bool Full() const { return heap_.size() >= k_; }
  size_t size() const { return heap_.size(); }

  /// The worst retained item; only meaningful when non-empty.
  const T& Worst() const { return heap_.top(); }

  /// Extracts the retained items, best-ranked first. Empties the
  /// collector.
  std::vector<T> TakeSorted() {
    std::vector<T> out;
    out.reserve(heap_.size());
    while (!heap_.empty()) {
      out.push_back(heap_.top());
      heap_.pop();
    }
    std::sort(out.begin(), out.end(), better_);
    return out;
  }

 private:
  size_t k_;
  /// priority_queue keeps the Compare-maximum on top; with Compare =
  /// Better ("ranks above"), the top is the worst-ranked retained item.
  Better better_;
  std::priority_queue<T, std::vector<T>, Better> heap_;
};

}  // namespace kws

#endif  // KWDB_COMMON_TOPK_H_
