#ifndef KWDB_COMMON_CONCURRENT_TOPK_H_
#define KWDB_COMMON_CONCURRENT_TOPK_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "common/topk.h"

namespace kws {

/// Thread-safe bounded best-k collector: one mutex-guarded
/// `OrderedTopK<T, Better>` shard per worker plus a lock-free score
/// threshold for early-termination probes.
///
/// Determinism contract: `TakeSorted` returns the k best items under
/// `Better` out of *everything offered*, regardless of which shard each
/// item went to and of how offers interleaved. Each shard keeps the k
/// best of its own subset, so any item a full shard drops is ranked
/// below k items of that shard alone — it can never be in the global
/// top-k. This is what makes parallel CN execution bit-identical to the
/// serial path (see core/cn/search.cc).
///
/// `T` must expose a `double score` member equal to the `score` passed
/// to `Offer`, and `Better` must be a strict total order whose *primary*
/// key is that score, descending: `Better(a, b)` implies
/// a.score >= b.score. The threshold logic relies on both.
template <typename T, typename Better>
class ConcurrentTopK {
 public:
  /// `num_shards` must be positive. Use one shard per worker and pass the
  /// worker index to `Offer`, so shard mutexes are uncontended. `k == 0`
  /// rejects every offer and probe (the threshold starts at +infinity).
  ConcurrentTopK(size_t k, size_t num_shards)
      : k_(k),
        threshold_(k == 0 ? std::numeric_limits<double>::infinity()
                          : -std::numeric_limits<double>::infinity()) {
    shards_.reserve(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
      shards_.push_back(std::make_unique<Shard>(k));
    }
  }

  /// Offers `item`, whose primary sort key is `score`, to shard
  /// `shard_index % num_shards`. Thread-safe, including concurrent offers
  /// to the same shard. Returns true when the shard retained the item.
  bool Offer(size_t shard_index, double score, T item) {
    // An item strictly below the threshold is outranked by k offered
    // items; skip the locks. Ties must still be inserted — the tie-break
    // key is not part of the snapshot.
    if (score < threshold_.load(std::memory_order_acquire)) return false;
    Shard& shard = *shards_[shard_index % shards_.size()];
    bool kept = false;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      kept = shard.top.Offer(std::move(item));
    }
    // The score board tracks the k best scores across *all* shards, so
    // the threshold reaches the k-th best offered score — the same value
    // the serial OrderedTopK path terminates on — even when no single
    // shard ever fills.
    double board_worst = -std::numeric_limits<double>::infinity();
    {
      std::lock_guard<std::mutex> lock(board_mu_);
      board_.insert(score);
      if (board_.size() > k_) board_.erase(board_.begin());
      if (board_.size() == k_) board_worst = *board_.begin();
    }
    if (board_worst > -std::numeric_limits<double>::infinity()) {
      RaiseThreshold(board_worst);
    }
    return kept;
  }

  /// Conservative early-termination probe: true only when no item scoring
  /// `score` can possibly reach the final top-k. The threshold is a
  /// monotonically nondecreasing lower bound on the final k-th best
  /// score, so a producer whose remaining candidates are bounded by a
  /// rejected score may stop for good (the `kSparse` break).
  bool WouldReject(double score) const {
    return score < threshold_.load(std::memory_order_acquire);
  }

  /// The current threshold snapshot: -infinity until k items have been
  /// offered, then the k-th best offered score seen so far (+infinity
  /// when k == 0). Exposed for tests.
  double ThresholdScore() const {
    return threshold_.load(std::memory_order_acquire);
  }

  /// Merges the shards and returns the k best items, best-ranked first.
  /// Not thread-safe: call after all offering workers have joined.
  /// Empties the collector.
  std::vector<T> TakeSorted() {
    std::vector<T> all;
    for (auto& shard : shards_) {
      for (T& item : shard->top.TakeSorted()) all.push_back(std::move(item));
    }
    Better better;
    std::sort(all.begin(), all.end(), better);
    if (all.size() > k_) all.resize(k_);
    return all;
  }

 private:
  struct Shard {
    explicit Shard(size_t k) : top(k) {}
    std::mutex mu;  // kwslint: allow(mutex-style) -- struct member
    OrderedTopK<T, Better> top;
  };

  /// Lock-free max: the threshold only ever rises.
  void RaiseThreshold(double candidate) {
    double cur = threshold_.load(std::memory_order_relaxed);
    while (candidate > cur &&
           !threshold_.compare_exchange_weak(cur, candidate,
                                             std::memory_order_release,
                                             std::memory_order_relaxed)) {
    }
  }

  size_t k_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::mutex board_mu_;
  /// The k best scores offered so far (all shards combined); its minimum,
  /// once full, is the sharpest sound threshold.
  std::multiset<double> board_;
  std::atomic<double> threshold_;
};

}  // namespace kws

#endif  // KWDB_COMMON_CONCURRENT_TOPK_H_
