#include "core/cn/tuple_set_cache.h"

#include <utility>

namespace kws::cn {

std::shared_ptr<const TermFrontier> BuildTermFrontier(
    const relational::Database& db, std::string_view term,
    const Deadline& deadline, trace::Tracer* tracer) {
  const size_t num_tables = db.num_tables();
  auto frontier = std::make_shared<TermFrontier>();
  frontier->tables.resize(num_tables);
  for (relational::TableId t = 0; t < num_tables; ++t) {
    // Cancellation point per table: a mid-build expiry discards the
    // partial frontier entirely.
    if (deadline.Expired()) return nullptr;
    const text::PostingList& plist = db.TextIndex(t).GetPostings(term);
    frontier->df += plist.size();
    TermFrontier::TableFrontier& tf = frontier->tables[t];
    tf.rows.assign(plist.docs().begin(), plist.docs().end());
    tf.tfs.assign(plist.tfs().begin(), plist.tfs().end());
    frontier->num_rows += plist.size();
  }
  trace::AddCounter(tracer, "cn.frontier.built", 1);
  trace::AddCounter(tracer, "cn.frontier.rows", frontier->num_rows);
  return frontier;
}

TupleSetCache::TupleSetCache(const relational::Database& db, size_t capacity)
    : db_(db), capacity_(capacity) {}

std::shared_ptr<const TermFrontier> TupleSetCache::Get(
    std::string_view term, const Deadline& deadline, trace::Tracer* tracer) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(term);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      hits_.fetch_add(1, std::memory_order_relaxed);
      // The tracer belongs to the calling query, not the shared cache, so
      // annotating under the lock is safe and race-free.
      trace::AddCounter(tracer, "cn.tuple_cache.hits", 1);
      return it->second->frontier;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  trace::AddCounter(tracer, "cn.tuple_cache.misses", 1);

  // Build outside the lock: frontier construction walks every table's
  // postings and must not serialize concurrent queries on other terms.
  std::shared_ptr<const TermFrontier> frontier =
      BuildTermFrontier(db_, term, deadline, tracer);
  // Deadline-truncated builds are never cached (nor returned as data).
  if (frontier == nullptr || capacity_ == 0) return frontier;

  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(term);
  if (it != index_.end()) {
    // Another thread built and inserted it first; keep the cached one so
    // all holders share one frontier.
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->frontier;
  }
  lru_.push_front(Entry{std::string(term), frontier});
  index_.emplace(lru_.front().term, lru_.begin());
  insertions_.fetch_add(1, std::memory_order_relaxed);
  while (index_.size() > capacity_) {  // LRU eviction, bounded by one overflow entry -- kwslint: allow(deadline-loop)
    index_.erase(lru_.back().term);
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  return frontier;
}

size_t TupleSetCache::Invalidate(const std::vector<std::string>& terms) {
  size_t dropped = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& term : terms) {
    auto it = index_.find(term);
    if (it == index_.end()) continue;
    lru_.erase(it->second);
    index_.erase(it);
    ++dropped;
  }
  invalidations_.fetch_add(dropped, std::memory_order_relaxed);
  return dropped;
}

size_t TupleSetCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

TupleSetCache::Stats TupleSetCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace kws::cn
