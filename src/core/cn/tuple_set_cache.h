#ifndef KWDB_CORE_CN_TUPLE_SET_CACHE_H_
#define KWDB_CORE_CN_TUPLE_SET_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/deadline.h"
#include "common/strings.h"
#include "common/trace.h"
#include "relational/database.h"

namespace kws::cn {

/// The query-independent slice of a keyword's tuple sets: per table, the
/// matching rows (ascending) with their term frequencies, plus the
/// keyword's document frequency. Everything query-dependent — keyword
/// masks, per-row scores, the mask partition — is recomputed per query by
/// `TupleSets` from these frontiers with the original arithmetic, so
/// cached and uncached queries produce bit-identical responses.
///
/// The frontier deliberately stores the raw document frequency, not the
/// IDF: the smoothed IDF `log(1 + total_rows / (1 + df))` depends on the
/// database's *total* row count, which every insert changes even for
/// terms the insert never touches. `TupleSets` derives the IDF at build
/// time from `df` and the live `Database::TotalRows()`, so a cached
/// frontier of an untouched term stays exactly valid across writes and
/// term-targeted invalidation (`TupleSetCache::Invalidate`) is sound.
struct TermFrontier {
  /// Matching rows (with term frequencies) of one table.
  struct TableFrontier {
    std::vector<relational::RowId> rows;
    std::vector<uint32_t> tfs;  // parallel to rows
  };
  /// Indexed by TableId.
  std::vector<TableFrontier> tables;
  /// Document frequency: matching documents summed over all tables.
  size_t df = 0;
  /// Total matching rows across tables (for capacity accounting / stats).
  size_t num_rows = 0;
};

/// Builds the frontier of `term` directly from the database's per-table
/// text indexes. Polls `deadline` between tables and returns nullptr when
/// it expires mid-build (the partial frontier is discarded — a truncated
/// frontier must never be observed, let alone cached). A non-null `tracer`
/// records the rows materialized (`cn.frontier.rows`/`cn.frontier.built`).
std::shared_ptr<const TermFrontier> BuildTermFrontier(
    const relational::Database& db, std::string_view term,
    const Deadline& deadline = {}, trace::Tracer* tracer = nullptr);

/// A term -> TermFrontier LRU cache shared across CNs within a query and
/// across queries in `kws::serve`. The database is append-only but NOT
/// immutable: `relational::Database::ApplyInserts` grows postings in
/// place, so a resident frontier of a touched term goes stale the moment
/// a batch lands. The invalidation protocol (see serve/server.h for the
/// full sequence) is term-targeted: after each applied batch the owner
/// calls `Invalidate` with the batch's `WriteReport::touched_terms`,
/// which drops exactly those entries. Untouched entries remain exactly
/// valid — an append never changes existing rows or tfs, and IDFs are
/// derived per query from the live row totals (see TermFrontier::df) —
/// so nothing else needs to be dropped. Eviction otherwise remains the
/// capacity bound only.
///
/// Thread-safe: lookups and insertions take a mutex, frontiers are
/// published as shared_ptr<const> so readers hold them lock-free, and
/// builds run outside the lock (two threads may race to build the same
/// term; the loser's frontier is dropped in favor of the cached one).
///
/// Deadline safety: a build cut short by an expired deadline yields
/// nullptr and is NOT inserted — the same complete-answers-only rule the
/// serve result cache follows.
class TupleSetCache {
 public:
  /// Aggregate usage counters (all relaxed atomics).
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t insertions = 0;
    /// Entries dropped by `Invalidate` (write-driven, not capacity).
    uint64_t invalidations = 0;
  };

  /// `capacity` bounds the number of cached terms; 0 disables caching
  /// (every Get builds, nothing is stored).
  TupleSetCache(const relational::Database& db, size_t capacity);

  TupleSetCache(const TupleSetCache&) = delete;
  TupleSetCache& operator=(const TupleSetCache&) = delete;

  /// The frontier of `term`, from cache or built on demand. Returns
  /// nullptr only when `deadline` expired mid-build. A non-null `tracer`
  /// (always the caller's per-query tracer, never shared) attributes the
  /// lookup (`cn.tuple_cache.hits` / `cn.tuple_cache.misses`) to the
  /// query's current span.
  std::shared_ptr<const TermFrontier> Get(std::string_view term,
                                          const Deadline& deadline = {},
                                          trace::Tracer* tracer = nullptr);

  /// Drops the cached frontiers of exactly `terms` (terms not resident
  /// are ignored); returns how many entries were dropped. Called by the
  /// serve layer with a write batch's `touched_terms` after the batch has
  /// been applied, so the next lookup of an affected term rebuilds its
  /// frontier from the updated postings. Thread-safe; in-flight readers
  /// holding a dropped frontier keep their shared_ptr alive, which is
  /// staleness-safe for them (their query was keyed before the write's
  /// epoch bump — see the protocol in serve/server.h).
  size_t Invalidate(const std::vector<std::string>& terms);

  /// Number of cached terms.
  size_t size() const;

  size_t capacity() const { return capacity_; }
  const relational::Database& db() const { return db_; }

  /// Hit/miss/eviction counters accumulated since construction.
  Stats stats() const;

 private:
  struct Entry {
    std::string term;
    std::shared_ptr<const TermFrontier> frontier;
  };
  using LruList = std::list<Entry>;

  const relational::Database& db_;
  const size_t capacity_;

  mutable std::mutex mu_;
  /// Most-recently-used first.
  LruList lru_;
  std::unordered_map<std::string, LruList::iterator, StringHash,
                     std::equal_to<>>
      index_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> invalidations_{0};
};

}  // namespace kws::cn

#endif  // KWDB_CORE_CN_TUPLE_SET_CACHE_H_
