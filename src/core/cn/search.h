#ifndef KWDB_CORE_CN_SEARCH_H_
#define KWDB_CORE_CN_SEARCH_H_

#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/trace.h"
#include "core/cn/candidate_network.h"
#include "core/cn/execute.h"
#include "core/cn/tuple_sets.h"
#include "relational/database.h"

namespace kws::cn {

/// Top-k evaluation strategies over the enumerated CNs (DISCOVER2,
/// Hristidis et al. VLDB 03; tutorial slide 116).
enum class Strategy {
  /// Evaluate every CN fully, then sort.
  kNaive,
  /// Evaluate CNs in decreasing score-bound order; stop as soon as the
  /// next CN's bound cannot beat the current k-th result.
  kSparse,
  /// One shared priority queue of candidate tuple combinations across all
  /// CNs, verified lazily (the global-pipeline idea).
  kGlobalPipeline,
};

/// Stable display name for a search strategy (e.g. "SingleTopK").
const char* StrategyToString(Strategy s);

/// A final ranked answer.
struct SearchResult {
  /// Index into the CN list returned alongside the results.
  size_t cn_index = 0;
  std::vector<relational::TupleId> tuples;  // one per CN node
  double score = 0;
};

/// The deterministic result order: score descending, then cn_index
/// ascending, then tuples ascending (lexicographic). This is a strict
/// total order over distinct results, so the ranked list — ties included
/// — is a pure function of the result *set*: identical across the three
/// strategies, every thread count and every shard count, which is what
/// the brute-force oracle tests (tests/cn_parallel_test.cc) enforce.
struct SearchResultOrder {
  bool operator()(const SearchResult& a, const SearchResult& b) const {
    if (a.score != b.score) return a.score > b.score;
    if (a.cn_index != b.cn_index) return a.cn_index < b.cn_index;
    return a.tuples < b.tuples;
  }
};

/// Tuning knobs for candidate-network keyword search.
struct SearchOptions {
  size_t k = 10;
  size_t max_cn_size = 5;
  Strategy strategy = Strategy::kSparse;
  /// Cooperative query budget, threaded through tuple-set construction,
  /// CN enumeration and every evaluation strategy; on expiry the search
  /// stops and returns the best results found so far, with
  /// `SearchStats::deadline_hit` set.
  Deadline deadline = {};
  /// Optional shared term -> tuple-set frontier cache. Not owned; must
  /// outlive the search. Results are identical with or without it.
  TupleSetCache* tuple_cache = nullptr;
  /// Worker threads for CN evaluation. Every strategy is one loop over
  /// (worker w, stride n): worker w owns items i with i % n == w. 1 (the
  /// default) runs the same loop inline on the calling thread into a
  /// private top-k — no pool, no per-worker tracers. n > 1 evaluates
  /// independent CNs (for kGlobalPipeline: candidate combinations)
  /// concurrently over the shared tuple sets into a `ConcurrentTopK`.
  /// Results are bit-identical for every thread count; the work counters
  /// in SearchStats stay exact sums of the work done, but under kSparse /
  /// kGlobalPipeline how much work the shared score threshold prunes may
  /// vary with thread count.
  size_t num_threads = 1;
  /// Models the per-CN backend round-trip a DISCOVER-style deployment
  /// pays against its RDBMS (one SQL statement per CN): each CN
  /// evaluation sleeps this long before joining. Its users are E21.1
  /// (worker-pool overlap) and E23 (scatter overlap across shards); the
  /// serving layer never sets it. 0 (the default) disables the
  /// simulation.
  uint64_t simulated_cn_io_micros = 0;
  /// Optional per-query execution tracer (not owned; must outlive the
  /// search). When set, the search wraps each phase in spans
  /// (`cn.tuple_sets`, `cn.enumerate`, `cn.execute.<strategy>`,
  /// `cn.topk`) with work counters; kNaive additionally gets one
  /// `cn.eval` span per CN, merged deterministically from the workers
  /// when there are several. Span *structure* (names, nesting, events) is
  /// independent of `num_threads` for every strategy; under kSparse /
  /// kGlobalPipeline the aggregate counter *values* may vary with thread
  /// count exactly like the SearchStats they mirror.
  trace::Tracer* tracer = nullptr;
};

/// Counters for the E2 benchmark. `Search` value-initializes the caller's
/// struct on entry and fills it on *every* exit path — including an empty
/// query, empty tuple sets and an immediately-expired deadline — so a
/// reused stats object never carries values from a previous search.
struct SearchStats {
  size_t cns_enumerated = 0;
  /// CNs actually admitted to evaluation: joined (fully or partially) by
  /// kNaive/kSparse, or entered into the combination queue by
  /// kGlobalPipeline. A CN whose tuple-set list turns out empty is dead
  /// and never counts, even when earlier keyword nodes had rows.
  size_t cns_evaluated = 0;
  uint64_t results_materialized = 0;
  uint64_t join_lookups = 0;
  uint64_t candidates_verified = 0;  // pipeline combination checks
  /// True when the deadline cut the search short (results are partial).
  bool deadline_hit = false;
};

/// Where an evaluation loop sends its results. Each strategy is written
/// once, as a loop over (worker w, stride n) that asks the collector about
/// every item's score bound and offers it every result. `EvaluateCns`
/// plugs in a private exact top-k at one worker and a shared
/// `ConcurrentTopK` at several; a caller with its own selection (the
/// `kws::shard` gather) passes its collector to `EvaluateCnsInto`. With
/// more than one worker both methods are called concurrently.
class ResultCollector {
 public:
  /// What a loop does with its next item.
  enum class Verdict {
    kEvaluate,  // evaluate the item
    kSkip,      // drop this item, keep scanning
    kStop,      // drop this item and everything the worker still owns
  };

  /// The verdict for an item of CN `cn_index` whose results score at most
  /// `bound`. kSparse and kGlobalPipeline ask before every item, scanning
  /// in bound-descending order; kNaive never asks. A stop must be sound:
  /// no result scoring at most `bound` may belong in the final answer.
  virtual Verdict Admit(size_t cn_index, double bound) const = 0;

  /// Takes one result produced by worker `worker` (< num_threads).
  virtual void Offer(size_t worker, SearchResult result) = 0;

 protected:
  /// Collectors are owned by their callers, never deleted through this
  /// interface.
  ~ResultCollector() = default;
};

/// Evaluates an already-enumerated CN list over already-built tuple sets
/// and returns the ranked top-k — the back half of `CnKeywordSearch::
/// Search`, exposed so a caller can enumerate once and evaluate the same
/// list against other tuple-set builds. Honors `options.strategy`,
/// `options.k`, `options.num_threads`, `options.deadline` and
/// `options.tracer` (emitting the `cn.execute.<strategy>` / `cn.topk`
/// spans); ignores `options.tuple_cache` (the tuple sets are the
/// caller's). `k == 0` returns an empty list without evaluating. `stats`,
/// when non-null, is value-initialized and fully filled, with
/// `cns_enumerated = cns.size()`; deadline expiry sets
/// `stats->deadline_hit` but emits no trace event — the caller owns the
/// enclosing span and its `<layer>.deadline.hit` event.
std::vector<SearchResult> EvaluateCns(const relational::Database& db,
                                      const std::vector<CandidateNetwork>& cns,
                                      const TupleSets& ts,
                                      const SearchOptions& options,
                                      SearchStats* stats = nullptr);

/// The same evaluation against a caller-owned collector, which owns
/// selection: `options.k` is ignored, every other field is honored as by
/// `EvaluateCns` (the `cn.topk` span is the caller's). This is how a
/// scatter-gather coordinator shares one early-termination threshold
/// across shard evaluations (`kws::shard`). `stats` follows the
/// `EvaluateCns` contract.
void EvaluateCnsInto(const relational::Database& db,
                     const std::vector<CandidateNetwork>& cns,
                     const TupleSets& ts, const SearchOptions& options,
                     ResultCollector& collector,
                     SearchStats* stats = nullptr);

/// Schema-based relational keyword search (the DISCOVER / DISCOVER2 /
/// SPARK family's front half): enumerate CNs once per query, then answer
/// top-k under a chosen strategy.
class CnKeywordSearch {
 public:
  explicit CnKeywordSearch(const relational::Database& db) : db_(db) {}

  /// Runs `query` (free text) and returns ranked results, best first,
  /// under the monotonic DISCOVER2 score. `cns_out`, when non-null,
  /// receives the enumerated CN list that `SearchResult::cn_index`
  /// refers to.
  std::vector<SearchResult> Search(const std::string& query,
                                   const SearchOptions& options,
                                   std::vector<CandidateNetwork>* cns_out,
                                   SearchStats* stats = nullptr) const;

 private:
  const relational::Database& db_;
};

}  // namespace kws::cn

#endif  // KWDB_CORE_CN_SEARCH_H_
