#ifndef KWDB_SHARD_SHARDED_ENGINE_H_
#define KWDB_SHARD_SHARDED_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "common/trace.h"
#include "core/cn/search.h"
#include "core/cn/tuple_set_cache.h"
#include "core/select/db_selection.h"
#include "obs/telemetry.h"
#include "shard/sharded_corpus.h"

namespace kws::shard {

/// Construction-time knobs of the sharded engine.
struct ShardedEngineOptions {
  /// CN size bound (DISCOVER's Tmax), fixed at construction because the
  /// shard-pruning distance index is built with radius `max_cn_size - 1`.
  /// Must be >= 1.
  size_t max_cn_size = 5;
  /// Capacity of each shard's term -> tuple-set frontier cache
  /// (0 disables caching; responses are identical either way).
  size_t tuple_cache_capacity = 128;
};

/// Per-query knobs of `ShardedEngine::Search`.
struct ShardedSearchOptions {
  size_t k = 10;
  cn::Strategy strategy = cn::Strategy::kSparse;
  /// Global query budget; expiry yields partial results with
  /// `kDeadlineExceeded`.
  Deadline deadline = {};
  /// Additional per-shard budget in microseconds, anchored when the
  /// shard's evaluation starts (0 = none); the tighter of this and
  /// `deadline` governs each shard. Any shard running out marks the whole
  /// response partial.
  uint64_t shard_budget_micros = 0;
  /// Selection-based shard pruning: skip shards whose keyword coverage or
  /// joinability says they cannot contribute a result. Sound — pruning
  /// never changes the merged top-k (the oracle test sweeps both
  /// settings).
  bool prune = true;
  /// Scatter worker threads fanning the per-shard searches out (static
  /// striding over the searched-shard list). Results are bit-identical
  /// for every value.
  size_t num_threads = 1;
  /// Models the per-CN RDBMS round-trip each shard would pay in a real
  /// deployment (forwarded to `cn::SearchOptions::simulated_cn_io_micros`);
  /// the scatter overlaps whole shards. E23 sets it, E21.1 sets the
  /// forwarded knob directly, and the serving layer never sets it. 0 (the
  /// default) disables the simulation.
  uint64_t simulated_cn_io_micros = 0;
  /// Optional per-query tracer (not owned). Produces a `shard.search`
  /// span with `shard.select`, `cn.enumerate`, `shard.scatter` and
  /// `shard.gather` children; the span *structure* is independent of
  /// both `num_threads` and the shard count.
  trace::Tracer* tracer = nullptr;
};

/// Counters of one sharded search; `Search` fills every field on every
/// exit path.
struct ShardedSearchStats {
  size_t shards_total = 0;
  /// Shards skipped by selection-based pruning.
  size_t shards_pruned = 0;
  /// Shards actually searched (`shards_total - shards_pruned`).
  size_t shards_searched = 0;
  /// Size of the (global) candidate-network list every shard evaluated.
  size_t cns_enumerated = 0;
  /// Per shard: true when pruning skipped it.
  std::vector<bool> shard_pruned;
  /// Per shard: results its evaluation materialized and offered to the
  /// gather, for every strategy — always 0 for pruned shards and for
  /// shards that cannot contribute. With more than one scatter thread the
  /// shared early-termination threshold makes the exact counts
  /// schedule-dependent (like the kSparse aggregate counters of
  /// `cn::SearchStats`); the merged top-k never is.
  std::vector<size_t> shard_results;
  /// Per shard: CNs its evaluation admitted — the per-shard round-trip
  /// count a real deployment would pay. Schedule-dependent under kSparse
  /// exactly like `shard_results`.
  std::vector<size_t> shard_cns_evaluated;
  /// True when any budget (global or per-shard) cut the search short.
  bool deadline_hit = false;
};

/// One sharded query round-trip. `results` carry *combined* (global)
/// tuple ids under `cn::SearchResultOrder` — bit-identical to
/// `cn::CnKeywordSearch::Search` over `ShardedCorpus::combined` for every
/// seed, shard count and thread count.
struct ShardedResponse {
  /// OK for a complete answer, `kDeadlineExceeded` for a partial one.
  Status status = {};
  /// The tokenized (and 16-capped) query the shards evaluated.
  std::vector<std::string> keywords;
  std::vector<cn::SearchResult> results;
  /// Owning shard of each result (parallel to `results`).
  std::vector<size_t> result_shards;
  /// Rendering of each result's tuples, joined with " -- " (parallel to
  /// `results`); identical to the combined database's rendering.
  std::vector<std::string> descriptions;
  ShardedSearchStats stats;
};

/// A `ShardedResponse` with its rendered execution trace (the EXPLAIN
/// ANALYZE counterpart of `ShardedEngine::Search`).
struct ShardedExplainResult {
  ShardedResponse response;
  /// Human-readable span tree (`trace::Tracer::RenderTree`).
  std::string tree;
  /// Machine-readable form with stable key order
  /// (`trace::Tracer::RenderJson`).
  std::string json;
};

/// Scatter-gather keyword search over a `ShardedCorpus` (the Mragyati /
/// EMBANKS scale-out story at the middleware layer): each shard owns its
/// database, inverted indexes and tuple-set cache; a query is planned
/// once at the coordinator — per-shard keyword statistics feed a
/// `DatabaseSelector` that prunes non-contributing shards, corpus-wide
/// IDFs and table masks are derived from summed per-shard statistics, and
/// ONE candidate-network list is enumerated — then fanned out over a
/// `ThreadPool` with static striding and merged through `ConcurrentTopK`
/// under `cn::SearchResultOrder`. Each shard evaluates straight into its
/// gather slot (`cn::EvaluateCnsInto` with a `cn::ResultCollector`, the
/// same loop for every strategy), so the collector's threshold — the
/// global k-th best score offered so far — is shared back into every
/// shard's evaluation: under kSparse and kGlobalPipeline shards stop
/// paying per-CN round-trips as soon as the *merged* top-k says their
/// remaining bounds cannot contribute, not only when their own local
/// top-k fills.
///
/// Determinism contract (tests/shard_test.cc): the merged top-k equals
/// the unsharded engine's answer bit for bit, for every seed, shard
/// count, thread count, and pruning setting. The pieces: global IDFs make
/// per-row scores identical; key remapping (see `ShardedCorpus`) keeps
/// every join inside one shard; the shared CN list keeps `cn_index`
/// aligned; monotone row offsets keep tuple tie-breaks aligned; and each
/// shard's gather slot keeps the k best its shard offered, of which the
/// merge keeps the global k best.
class ShardedEngine {
 public:
  /// Builds per-shard machinery: tuple-set caches and the shard selector
  /// (unit-weight data graphs, distance radius `max_cn_size - 1` — the
  /// largest hop distance inside any result tree, which is what makes
  /// joinability pruning sound). The corpus must outlive the engine.
  explicit ShardedEngine(const ShardedCorpus& corpus,
                         const ShardedEngineOptions& options = {});

  /// Runs `query` across the shards and merges the global top-k.
  ShardedResponse Search(const std::string& query,
                         const ShardedSearchOptions& options = {}) const;

  /// Runs `query` under a fresh tracer (any `options.tracer` is ignored)
  /// and returns the response with its rendered trace.
  ShardedExplainResult Explain(const std::string& query,
                               const ShardedSearchOptions& options = {}) const;

  /// The shard owning combined-id tuple `global` (by row-offset lookup).
  size_t OwningShard(relational::TupleId global) const;

  size_t num_shards() const { return corpus_.num_shards(); }
  const ShardedCorpus& corpus() const { return corpus_; }

  /// The engine's windowed instruments over the default clock:
  /// counters `shard.queries`, `shard.fanout`, `shard.pruned`,
  /// `shard.deadline.hits`, plus per shard `shard.s<i>.searched` /
  /// `shard.s<i>.pruned` (selection skipped the shard) and the
  /// `shard.s<i>.gather_micros` histogram (the shard's evaluation latency
  /// as seen by the gather). Each keeps its lifetime `total()` beside its
  /// recent windows.
  obs::TelemetryRegistry& telemetry() const { return telemetry_; }

  /// One operational health snapshot as a JSON document with fixed key
  /// order: engine-lifetime counters, then one object per shard — row
  /// count, searched/pruned counts, tuple-cache stats, and the gather
  /// latency histogram (count, mean, p50/p95/p99). Floats are `%.3f`;
  /// the document is a pure function of the instruments' current values.
  /// Safe to call at any time from any thread.
  std::string Statusz() const;

 private:
  const ShardedCorpus& corpus_;
  const ShardedEngineOptions options_;
  /// Total rows across all shards (the combined corpus size), for the
  /// global IDF denominator.
  size_t total_rows_ = 0;
  select::DatabaseSelector selector_;
  /// One frontier cache per shard (empty when caching is disabled).
  std::vector<std::unique_ptr<cn::TupleSetCache>> tuple_caches_;
  mutable obs::TelemetryRegistry telemetry_;
  // Instruments resolved once; hot paths touch only atomics.
  obs::WindowedCounter* queries_;
  obs::WindowedCounter* fanout_;
  obs::WindowedCounter* pruned_;
  obs::WindowedCounter* deadline_hits_;
  // Per-shard instruments (index = shard), resolved at construction so
  // scatter workers touch only atomics.
  std::vector<obs::WindowedCounter*> shard_searched_;
  std::vector<obs::WindowedCounter*> shard_pruned_;
  std::vector<obs::WindowedHistogram*> shard_gather_micros_;
};

}  // namespace kws::shard

#endif  // KWDB_SHARD_SHARDED_ENGINE_H_
