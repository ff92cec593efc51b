#ifndef KWDB_SERVE_SERVER_H_
#define KWDB_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "core/cn/continual.h"
#include "core/engine/engine.h"
#include "core/engine/xml_engine.h"
#include "obs/telemetry.h"
#include "relational/database.h"
#include "serve/cache.h"
#include "shard/sharded_engine.h"

namespace kws::serve {

/// Which facade answers the request.
enum class Pipeline { kRelational, kXml };

/// One unit of admitted work.
struct QueryRequest {
  std::string query;
  Pipeline pipeline = Pipeline::kRelational;
  /// Top-k passed through to the engine (part of the cache key).
  size_t k = 10;
  /// Per-query budget in microseconds; 0 means unlimited. For queued
  /// work the clock starts at admission (`Submit`), so time spent waiting
  /// in the queue counts against the budget and a request whose budget
  /// expired while queued is dropped with kDeadlineExceeded before any
  /// backend work — the end-to-end latency bound a caller actually
  /// experiences. For the synchronous `Query` path the clock starts at
  /// the call, which is the same instant.
  uint64_t budget_micros = 0;
  /// Skip the result cache entirely (no lookup, no fill) — used by
  /// benchmarks to measure the cache-cold path.
  bool bypass_cache = false;
};

/// The server's answer. Responses are shared immutable objects (possibly
/// also referenced by the cache); exactly one of `relational` / `xml` is
/// set on success, matching the request's pipeline.
struct QueryOutcome {
  /// OK, kDeadlineExceeded (budget expired), kFailedPrecondition
  /// (pipeline not configured, or the server shut down before the task
  /// ran).
  Status status;
  std::shared_ptr<const engine::EngineResponse> relational;
  std::shared_ptr<const engine::XmlResponse> xml;
  bool cache_hit = false;
  /// Execution latency (queue wait excluded), microseconds.
  double latency_micros = 0;
};

/// Tuning knobs for the concurrent query server.
struct ServeOptions {
  /// Worker threads draining the submission queue. 0 is allowed (nothing
  /// executes until Shutdown fails the queued work) and is only useful in
  /// tests that exercise admission control deterministically.
  size_t num_workers = 4;
  /// Bound on queued-but-not-yet-running submissions; Submit rejects with
  /// kResourceExhausted beyond it (admission control).
  size_t queue_capacity = 64;
  /// Total result-cache entries (0 disables caching).
  size_t cache_capacity = 1024;
  size_t cache_shards = 8;
  /// Capacity of the shared term -> tuple-set frontier cache backing the
  /// relational pipeline (0 disables it). Unlike the result cache it
  /// helps even across *different* queries that share keywords, and it
  /// is consulted on result-cache misses and bypass_cache requests alike.
  size_t tuple_cache_capacity = 256;
  /// Intra-query worker threads for the relational CN backend (see
  /// `cn::SearchOptions::num_threads`); responses are bit-identical for
  /// any value. 1 (the default) keeps per-query execution serial, the
  /// right choice when `num_workers` already saturates the cores. When a
  /// sharded backend is routed (`num_shards > 0`) this is the scatter
  /// thread count instead (`shard::ShardedSearchOptions::num_threads`).
  size_t search_threads = 1;
  /// Routes relational queries to the attached `shard::ShardedEngine`
  /// when > 0 (must then equal that engine's shard count; responses are
  /// bit-identical to the unsharded engine's ranked results). 0 (the
  /// default) serves relational queries from the unsharded engine.
  size_t num_shards = 0;
  /// Trace every Nth executed query (0 disables sampling). The sampler
  /// is a deterministic execution-sequence counter — query 0, N, 2N, ...
  /// in execution order carry a full per-query trace, independent of
  /// which worker runs them. Sampled queries always enter the slow-query
  /// log with their rendered trace attached.
  size_t trace_sample_every_n = 0;
  /// Latency threshold for the slow-query log, microseconds. The default
  /// 0 logs every completed query (the log is always on; its capacity
  /// bounds the cost).
  uint64_t slow_query_micros = 0;
  /// Ring-buffer capacity of the slow-query log; the oldest entry is
  /// evicted first. 0 disables the log entirely.
  size_t slow_query_log_capacity = 32;
  /// Time source for the telemetry and `Statusz` (not owned; must
  /// outlive the server). nullptr selects the process-wide steady clock;
  /// tests inject an `obs::ManualClock` so windowed readings and Statusz
  /// documents are byte-reproducible. The instruments use the default
  /// `obs::WindowOptions` (8 one-second windows).
  const obs::Clock* clock = nullptr;
};

/// One completed query retained in the slow-query ring buffer.
struct SlowQueryEntry {
  /// Execution-order sequence number (shared with the trace sampler).
  uint64_t sequence = 0;
  std::string query;
  Pipeline pipeline = Pipeline::kRelational;
  double latency_micros = 0;
  /// Queue wait before execution (0 for the synchronous `Query` path).
  double queue_wait_micros = 0;
  /// Final status code of the outcome.
  StatusCode code = StatusCode::kOk;
  bool cache_hit = false;
  /// True when the deterministic sampler traced this query.
  bool sampled = false;
  /// `Tracer::RenderTree()` of the query's trace; empty unless sampled.
  std::string trace;
};

/// The concurrent query-serving facade: a fixed worker pool pulling from a
/// bounded submission queue, a sharded LRU result cache keyed by the
/// tokenized query (hits never run the query cleaner), per-query
/// deadlines, and a telemetry registry holding one windowed instrument per
/// serve event (each keeps its lifetime total beside its recent windows).
///
/// Both engines run read-only searches (`Search` is const and keeps no
/// per-query state), which is what makes one engine instance safely
/// shareable across all workers. Either engine pointer may be null;
/// requests routed at a missing pipeline fail with kFailedPrecondition.
///
/// Writes: the backing relational database is NOT immutable — it accepts
/// live insert batches via `relational::Database::ApplyInserts`. The
/// write protocol the server relies on:
///
///   1. The writer quiesces searches (no Search may run concurrently with
///      ApplyInserts; the engines do not lock the database).
///   2. The writer applies the batch and obtains a `WriteReport`.
///   3. The writer calls `NotifyWrite(report)` BEFORE admitting new
///      queries. NotifyWrite (a) drops exactly the touched terms from the
///      shared tuple-set frontier cache, (b) propagates the batch into
///      every registered standing query, then (c) publishes the new data
///      epoch — in that order, so a query admitted after the epoch bump
///      can never cache a stale frontier under the new epoch.
///
/// Result-cache invalidation is by unreachability: every relational cache
/// key carries the data epoch (`CacheKey`), so pre-write entries are
/// never hit again after the bump and age out via LRU. XML keys are not
/// epoch-tagged — relational writes cannot affect XML answers, and those
/// hits deliberately survive the bump.
///
/// Handoff: a worker that finishes a task polls the queue for up to
/// `kWorkerSpinMicros` before it parks on the condition variable, so a
/// closed-loop client's next request is usually taken without a futex
/// wake. `Submit` signals only when some worker has registered as parked
/// (`parked_`, under `mu_`); a worker that has not checks the queue under
/// `mu_` before it parks, so no wakeup is lost.
///
/// Lifecycle: workers start in the constructor; the destructor (or an
/// explicit `Shutdown`) stops admissions, drains every queued task, and
/// joins the pool, so no future obtained from `Submit` is ever abandoned.
class ServingEngine {
 public:
  /// How long an idle worker polls for new work before it parks, in real
  /// time (never `ServeOptions::clock`). Bounds the extra time `Shutdown`
  /// can wait for a worker to notice it.
  static constexpr uint64_t kWorkerSpinMicros = 50;

  /// Wraps the (optional) relational and XML engines; spawns
  /// `options.num_workers` queue workers.
  ServingEngine(const engine::KeywordSearchEngine* relational,
                const engine::XmlKeywordSearch* xml,
                const ServeOptions& options = {});

  /// As above, additionally attaching a sharded relational backend.
  /// `options.num_shards > 0` routes relational queries to it (and must
  /// equal `sharded->num_shards()`; checked).
  ServingEngine(const engine::KeywordSearchEngine* relational,
                const engine::XmlKeywordSearch* xml,
                const shard::ShardedEngine* sharded,
                const ServeOptions& options);
  /// Drains the queue and joins the worker pool.
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Admits `request` into the queue. On success `*outcome` receives the
  /// future the worker pool will fulfil. Rejections are synchronous:
  /// kResourceExhausted when the queue is full, kFailedPrecondition after
  /// shutdown.
  [[nodiscard]] Status Submit(QueryRequest request,
                              std::future<QueryOutcome>* outcome);

  /// Synchronous convenience path: executes on the calling thread with
  /// the same cache, metrics and deadline handling, bypassing the queue
  /// (no admission control). Deterministic replay harnesses use this.
  QueryOutcome Query(const QueryRequest& request);

  /// Stops admitting, drains the queue (with 0 workers: fails the queued
  /// tasks), joins the pool. Idempotent.
  void Shutdown();

  /// The cache key for `request`: backend tag (`rel|`, `shard|` or
  /// `xml|`), the query's default-tokenizer tokens, and k. Every response
  /// field, `query_was_corrected` and `suggestions` included, is a
  /// function of those tokens and k, so a typo the cleaner corrects gets
  /// its own entry and no lookup runs the cleaner. Relational keys also
  /// carry the current data epoch (`e<epoch>|...`) so a write makes every
  /// pre-write relational entry unreachable. Exposed for tests.
  std::string CacheKey(const QueryRequest& request) const;

  /// Ingests one applied write batch (see the class doc for the full
  /// protocol): drops the touched terms from the tuple-set frontier
  /// cache, propagates the batch into every registered standing query,
  /// then publishes `report.epoch` as the serving data epoch. Must not
  /// run concurrently with another NotifyWrite.
  void NotifyWrite(const relational::WriteReport& report);

  /// The data epoch last published by `NotifyWrite` (0 before any write).
  uint64_t data_epoch() const {
    return data_epoch_.load(std::memory_order_acquire);
  }

  /// Registers `query` as a standing continual top-k query against the
  /// relational database: it is answered once now and kept current by
  /// every later `NotifyWrite`. Returns the query's id for
  /// `StandingResults`. Fails with kFailedPrecondition when no relational
  /// engine is configured.
  [[nodiscard]] Result<uint64_t> RegisterQuery(const std::string& query,
                                               size_t k = 10);

  /// The registered query's current top-k — identical to re-running it
  /// from scratch over the post-write database. kNotFound for an unknown
  /// id; kFailedPrecondition when a deadline cut a propagation short and
  /// the standing state is untrusted.
  [[nodiscard]] Result<std::vector<cn::SearchResult>> StandingResults(
      uint64_t id) const;

  /// The serve instruments (`serve.submitted`, `serve.latency_micros`,
  /// ...): lifetime totals and windowed readings, plus `RenderJson`.
  obs::TelemetryRegistry& telemetry() { return telemetry_; }

  CacheStats cache_stats() const { return cache_.stats(); }
  const ServeOptions& options() const { return options_; }

  /// One operational health snapshot as a JSON document with fixed key
  /// order: queue depth and in-flight count, request counters with
  /// lifetime and recent (windowed) rejection/deadline rates and QPS,
  /// lifetime and recent latency percentiles, per-shard result-cache
  /// occupancy and hit rates, tuple-cache stats, published data epoch
  /// vs. the last write's epoch (the write-visibility lag), standing-
  /// query count, and a slow-query-ring digest. Floats are `%.3f`;
  /// byte-deterministic under an injected `obs::ManualClock` for a given
  /// operation history (latency histograms are real-time measurements,
  /// so documents from executed queries pin shape, not exact latency
  /// bytes). Safe to call at any time from any thread.
  std::string Statusz() const;

  /// The shared tuple-set frontier cache; null when no relational engine
  /// is configured or tuple_cache_capacity is 0. Exposed for tests.
  cn::TupleSetCache* tuple_cache() const { return tuple_cache_.get(); }

  /// Snapshot of the slow-query ring buffer, oldest entry first. Holds
  /// at most `ServeOptions::slow_query_log_capacity` completed queries
  /// whose latency reached `slow_query_micros`, plus every sampled query
  /// (with its rendered trace).
  std::vector<SlowQueryEntry> SlowQueries() const;

 private:
  struct Task {
    QueryRequest request;
    std::promise<QueryOutcome> promise;
    /// Measures queue wait, started at submission.
    Stopwatch queued;
    /// The request's budget anchored at admission time, so queue wait
    /// counts against it (infinite when budget_micros == 0).
    Deadline deadline;
  };

  /// One worker: takes the oldest task (parking on `cv_` while the queue
  /// is empty), runs it, then spins up to `kWorkerSpinMicros` on
  /// `queued_` before going back for the next. Returns once `stopping_`
  /// is set and the queue is drained.
  void WorkerLoop();

  /// Anchors `request`'s budget at the moment of the call, then runs the
  /// deadline-aware pipeline. The synchronous `Query` path.
  QueryOutcome Execute(const QueryRequest& request);

  /// The miss/hit pipeline shared by Submit-driven workers (deadline
  /// anchored at Submit) and Query (anchored at the call).
  /// `queue_wait_micros` is the time the task spent queued (0 on the
  /// synchronous path); it is recorded in the slow-query log.
  QueryOutcome Execute(const QueryRequest& request, const Deadline& deadline,
                       double queue_wait_micros = 0);

  /// Appends a completed query to the slow-query ring buffer when it
  /// qualifies (latency >= slow_query_micros, or sampled).
  void RecordSlowQuery(const QueryRequest& request,
                       const QueryOutcome& outcome, uint64_t sequence,
                       double queue_wait_micros, bool sampled,
                       std::string trace_text);

  /// True when relational queries go to the sharded backend.
  bool UseShardedBackend() const {
    return sharded_ != nullptr && options_.num_shards > 0;
  }

  const engine::KeywordSearchEngine* relational_;
  const engine::XmlKeywordSearch* xml_;
  const shard::ShardedEngine* sharded_;
  const ServeOptions options_;

  /// Term -> tuple-set frontier cache shared by all workers. Under
  /// writes, `NotifyWrite` drops exactly the entries whose term appears
  /// in a new tuple; untouched-term frontiers stay exactly valid because
  /// they store raw document frequencies (IDF is derived from the live
  /// corpus size at tuple-set build time, not baked into the entry).
  std::unique_ptr<cn::TupleSetCache> tuple_cache_;
  ShardedResultCache cache_;
  obs::TelemetryRegistry telemetry_;
  // One instrument per event, resolved once; hot paths touch only
  // atomics. Lifetime readings come from each instrument's total().
  obs::WindowedCounter* submitted_;
  obs::WindowedCounter* rejected_;
  obs::WindowedCounter* completed_;
  obs::WindowedCounter* ok_;
  obs::WindowedCounter* deadline_exceeded_;
  obs::WindowedCounter* errors_;
  obs::WindowedCounter* cache_hits_;
  obs::WindowedCounter* cache_misses_;
  obs::WindowedCounter* trace_sampled_;
  obs::WindowedCounter* writes_notified_;
  obs::WindowedHistogram* latency_;
  obs::WindowedHistogram* queue_wait_;

  /// The clock behind uptime and the instruments (never null).
  const obs::Clock* clock_;
  /// `clock_->NowMicros()` at construction, for Statusz uptime.
  uint64_t start_micros_;

  /// Queries currently executing (admitted by a worker or the
  /// synchronous path, not yet finished).
  std::atomic<uint64_t> inflight_{0};

  /// The epoch of the last WriteReport handed to NotifyWrite, recorded
  /// BEFORE invalidation/propagation begin — `last_write_epoch_ >
  /// data_epoch_` is exactly the window where a write is applied but not
  /// yet serving-visible (the epoch lag Statusz reports).
  std::atomic<uint64_t> last_write_epoch_{0};

  /// The data epoch last ingested by NotifyWrite; tagged into every
  /// relational cache key.
  std::atomic<uint64_t> data_epoch_{0};

  /// Guards the standing-query registry (never held with mu_).
  mutable std::mutex standing_mu_;
  std::vector<std::unique_ptr<cn::ContinualQuery>> standing_;

  /// Execution-order sequence driving the deterministic trace sampler
  /// and stamped into slow-query entries.
  std::atomic<uint64_t> exec_sequence_{0};

  /// Guards the slow-query ring buffer only (never held with mu_).
  mutable std::mutex slow_mu_;
  std::deque<SlowQueryEntry> slow_log_;

  /// Guards the queue and lifecycle flags; mutable so Statusz (const)
  /// can read the queue depth.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> queue_;
  /// Workers waiting on `cv_`; Submit signals only when it is nonzero.
  size_t parked_ = 0;
  bool stopping_ = false;
  /// `queue_.size()` as of the last change under `mu_`: a lock-free hint
  /// that spinning workers poll. The queue itself is read under `mu_`.
  std::atomic<size_t> queued_{0};
  // The server IS a worker pool: it owns long-lived threads draining a
  // cv-guarded queue, which ThreadPool's fork-join RunOnAll cannot model.
  std::vector<std::thread> workers_;  // cv-draining pool ThreadPool cannot model -- kwslint: allow(raw-thread)
};

}  // namespace kws::serve

#endif  // KWDB_SERVE_SERVER_H_
