#include "serve/server.h"

#include <cstdio>
#include <string_view>
#include <utility>

#include "common/check.h"
#include "common/deadline.h"
#include "text/tokenizer.h"

namespace kws::serve {

ServingEngine::ServingEngine(const engine::KeywordSearchEngine* relational,
                             const engine::XmlKeywordSearch* xml,
                             const ServeOptions& options)
    : ServingEngine(relational, xml, nullptr, options) {}

ServingEngine::ServingEngine(const engine::KeywordSearchEngine* relational,
                             const engine::XmlKeywordSearch* xml,
                             const shard::ShardedEngine* sharded,
                             const ServeOptions& options)
    : relational_(relational),
      xml_(xml),
      sharded_(sharded),
      options_(options),
      tuple_cache_(relational != nullptr && options.tuple_cache_capacity > 0
                       ? std::make_unique<cn::TupleSetCache>(
                             relational->db(), options.tuple_cache_capacity)
                       : nullptr),
      cache_(options.cache_capacity, options.cache_shards),
      telemetry_(options.clock),
      submitted_(telemetry_.GetWindowedCounter("serve.submitted")),
      rejected_(telemetry_.GetWindowedCounter("serve.rejected")),
      completed_(telemetry_.GetWindowedCounter("serve.completed")),
      ok_(telemetry_.GetWindowedCounter("serve.ok")),
      deadline_exceeded_(
          telemetry_.GetWindowedCounter("serve.deadline_exceeded")),
      errors_(telemetry_.GetWindowedCounter("serve.errors")),
      cache_hits_(telemetry_.GetWindowedCounter("serve.cache.hits")),
      cache_misses_(telemetry_.GetWindowedCounter("serve.cache.misses")),
      trace_sampled_(telemetry_.GetWindowedCounter("serve.trace.sampled")),
      writes_notified_(
          telemetry_.GetWindowedCounter("serve.writes.notified")),
      latency_(telemetry_.GetWindowedHistogram("serve.latency_micros")),
      queue_wait_(telemetry_.GetWindowedHistogram("serve.queue_wait_micros")),
      clock_(&telemetry_.clock()),
      start_micros_(clock_->NowMicros()) {
  KWS_CHECK_MSG(options_.num_shards == 0 ||
                    (sharded_ != nullptr &&
                     sharded_->num_shards() == options_.num_shards),
                "ServeOptions::num_shards must match the attached "
                "ShardedEngine");
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ServingEngine::~ServingEngine() { Shutdown(); }

Status ServingEngine::Submit(QueryRequest request,
                             std::future<QueryOutcome>* outcome) {
  submitted_->Add();
  Task task;
  task.request = std::move(request);
  // Anchor the budget now: queue wait counts against it, so a request
  // that starves in the queue is dropped at dequeue instead of running
  // with a fresh budget long after the caller gave up.
  task.deadline = task.request.budget_micros == 0
                      ? Deadline::Infinite()
                      : Deadline::AfterMicros(task.request.budget_micros);
  std::future<QueryOutcome> fut = task.promise.get_future();
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      rejected_->Add();
      return Status::FailedPrecondition("server is shut down");
    }
    if (queue_.size() >= options_.queue_capacity) {
      rejected_->Add();
      return Status::ResourceExhausted(
          "submission queue full (" +
          std::to_string(options_.queue_capacity) + " pending)");
    }
    queue_.push_back(std::move(task));
    queued_.store(queue_.size(), std::memory_order_relaxed);
    // A worker that is not parked checks the queue under mu_ before it
    // parks, so only a parked one needs the signal.
    wake = parked_ > 0;
  }
  if (wake) cv_.notify_one();
  *outcome = std::move(fut);
  return Status::OK();
}

QueryOutcome ServingEngine::Query(const QueryRequest& request) {
  submitted_->Add();
  return Execute(request);
}

void ServingEngine::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();  // long-lived server workers, not pool work -- kwslint: allow(raw-thread)
  workers_.clear();
  // With zero workers (admission-control tests) tasks may still be
  // queued; fail them rather than abandoning their futures. Each counts
  // as rejected — the outcome Submit gives after shutdown — so that
  // submitted == completed + rejected once the server has shut down.
  std::deque<Task> leftover;
  {
    std::lock_guard<std::mutex> lock(mu_);
    leftover.swap(queue_);
    queued_.store(0, std::memory_order_relaxed);
  }
  for (Task& task : leftover) {
    rejected_->Add();
    QueryOutcome outcome;
    outcome.status =
        Status::FailedPrecondition("server shut down before execution");
    task.promise.set_value(std::move(outcome));
  }
}

void ServingEngine::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (queue_.empty() && !stopping_) {
        // Registered under mu_ before the predicate is checked: a Submit
        // either pushes before that check or sees this worker parked.
        ++parked_;
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        --parked_;
      }
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      queued_.store(queue_.size(), std::memory_order_relaxed);
    }
    const double queue_wait = task.queued.ElapsedMicros();
    queue_wait_->Record(queue_wait);
    task.promise.set_value(Execute(task.request, task.deadline, queue_wait));
    // Poll briefly before parking: under a closed loop the next request
    // usually arrives within microseconds, and taking it here skips the
    // futex wake. Real time, never `clock_`, which tests may hold.
    const Deadline spin = Deadline::AfterMicros(kWorkerSpinMicros);
    while (queued_.load(std::memory_order_relaxed) == 0 && !spin.Expired()) {
      std::this_thread::yield();
    }
  }
}

std::string ServingEngine::CacheKey(const QueryRequest& request) const {
  // Every response field of every backend is a function of the default
  // tokenizer's output (the relational cleaner starts from it too), so
  // the key is one tokenization and never runs the cleaner.
  std::string key;
  if (request.pipeline == Pipeline::kXml) {
    key = "xml|";
  } else {
    // Relational answers depend on the mutable database: the epoch tag
    // makes every pre-write entry unreachable after a NotifyWrite. XML
    // keys stay untagged — relational writes cannot change XML answers.
    key = "e" + std::to_string(data_epoch()) +
          (UseShardedBackend() ? "|shard|" : "|rel|");
  }
  // The tokens, space-separated, streamed straight into the key.
  const size_t tokens_begin = key.size();
  text::Tokenizer().ForEachToken(request.query, [&](std::string_view token) {
    if (key.size() > tokens_begin) key += ' ';
    key += token;
  });
  key += "|k=";
  key += std::to_string(request.k);
  return key;
}

void ServingEngine::NotifyWrite(const relational::WriteReport& report) {
  writes_notified_->Add();
  // Record the incoming epoch before any invalidation work: the span
  // where `last_write_epoch_ > data_epoch_` is exactly the window where
  // the write is applied but not yet serving-visible, which Statusz
  // reports as the epoch lag.
  last_write_epoch_.store(report.epoch, std::memory_order_release);
  // Order matters: drop stale frontiers and refresh standing queries
  // BEFORE publishing the epoch, so a query keyed under the new epoch
  // can never read — or cache — pre-write state.
  if (tuple_cache_ != nullptr) tuple_cache_->Invalidate(report.touched_terms);
  {
    std::lock_guard<std::mutex> lock(standing_mu_);
    for (std::unique_ptr<cn::ContinualQuery>& q : standing_) {
      if (q->stale()) continue;  // untrusted until its owner rebuilds
      // Infinite deadline on a non-stale query: propagation cannot be
      // cut short.
      const Status s = q->OnInsertBatch(report.inserted);
      KWS_CHECK_MSG(s.ok(), s.ToString());
    }
  }
  data_epoch_.store(report.epoch, std::memory_order_release);
}

Result<uint64_t> ServingEngine::RegisterQuery(const std::string& query,
                                              size_t k) {
  if (relational_ == nullptr) {
    return Status::FailedPrecondition("no relational engine configured");
  }
  cn::ContinualOptions co;
  co.k = k;
  co.num_threads = options_.search_threads;
  auto standing = std::make_unique<cn::ContinualQuery>(
      relational_->db(), relational_->Normalize(query), co);
  std::lock_guard<std::mutex> lock(standing_mu_);
  standing_.push_back(std::move(standing));
  return static_cast<uint64_t>(standing_.size() - 1);
}

Result<std::vector<cn::SearchResult>> ServingEngine::StandingResults(
    uint64_t id) const {
  std::lock_guard<std::mutex> lock(standing_mu_);
  if (id >= standing_.size()) {
    return Status::NotFound("unknown standing query id " +
                            std::to_string(id));
  }
  const cn::ContinualQuery& q = *standing_[id];
  if (q.stale()) {
    return Status::FailedPrecondition(
        "standing query is stale (a propagation was cut short)");
  }
  return q.TopK();
}

QueryOutcome ServingEngine::Execute(const QueryRequest& request) {
  return Execute(request, request.budget_micros == 0
                              ? Deadline::Infinite()
                              : Deadline::AfterMicros(request.budget_micros));
}

QueryOutcome ServingEngine::Execute(const QueryRequest& request,
                                    const Deadline& deadline,
                                    double queue_wait_micros) {
  QueryOutcome outcome;
  Stopwatch watch;
  inflight_.fetch_add(1, std::memory_order_relaxed);
  // Deterministic trace sampler: execution order alone decides which
  // queries get a tracer, independent of worker scheduling.
  const uint64_t sequence =
      exec_sequence_.fetch_add(1, std::memory_order_relaxed);
  const bool sampled = options_.trace_sample_every_n > 0 &&
                       sequence % options_.trace_sample_every_n == 0;
  if (sampled) trace_sampled_->Add();
  trace::Tracer tracer;
  trace::Tracer* const tp = sampled ? &tracer : nullptr;
  trace::TraceSpan query_span(tp, "serve.query");
  if (queue_wait_micros > 0) {
    query_span.AddCounter("queue_wait_micros",
                          static_cast<uint64_t>(queue_wait_micros));
  }
  auto finish = [&](obs::WindowedCounter* bucket) {
    outcome.latency_micros = watch.ElapsedMicros();
    latency_->Record(outcome.latency_micros);
    completed_->Add();
    bucket->Add();
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    query_span.Close();
    RecordSlowQuery(request, outcome, sequence, queue_wait_micros, sampled,
                    sampled ? tracer.RenderTree() : std::string());
    return std::move(outcome);
  };

  const std::string key = request.bypass_cache ? "" : CacheKey(request);
  if (!request.bypass_cache) {
    trace::TraceSpan lookup_span(tp, "serve.cache.lookup");
    std::optional<CachedResult> hit = cache_.Get(key);
    lookup_span.AddCounter("hit", hit.has_value() ? 1 : 0);
    lookup_span.Close();
    if (hit.has_value()) {
      cache_hits_->Add();
      outcome.relational = std::move(hit->relational);
      outcome.xml = std::move(hit->xml);
      outcome.cache_hit = true;
      return finish(ok_);
    }
    cache_misses_->Add();
  }

  // Deadline-aware dispatch: a budget that expired while queued (or a ~0
  // budget) drops the query before any backend work.
  if (deadline.Expired()) {
    trace::AddEvent(tp, "serve.deadline.hit");
    outcome.status =
        Status::DeadlineExceeded("budget exhausted before execution");
    return finish(deadline_exceeded_);
  }

  trace::TraceSpan exec_span(tp, "serve.execute");
  CachedResult fill;
  if (request.pipeline == Pipeline::kRelational && UseShardedBackend()) {
    shard::ShardedSearchOptions so;
    so.k = request.k;
    so.deadline = deadline;
    so.num_threads = options_.search_threads;
    so.tracer = tp;
    shard::ShardedResponse sr = sharded_->Search(request.query, so);
    // Repackage as the relational response shape so callers and the
    // result cache are backend-agnostic.
    auto response = std::make_shared<engine::EngineResponse>();
    response->status = sr.status;
    response->cleaned_query = sr.keywords;
    response->results.reserve(sr.results.size());
    for (size_t i = 0; i < sr.results.size(); ++i) {  // repackages an already-computed result -- kwslint: allow(deadline-loop)
      engine::EngineResult rr;
      rr.score = sr.results[i].score;
      rr.tuples = std::move(sr.results[i].tuples);
      rr.description = std::move(sr.descriptions[i]);
      response->results.push_back(std::move(rr));
    }
    if (!response->status.ok()) {
      outcome.status = response->status;
      outcome.relational = std::move(response);  // partial results, if any
      exec_span.Close();
      return finish(outcome.status.code() == StatusCode::kDeadlineExceeded
                        ? deadline_exceeded_
                        : errors_);
    }
    outcome.relational = std::move(response);
    fill.relational = outcome.relational;
  } else if (request.pipeline == Pipeline::kRelational) {
    if (relational_ == nullptr) {
      exec_span.Close();
      outcome.status =
          Status::FailedPrecondition("no relational engine configured");
      return finish(errors_);
    }
    engine::EngineOptions eo;
    eo.k = request.k;
    eo.deadline = deadline;
    eo.tuple_cache = tuple_cache_.get();
    eo.num_threads = options_.search_threads;
    eo.trace = tp;
    auto response = std::make_shared<engine::EngineResponse>(
        relational_->Search(request.query, eo));
    if (!response->status.ok()) {
      outcome.status = response->status;
      outcome.relational = std::move(response);  // partial results, if any
      exec_span.Close();
      return finish(outcome.status.code() == StatusCode::kDeadlineExceeded
                        ? deadline_exceeded_
                        : errors_);
    }
    outcome.relational = std::move(response);
    fill.relational = outcome.relational;
  } else {
    if (xml_ == nullptr) {
      exec_span.Close();
      outcome.status = Status::FailedPrecondition("no XML engine configured");
      return finish(errors_);
    }
    engine::XmlEngineOptions xo;
    xo.k = request.k;
    xo.deadline = deadline;
    xo.trace = tp;
    auto response = std::make_shared<engine::XmlResponse>(
        xml_->Search(request.query, xo));
    if (!response->status.ok()) {
      outcome.status = response->status;
      outcome.xml = std::move(response);
      exec_span.Close();
      return finish(outcome.status.code() == StatusCode::kDeadlineExceeded
                        ? deadline_exceeded_
                        : errors_);
    }
    outcome.xml = std::move(response);
    fill.xml = outcome.xml;
  }
  exec_span.Close();
  // Only complete answers are cached; deadline-truncated ones are not,
  // so a later, better-funded retry is not poisoned by a partial entry.
  if (!request.bypass_cache) cache_.Put(key, std::move(fill));
  return finish(ok_);
}

void ServingEngine::RecordSlowQuery(const QueryRequest& request,
                                    const QueryOutcome& outcome,
                                    uint64_t sequence,
                                    double queue_wait_micros, bool sampled,
                                    std::string trace_text) {
  if (options_.slow_query_log_capacity == 0) return;
  const bool slow = outcome.latency_micros >=
                    static_cast<double>(options_.slow_query_micros);
  if (!slow && !sampled) return;
  SlowQueryEntry entry;
  entry.sequence = sequence;
  entry.query = request.query;
  entry.pipeline = request.pipeline;
  entry.latency_micros = outcome.latency_micros;
  entry.queue_wait_micros = queue_wait_micros;
  entry.code = outcome.status.code();
  entry.cache_hit = outcome.cache_hit;
  entry.sampled = sampled;
  entry.trace = std::move(trace_text);
  std::lock_guard<std::mutex> lock(slow_mu_);
  slow_log_.push_back(std::move(entry));
  while (slow_log_.size() > options_.slow_query_log_capacity) {
    slow_log_.pop_front();
  }
}

std::vector<SlowQueryEntry> ServingEngine::SlowQueries() const {
  std::lock_guard<std::mutex> lock(slow_mu_);
  return {slow_log_.begin(), slow_log_.end()};
}

std::string ServingEngine::Statusz() const {
  std::string out;
  char buf[128];
  const auto append_f = [&](const char* key, double v) {
    std::snprintf(buf, sizeof(buf), "\"%s\":%.3f", key, v);
    out += buf;
  };
  const auto append_u = [&](const char* key, uint64_t v) {
    std::snprintf(buf, sizeof(buf), "\"%s\":%llu", key,
                  static_cast<unsigned long long>(v));
    out += buf;
  };
  const auto ratio = [](uint64_t num, uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };

  const uint64_t now = clock_->NowMicros();
  const uint64_t submitted = submitted_->total();
  const uint64_t completed = completed_->total();
  const uint64_t rejected = rejected_->total();
  const uint64_t deadline_exceeded = deadline_exceeded_->total();

  out += "{";
  append_u("uptime_micros", now - start_micros_);
  out += ",\"queue\":{";
  {
    std::lock_guard<std::mutex> lock(mu_);
    append_u("depth", queue_.size());
  }
  out += ",";
  append_u("capacity", options_.queue_capacity);
  out += ",";
  append_u("workers", options_.num_workers);
  out += ",";
  append_u("inflight", inflight_.load(std::memory_order_relaxed));
  out += "},\"requests\":{";
  append_u("submitted", submitted);
  out += ",";
  append_u("completed", completed);
  out += ",";
  append_u("ok", ok_->total());
  out += ",";
  append_u("rejected", rejected);
  out += ",";
  append_u("deadline_exceeded", deadline_exceeded);
  out += ",";
  append_u("errors", errors_->total());
  out += ",";
  append_f("rejection_rate", ratio(rejected, submitted));
  out += ",";
  append_f("deadline_rate", ratio(deadline_exceeded, completed));
  out += ",\"recent\":{";
  // The windowed view: rates over the retained windows only, decaying
  // to zero when traffic stops.
  const uint64_t rw_submitted = submitted_->TotalInWindows();
  const uint64_t rw_completed = completed_->TotalInWindows();
  const uint64_t rw_rejected = rejected_->TotalInWindows();
  const uint64_t rw_deadline = deadline_exceeded_->TotalInWindows();
  append_u("submitted", rw_submitted);
  out += ",";
  append_u("completed", rw_completed);
  out += ",";
  append_f("qps", completed_->RatePerSecond());
  out += ",";
  append_f("rejection_rate", ratio(rw_rejected, rw_submitted));
  out += ",";
  append_f("deadline_rate", ratio(rw_deadline, rw_completed));
  out += "}},\"latency\":{";
  const LatencyHistogram& lifetime = latency_->total();
  append_u("count", lifetime.count());
  out += ",";
  append_f("mean_micros", lifetime.MeanMicros());
  out += ",";
  append_f("p50_micros", lifetime.PercentileMicros(0.50));
  out += ",";
  append_f("p95_micros", lifetime.PercentileMicros(0.95));
  out += ",";
  append_f("p99_micros", lifetime.PercentileMicros(0.99));
  out += ",\"recent\":{";
  append_u("count", latency_->CountInWindows());
  out += ",";
  append_f("p50_micros", latency_->PercentileMicros(0.50));
  out += ",";
  append_f("p99_micros", latency_->PercentileMicros(0.99));
  out += "}},\"result_cache\":{";
  const CacheStats cs = cache_.stats();
  append_u("capacity", cache_.capacity());
  out += ",";
  append_u("size", cache_.size());
  out += ",";
  append_u("hits", cs.hits);
  out += ",";
  append_u("misses", cs.misses);
  out += ",";
  append_f("hit_rate", cs.HitRate());
  out += ",";
  append_u("insertions", cs.insertions);
  out += ",";
  append_u("evictions", cs.evictions);
  out += ",";
  const uint64_t rw_hits = cache_hits_->TotalInWindows();
  const uint64_t rw_misses = cache_misses_->TotalInWindows();
  append_f("recent_hit_rate", ratio(rw_hits, rw_hits + rw_misses));
  out += ",\"shards\":[";
  const std::vector<ShardCacheStats> shard_stats = cache_.PerShardStats();
  for (size_t i = 0; i < shard_stats.size(); ++i) {
    if (i > 0) out += ",";
    out += "{";
    append_u("capacity", shard_stats[i].capacity);
    out += ",";
    append_u("size", shard_stats[i].size);
    out += ",";
    append_u("hits", shard_stats[i].hits);
    out += ",";
    append_u("misses", shard_stats[i].misses);
    out += ",";
    append_f("hit_rate", shard_stats[i].HitRate());
    out += "}";
  }
  out += "]},\"tuple_cache\":{";
  if (tuple_cache_ != nullptr) {
    const cn::TupleSetCache::Stats ts = tuple_cache_->stats();
    out += "\"configured\":true,";
    append_u("capacity", tuple_cache_->capacity());
    out += ",";
    append_u("size", tuple_cache_->size());
    out += ",";
    append_u("hits", ts.hits);
    out += ",";
    append_u("misses", ts.misses);
    out += ",";
    append_f("hit_rate", ratio(ts.hits, ts.hits + ts.misses));
    out += ",";
    append_u("insertions", ts.insertions);
    out += ",";
    append_u("evictions", ts.evictions);
    out += ",";
    append_u("invalidations", ts.invalidations);
  } else {
    out += "\"configured\":false";
  }
  out += "},\"epochs\":{";
  const uint64_t published = data_epoch();
  const uint64_t last_write =
      last_write_epoch_.load(std::memory_order_acquire);
  append_u("published", published);
  out += ",";
  append_u("last_write", last_write);
  out += ",";
  append_u("lag", last_write > published ? last_write - published : 0);
  out += ",";
  append_u("writes_notified", writes_notified_->total());
  out += ",";
  append_u("tuple_entries_invalidated",
           tuple_cache_ != nullptr ? tuple_cache_->stats().invalidations : 0);
  out += "},";
  {
    std::lock_guard<std::mutex> lock(standing_mu_);
    append_u("standing_queries", standing_.size());
  }
  out += ",\"slow_queries\":{";
  {
    std::lock_guard<std::mutex> lock(slow_mu_);
    append_u("capacity", options_.slow_query_log_capacity);
    out += ",";
    append_u("entries", slow_log_.size());
    out += ",";
    append_u("threshold_micros", options_.slow_query_micros);
    out += ",";
    uint64_t sampled = 0;
    uint64_t deadline_hits = 0;
    double max_latency = 0;
    uint64_t last_sequence = 0;
    for (const SlowQueryEntry& e : slow_log_) {
      sampled += e.sampled ? 1 : 0;
      deadline_hits += e.code == StatusCode::kDeadlineExceeded ? 1 : 0;
      if (e.latency_micros > max_latency) max_latency = e.latency_micros;
      last_sequence = e.sequence;
    }
    append_u("sampled", sampled);
    out += ",";
    append_u("deadline_exceeded", deadline_hits);
    out += ",";
    append_f("max_latency_micros", max_latency);
    out += ",";
    append_u("last_sequence", last_sequence);
  }
  out += "}}";
  return out;
}

}  // namespace kws::serve
