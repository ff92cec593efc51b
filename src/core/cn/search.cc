#include "core/cn/search.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <queue>
#include <set>
#include <thread>
#include <utility>

#include "common/concurrent_topk.h"
#include "common/thread_pool.h"
#include "common/topk.h"
#include "text/tokenizer.h"

namespace kws::cn {

namespace {

/// The `cn.execute.*` span name for a strategy. Returned as data (not a
/// call-site literal) so the one metric-name the linter can't see stays
/// consistent with StrategyToString.
const char* ExecSpanName(Strategy s) {
  switch (s) {
    case Strategy::kNaive:
      return "cn.execute.naive";
    case Strategy::kSparse:
      return "cn.execute.sparse";
    case Strategy::kGlobalPipeline:
      return "cn.execute.global_pipeline";
  }
  return "cn.execute.unknown";
}

/// CNs in (bound descending, index ascending) order, dead CNs (bound 0)
/// dropped — the kSparse scan order the collector's verdicts assume.
std::vector<std::pair<double, size_t>> SparseOrder(
    const std::vector<CandidateNetwork>& cns, const TupleSets& ts) {
  std::vector<std::pair<double, size_t>> order;
  for (size_t i = 0; i < cns.size(); ++i) {
    const double bound = CnScoreBound(cns[i], ts);
    if (bound > 0) order.emplace_back(bound, i);
  }
  std::sort(order.begin(), order.end(),
            [](const std::pair<double, size_t>& a,
               const std::pair<double, size_t>& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  return order;
}

// ---------------------------------------------------------------------------
// Global pipeline admission machinery.

/// Per-CN pipeline state: the keyword-node lists and visited index
/// combinations.
struct CnState {
  std::vector<uint32_t> kw_nodes;
  std::vector<const std::vector<ScoredRow>*> lists;
  std::set<std::vector<size_t>> visited;
  /// True when the CN entered the combination queue. Dead CNs (some
  /// tuple-set list empty) may have pushed a few kw_nodes before the
  /// empty list was found; only admitted CNs count as evaluated.
  bool admitted = false;
};

struct QueueItem {
  double bound;
  size_t cn;
  std::vector<size_t> idx;
  bool operator<(const QueueItem& o) const { return bound < o.bound; }
};

using CombinationQueue = std::priority_queue<QueueItem>;

/// Builds the per-CN states and seeds the queue with each live CN's
/// best (all-zeros) combination.
std::vector<CnState> InitPipeline(const std::vector<CandidateNetwork>& cns,
                                  const TupleSets& ts,
                                  CombinationQueue& pq) {
  std::vector<CnState> states(cns.size());
  for (size_t i = 0; i < cns.size(); ++i) {
    CnState& st = states[i];
    bool dead = false;
    for (uint32_t n = 0; n < cns[i].nodes.size(); ++n) {
      if (cns[i].nodes[n].free()) continue;
      const auto& list = ts.Get(cns[i].nodes[n].table, cns[i].nodes[n].mask);
      if (list.empty()) {
        dead = true;
        break;
      }
      st.kw_nodes.push_back(n);
      st.lists.push_back(&list);
    }
    if (dead || st.kw_nodes.empty()) continue;
    std::vector<size_t> zero(st.kw_nodes.size(), 0);
    double bound = 0;
    for (size_t d = 0; d < st.lists.size(); ++d) {
      bound += (*st.lists[d])[0].score;
    }
    bound /= static_cast<double>(cns[i].size());
    st.visited.insert(zero);
    st.admitted = true;
    pq.push(QueueItem{bound, i, std::move(zero)});
  }
  return states;
}

/// Pushes `item`'s unvisited successors (advance one dimension each).
/// Expansion depends only on the tuple-set lists, never on verification
/// results, so admission can expand before the item is verified.
void ExpandSuccessors(const CandidateNetwork& cn, CnState& st,
                      const QueueItem& item, CombinationQueue& pq) {
  for (size_t d = 0; d < item.idx.size(); ++d) {
    if (item.idx[d] + 1 >= st.lists[d]->size()) continue;
    std::vector<size_t> next = item.idx;
    ++next[d];
    if (!st.visited.insert(next).second) continue;
    double bound = 0;
    for (size_t d2 = 0; d2 < next.size(); ++d2) {
      bound += (*st.lists[d2])[next[d2]].score;
    }
    bound /= static_cast<double>(cn.size());
    pq.push(QueueItem{bound, item.cn, std::move(next)});
  }
}

/// The one-worker collector: exact k-best under the deterministic result
/// order, with the tie-aware bound probe.
class PrivateTopK final : public ResultCollector {
 public:
  explicit PrivateTopK(size_t k) : top_(k) {}

  Verdict Admit(size_t cn_index, double bound) const override {
    // The best-ranked result the item could still yield: an empty tuple
    // list ranks above any real one of the same score and CN, so
    // rejecting this probe rejects everything the item can produce.
    SearchResult probe;
    probe.cn_index = cn_index;
    probe.score = bound;
    if (!top_.WouldReject(probe)) return Verdict::kEvaluate;
    // Strictly below the worst retained score nothing a bound-descending
    // scan still holds can enter: stop. On a score tie the rejection
    // hinged on the CN index, and an equal-bound item of a lower-index CN
    // may still follow: skip this one only.
    return bound < top_.Worst().score ? Verdict::kStop : Verdict::kSkip;
  }

  void Offer(size_t /*worker*/, SearchResult result) override {
    top_.Offer(std::move(result));
  }

  std::vector<SearchResult> TakeSorted() { return top_.TakeSorted(); }

 private:
  OrderedTopK<SearchResult, SearchResultOrder> top_;
};

/// The multi-worker collector: one `ConcurrentTopK` slot per worker, same
/// selection function. Its score-only threshold never rejects a tie, so a
/// rejection always means stop.
class SharedTopK final : public ResultCollector {
 public:
  SharedTopK(size_t k, size_t num_workers) : top_(k, num_workers) {}

  Verdict Admit(size_t /*cn_index*/, double bound) const override {
    return top_.WouldReject(bound) ? Verdict::kStop : Verdict::kEvaluate;
  }

  void Offer(size_t worker, SearchResult result) override {
    const double score = result.score;
    top_.Offer(worker, score, std::move(result));
  }

  std::vector<SearchResult> TakeSorted() { return top_.TakeSorted(); }

 private:
  ConcurrentTopK<SearchResult, SearchResultOrder> top_;
};

/// Rows pinned per CN node for a join; empty pins nothing.
using Pins = std::vector<std::optional<relational::RowId>>;

/// One evaluation: the inputs every strategy loop reads and the
/// per-worker state it writes. Work lists are deterministically ordered
/// and statically strided (worker w of n owns items i with i % n == w);
/// all pruning is the collector's and sound under SearchResultOrder, so
/// the answer is the same for every worker count.
struct Evaluation {
  const relational::Database& db;
  const std::vector<CandidateNetwork>& cns;
  const TupleSets& ts;
  const SearchOptions& options;
  ResultCollector& out;
  const size_t num_workers;
  /// Only with more than one worker; one worker runs inline.
  std::optional<ThreadPool> pool = {};
  std::vector<SearchStats> worker_stats = {};
  /// Only for kNaive's per-CN spans with more than one worker: each
  /// records into its own tracer (Tracer is not thread-safe).
  std::vector<trace::Tracer> worker_tracers = {};
  /// kGlobalPipeline: CNs the coordinator entered into the queue.
  size_t cns_admitted = 0;
  std::atomic<bool> deadline_hit = false;

  /// Runs `body(w)` once for every worker w.
  void RunWorkers(const std::function<void(size_t)>& body) {
    if (pool.has_value()) {
      pool->RunOnAll(body);
    } else {
      body(0);
    }
  }

  bool Expired() {
    if (!options.deadline.Expired()) return false;
    deadline_hit.store(true, std::memory_order_relaxed);
    return true;
  }

  /// Joins CN `i` on worker `w` after the modeled round-trip and offers
  /// every joined tree to the collector.
  ExecStats Execute(size_t w, size_t i, const Pins& fixed) {
    if (options.simulated_cn_io_micros > 0) {
      const std::chrono::microseconds round_trip(
          options.simulated_cn_io_micros);
      std::this_thread::sleep_for(round_trip);  // the per-CN RDBMS round-trip E21.1/E23 model; serve never sets it -- kwslint: allow(sleep)
    }
    ExecStats es;
    const CandidateNetwork& cn = cns[i];
    for (const JoinedTree& jt : ExecuteCn(db, cn, ts, fixed, SIZE_MAX, &es,
                                          nullptr, &options.deadline)) {
      SearchResult r;
      r.cn_index = i;
      r.score = jt.score;
      r.tuples.reserve(cn.nodes.size());
      for (uint32_t n = 0; n < cn.nodes.size(); ++n) {
        r.tuples.push_back(relational::TupleId{cn.nodes[n].table, jt.rows[n]});
      }
      out.Offer(w, std::move(r));
    }
    worker_stats[w].join_lookups += es.join_lookups;
    worker_stats[w].results_materialized += es.results;
    return es;
  }
};

// ---------------------------------------------------------------------------
// The strategies, one loop each.

/// kNaive: every CN in full, in index order; the collector is never asked.
void RunNaive(Evaluation& e) {
  e.RunWorkers([&e](size_t w) {
    trace::Tracer* const tracer =
        e.num_workers == 1 ? e.options.tracer
        : e.worker_tracers.empty() ? nullptr : &e.worker_tracers[w];
    for (size_t i = w; i < e.cns.size(); i += e.num_workers) {
      if (e.Expired()) break;
      // kNaive evaluates every CN at every worker count, so a per-CN span
      // keyed by the CN index merges to the same structure at any count
      // (the other strategies prune and only get aggregates).
      trace::TraceSpan cn_span(tracer, "cn.eval");
      cn_span.SetSortKey(i);
      const ExecStats es = e.Execute(w, i, {});
      ++e.worker_stats[w].cns_evaluated;
      cn_span.AddCounter("results", es.results);
      cn_span.AddCounter("join_lookups", es.join_lookups);
    }
  });
}

/// kSparse: CNs in (bound descending, index ascending) order, each worker
/// scanning its stride and asking the collector before every CN. A stop
/// is sound per worker: everything it still owns ranks at or below the
/// rejected bound.
void RunSparse(Evaluation& e) {
  const auto order = SparseOrder(e.cns, e.ts);
  e.RunWorkers([&e, &order](size_t w) {
    for (size_t p = w; p < order.size(); p += e.num_workers) {
      const auto& [bound, i] = order[p];
      const ResultCollector::Verdict v = e.out.Admit(i, bound);
      if (v == ResultCollector::Verdict::kStop) break;
      if (v == ResultCollector::Verdict::kSkip) continue;
      if (e.Expired()) break;
      e.Execute(w, i, {});
      ++e.worker_stats[w].cns_evaluated;
    }
  });
}

/// kGlobalPipeline: serial admission, parallel verification. The
/// coordinator admits combinations in bound order (expanding their
/// successors as it goes) in waves, then the wave's verifications fan out
/// over the workers. Between waves the collector is quiescent, so the
/// admission decisions — and with them candidates_verified — are
/// deterministic for a fixed worker count. One worker admits one item per
/// wave, which is the classic one-at-a-time pipeline; more workers admit
/// 4 per worker, which only ever verifies combinations a one-item wave
/// might also have verified before its threshold rose.
void RunGlobalPipeline(Evaluation& e) {
  CombinationQueue pq;
  std::vector<CnState> states = InitPipeline(e.cns, e.ts, pq);
  DeadlineChecker checker(e.options.deadline, 16);
  const size_t wave_size = e.num_workers == 1 ? 1 : 4 * e.num_workers;
  std::vector<QueueItem> wave;
  bool stop = false;
  while (!pq.empty() && !stop) {
    wave.clear();
    while (!pq.empty() && wave.size() < wave_size) {
      QueueItem item = pq.top();
      pq.pop();
      // Everything still queued is bounded by item.bound, so a stop
      // verdict is final.
      const ResultCollector::Verdict v = e.out.Admit(item.cn, item.bound);
      if (v == ResultCollector::Verdict::kSkip) continue;
      if (v == ResultCollector::Verdict::kStop) {
        stop = true;
        break;
      }
      if (checker.Expired()) {
        e.deadline_hit.store(true, std::memory_order_relaxed);
        stop = true;
        break;
      }
      ExpandSuccessors(e.cns[item.cn], states[item.cn], item, pq);
      wave.push_back(std::move(item));
    }
    if (wave.empty()) break;
    e.RunWorkers([&e, &wave, &states](size_t w) {
      for (size_t p = w; p < wave.size(); p += e.num_workers) {
        if (e.Expired()) break;
        const QueueItem& item = wave[p];
        const CnState& st = states[item.cn];
        Pins pins(e.cns[item.cn].nodes.size());
        for (size_t d = 0; d < st.kw_nodes.size(); ++d) {  // bounded by keyword count -- kwslint: allow(deadline-loop)
          pins[st.kw_nodes[d]] = (*st.lists[d])[item.idx[d]].row;
        }
        e.Execute(w, item.cn, pins);
        ++e.worker_stats[w].candidates_verified;
      }
    });
  }
  for (const CnState& st : states) e.cns_admitted += st.admitted;
}

/// The one evaluation front end. Returns false, with no span emitted,
/// when the deadline had already expired on entry.
bool Evaluate(const relational::Database& db,
              const std::vector<CandidateNetwork>& cns, const TupleSets& ts,
              const SearchOptions& options, ResultCollector& out,
              SearchStats* stats) {
  if (stats != nullptr) {
    *stats = SearchStats{};
    stats->cns_enumerated = cns.size();
  }
  if (options.deadline.Expired()) {
    if (stats != nullptr) stats->deadline_hit = true;
    return false;
  }
  Evaluation e{db, cns, ts, options, out,
               std::max<size_t>(1, options.num_threads)};
  e.worker_stats.resize(e.num_workers);
  if (e.num_workers > 1) {
    e.pool.emplace(e.num_workers);
    if (options.tracer != nullptr && options.strategy == Strategy::kNaive) {
      e.worker_tracers.resize(e.num_workers);
    }
  }
  trace::TraceSpan exec_span(options.tracer, ExecSpanName(options.strategy));
  switch (options.strategy) {
    case Strategy::kNaive:
      RunNaive(e);
      break;
    case Strategy::kSparse:
      RunSparse(e);
      break;
    case Strategy::kGlobalPipeline:
      RunGlobalPipeline(e);
      break;
  }
  if (!e.worker_tracers.empty()) {
    // Deterministic fold: children order by CN-index sort key, so the
    // merged tree matches the one-worker span structure bit for bit.
    options.tracer->MergeWorkers(&e.worker_tracers);
  }
  SearchStats total;
  total.cns_enumerated = cns.size();
  total.cns_evaluated = e.cns_admitted;
  for (const SearchStats& ws : e.worker_stats) {
    total.cns_evaluated += ws.cns_evaluated;
    total.results_materialized += ws.results_materialized;
    total.join_lookups += ws.join_lookups;
    total.candidates_verified += ws.candidates_verified;
  }
  total.deadline_hit = e.deadline_hit.load(std::memory_order_relaxed);
  // The execution span mirrors the aggregate work counters; under kSparse
  // / kGlobalPipeline their values may vary with the worker count, like
  // the SearchStats they copy.
  exec_span.AddCounter("cns_evaluated", total.cns_evaluated);
  exec_span.AddCounter("results_materialized", total.results_materialized);
  exec_span.AddCounter("join_lookups", total.join_lookups);
  exec_span.AddCounter("candidates_verified", total.candidates_verified);
  if (stats != nullptr) *stats = total;
  return true;
}

}  // namespace

const char* StrategyToString(Strategy s) {
  switch (s) {
    case Strategy::kNaive:
      return "naive";
    case Strategy::kSparse:
      return "sparse";
    case Strategy::kGlobalPipeline:
      return "global-pipeline";
  }
  return "?";
}

std::vector<SearchResult> EvaluateCns(const relational::Database& db,
                                      const std::vector<CandidateNetwork>& cns,
                                      const TupleSets& ts,
                                      const SearchOptions& options,
                                      SearchStats* stats) {
  if (options.k == 0) {
    // Nothing can enter an empty top-k: evaluate nothing.
    if (stats != nullptr) {
      *stats = SearchStats{};
      stats->cns_enumerated = cns.size();
    }
    return {};
  }
  const auto rank = [&](auto& top) -> std::vector<SearchResult> {
    if (!Evaluate(db, cns, ts, options, top, stats)) return {};
    trace::TraceSpan topk_span(options.tracer, "cn.topk");
    std::vector<SearchResult> ranked = top.TakeSorted();
    topk_span.AddCounter("results", ranked.size());
    return ranked;
  };
  if (options.num_threads <= 1) {
    PrivateTopK top(options.k);
    return rank(top);
  }
  SharedTopK top(options.k, options.num_threads);
  return rank(top);
}

void EvaluateCnsInto(const relational::Database& db,
                     const std::vector<CandidateNetwork>& cns,
                     const TupleSets& ts, const SearchOptions& options,
                     ResultCollector& collector, SearchStats* stats) {
  Evaluate(db, cns, ts, options, collector, stats);
}

std::vector<SearchResult> CnKeywordSearch::Search(
    const std::string& query, const SearchOptions& options,
    std::vector<CandidateNetwork>* cns_out, SearchStats* stats) const {
  if (stats != nullptr) *stats = SearchStats{};
  trace::Tracer* const tracer = options.tracer;
  // EvaluateCns reports deadline expiry through the stats, and the trace
  // mirrors them, so tracing needs a stats object even when the caller
  // passed none.
  SearchStats local_stats;
  SearchStats* const st =
      stats != nullptr ? stats : (tracer != nullptr ? &local_stats : nullptr);

  text::Tokenizer tokenizer;
  std::vector<std::string> keywords = tokenizer.Tokenize(query);
  if (keywords.size() > 16) keywords.resize(16);
  if (keywords.empty()) {
    if (cns_out != nullptr) cns_out->clear();
    return {};
  }

  trace::TraceSpan search_span(tracer, "cn.search");
  search_span.AddCounter("keywords", keywords.size());

  TupleSets ts(db_, keywords, options.tuple_cache, options.deadline, tracer);
  if (ts.truncated() || options.deadline.Expired()) {
    search_span.AddEvent("cn.deadline.hit");
    if (st != nullptr) st->deadline_hit = true;
    if (cns_out != nullptr) cns_out->clear();
    return {};
  }
  CnEnumOptions enum_opts;
  enum_opts.max_size = options.max_cn_size;
  enum_opts.deadline = options.deadline;
  enum_opts.tracer = tracer;
  std::vector<CandidateNetwork> cns = EnumerateCandidateNetworks(
      db_, ts.table_masks(), ts.full_mask(), enum_opts);

  std::vector<SearchResult> ranked = EvaluateCns(db_, cns, ts, options, st);
  if (st != nullptr && st->deadline_hit) {
    search_span.AddEvent("cn.deadline.hit");
  }
  if (cns_out != nullptr) *cns_out = std::move(cns);
  return ranked;
}

}  // namespace kws::cn
