#include "shard/sharded_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/concurrent_topk.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/cn/candidate_network.h"
#include "core/cn/tuple_sets.h"
#include "text/tokenizer.h"

namespace kws::shard {

namespace {

/// Selector configuration that makes joinability pruning sound: unit
/// edge weights turn `Distance` into hop distance, and a result tree of
/// at most `max_cn_size` tuples keeps every keyword pair within
/// `max_cn_size - 1` hops inside its shard's data graph.
select::SelectorOptions PruningSelectorOptions(
    const ShardedEngineOptions& options) {
  select::SelectorOptions so;
  so.max_distance = static_cast<double>(options.max_cn_size - 1);
  so.graph_options.degree_weighted_backward = false;
  return so;
}

using Gather = ConcurrentTopK<cn::SearchResult, cn::SearchResultOrder>;

/// Shard `s`'s collector: the gather's score-only threshold decides (it
/// never rejects a tie, so a rejection is a stop), and each result is
/// shifted to combined row ids — a per-table monotone shift, so the
/// shard-local result order is the global order restricted to this shard
/// — then offered to the shard's slot.
class GatherSlot final : public cn::ResultCollector {
 public:
  GatherSlot(Gather& top, size_t slot,
             const std::vector<relational::RowId>& row_offsets)
      : top_(top), slot_(slot), row_offsets_(row_offsets) {}

  Verdict Admit(size_t /*cn_index*/, double bound) const override {
    return top_.WouldReject(bound) ? Verdict::kStop : Verdict::kEvaluate;
  }

  void Offer(size_t /*worker*/, cn::SearchResult result) override {
    for (relational::TupleId& tid : result.tuples) {
      tid.row += row_offsets_[tid.table];
    }
    ++offered_;
    const double score = result.score;
    top_.Offer(slot_, score, std::move(result));
  }

  /// Results offered to the gather so far.
  size_t offered() const { return offered_; }

 private:
  Gather& top_;
  const size_t slot_;
  const std::vector<relational::RowId>& row_offsets_;
  size_t offered_ = 0;
};

}  // namespace

ShardedEngine::ShardedEngine(const ShardedCorpus& corpus,
                             const ShardedEngineOptions& options)
    : corpus_(corpus),
      options_(options),
      selector_(PruningSelectorOptions(options)),
      queries_(telemetry_.GetWindowedCounter("shard.queries")),
      fanout_(telemetry_.GetWindowedCounter("shard.fanout")),
      pruned_(telemetry_.GetWindowedCounter("shard.pruned")),
      deadline_hits_(telemetry_.GetWindowedCounter("shard.deadline.hits")) {
  KWS_CHECK_MSG(corpus_.num_shards() > 0, "corpus has no shards");
  KWS_CHECK_MSG(options_.max_cn_size >= 1, "max_cn_size must be >= 1");
  for (size_t s = 0; s < corpus_.num_shards(); ++s) {
    const relational::Database& db = *corpus_.shards[s];
    total_rows_ += db.TotalRows();
    selector_.AddDatabase("shard-" + std::to_string(s), &db);
    if (options_.tuple_cache_capacity > 0) {
      tuple_caches_.push_back(std::make_unique<cn::TupleSetCache>(
          db, options_.tuple_cache_capacity));
    }
    const std::string prefix = "shard.s" + std::to_string(s);
    shard_searched_.push_back(
        telemetry_.GetWindowedCounter(prefix + ".searched"));
    shard_pruned_.push_back(telemetry_.GetWindowedCounter(prefix + ".pruned"));
    shard_gather_micros_.push_back(
        telemetry_.GetWindowedHistogram(prefix + ".gather_micros"));
  }
}

size_t ShardedEngine::OwningShard(relational::TupleId global) const {
  size_t owner = 0;
  for (size_t s = 1; s < corpus_.num_shards(); ++s) {
    if (corpus_.row_offsets[s][global.table] <= global.row) {
      owner = s;
    } else {
      break;
    }
  }
  return owner;
}

ShardedResponse ShardedEngine::Search(
    const std::string& query, const ShardedSearchOptions& options) const {
  queries_->Add();
  ShardedResponse resp;
  ShardedSearchStats& stats = resp.stats;
  const size_t n = corpus_.num_shards();
  stats.shards_total = n;
  stats.shard_pruned.assign(n, false);
  stats.shard_results.assign(n, 0);
  stats.shard_cns_evaluated.assign(n, 0);

  resp.keywords = text::Tokenizer().Tokenize(query);
  if (resp.keywords.size() > 16) resp.keywords.resize(16);
  const std::vector<std::string>& keywords = resp.keywords;
  if (keywords.empty()) return resp;
  const size_t nk = keywords.size();
  const cn::KeywordMask full_mask =
      static_cast<cn::KeywordMask>((1u << nk) - 1);

  trace::Tracer* const tracer = options.tracer;
  trace::TraceSpan search_span(tracer, "shard.search");
  search_span.AddCounter("keywords", nk);

  // --- Plan at the coordinator -----------------------------------------
  // Selection-based pruning: a shard can only contribute when it covers
  // every keyword some shard covers (any valid result covers them all)
  // and every keyword pair is joinable within the CN size bound there.
  {
    trace::TraceSpan select_span(tracer, "shard.select");
    if (options.prune) {
      const std::vector<select::DatabaseScore> ranked =
          selector_.Rank(Join(keywords, " "));
      uint32_t union_mask = 0;
      for (const select::DatabaseScore& ds : ranked) {
        union_mask |= ds.covered_mask;
      }
      const size_t all_pairs = nk * (nk - 1) / 2;
      for (const select::DatabaseScore& ds : ranked) {
        const bool covers = union_mask == full_mask &&
                            ds.covered_mask == full_mask;
        const bool joinable = ds.joinable_pairs >= all_pairs;
        stats.shard_pruned[ds.index] = !(covers && joinable);
      }
    }
    for (size_t s = 0; s < n; ++s) {
      stats.shards_pruned += stats.shard_pruned[s] ? 1 : 0;
    }
    stats.shards_searched = n - stats.shards_pruned;
    select_span.AddCounter("pruned", stats.shards_pruned);
  }
  pruned_->Add(stats.shards_pruned);
  fanout_->Add(stats.shards_searched);
  for (size_t s = 0; s < n; ++s) {
    if (stats.shard_pruned[s]) shard_pruned_[s]->Add();
  }

  // Corpus-wide keyword statistics from summed per-shard integers: the
  // global IDFs (identical doubles to the combined database's
  // BuildTermFrontier) and the global table masks feeding CN enumeration.
  // Pruned shards still count — statistics describe the corpus, not the
  // fanout.
  std::vector<double> idf(nk, 0);
  const size_t num_tables = corpus_.shards[0]->num_tables();
  std::vector<cn::KeywordMask> table_masks(num_tables, 0);
  for (size_t k = 0; k < nk; ++k) {
    size_t df = 0;
    for (size_t s = 0; s < n; ++s) {
      for (relational::TableId t = 0; t < num_tables; ++t) {
        const size_t d = corpus_.shards[s]->TextIndex(t).DocFreq(keywords[k]);
        df += d;
        if (d > 0) table_masks[t] |= static_cast<cn::KeywordMask>(1u << k);
      }
    }
    idf[k] = std::log(1.0 + static_cast<double>(total_rows_) /
                                (1.0 + static_cast<double>(df)));
  }

  // One global CN list (the schema graph is shard-invariant), so
  // cn_index means the same thing in every shard and in the merge.
  cn::CnEnumOptions enum_opts;
  enum_opts.max_size = options_.max_cn_size;
  enum_opts.deadline = options.deadline;
  enum_opts.tracer = tracer;
  const std::vector<cn::CandidateNetwork> cns =
      cn::EnumerateCandidateNetworks(*corpus_.shards[0], table_masks,
                                     full_mask, enum_opts);
  stats.cns_enumerated = cns.size();

  // --- Scatter ----------------------------------------------------------
  std::vector<size_t> searched;
  searched.reserve(stats.shards_searched);
  for (size_t s = 0; s < n; ++s) {
    if (!stats.shard_pruned[s]) searched.push_back(s);
  }
  // One collector slot per shard: each slot keeps the k best its shard
  // offered, so the merge is the exact global top-k no matter how the
  // scatter was threaded.
  Gather top(options.k, n);
  std::vector<char> shard_hit(n, 0);
  trace::TraceSpan scatter_span(tracer, "shard.scatter");
  scatter_span.AddCounter("fanout", stats.shards_searched);
  const auto eval_shard = [&](size_t s) {
    // The tighter of the global deadline and the per-shard budget,
    // anchored when this shard's evaluation starts.
    Deadline shard_deadline = options.deadline;
    if (options.shard_budget_micros > 0) {
      const Deadline budget =
          Deadline::AfterMicros(options.shard_budget_micros);
      if (budget.RemainingMicros() < shard_deadline.RemainingMicros()) {
        shard_deadline = budget;
      }
    }
    const relational::Database& db = *corpus_.shards[s];
    cn::TupleSetCache* const cache =
        tuple_caches_.empty() ? nullptr : tuple_caches_[s].get();
    // Workers trace nothing (Tracer is not thread-safe, and per-shard
    // spans would make the structure shard-count-dependent); shard-side
    // scores use the corpus-wide IDFs so they match the combined view.
    const cn::TupleSets ts(db, keywords, cache, shard_deadline, nullptr,
                           &idf);
    if (ts.truncated()) {
      shard_hit[s] = 1;
      return;
    }
    cn::SearchOptions so;
    so.strategy = options.strategy;
    so.deadline = shard_deadline;
    so.num_threads = 1;
    so.simulated_cn_io_micros = options.simulated_cn_io_micros;
    // Once k results exist *anywhere*, a shard whose remaining bounds fall
    // below the global k-th score stops paying round-trips.
    GatherSlot slot(top, s, corpus_.row_offsets[s]);
    cn::SearchStats sstats;
    cn::EvaluateCnsInto(db, cns, ts, so, slot, &sstats);
    if (sstats.deadline_hit) shard_hit[s] = 1;
    stats.shard_results[s] = slot.offered();
    stats.shard_cns_evaluated[s] = sstats.cns_evaluated;
  };
  const auto run_shard = [&](size_t s) {
    const Stopwatch shard_watch;
    eval_shard(s);
    shard_searched_[s]->Add();
    shard_gather_micros_[s]->Record(shard_watch.ElapsedMicros());
  };
  if (options.num_threads <= 1 || searched.size() <= 1) {
    for (size_t s : searched) run_shard(s);
  } else {
    ThreadPool pool(std::min(options.num_threads, searched.size()));
    const size_t stride = pool.size();
    pool.RunOnAll([&](size_t w) {
      for (size_t i = w; i < searched.size(); i += stride) {
        run_shard(searched[i]);
      }
    });
  }
  scatter_span.Close();

  // --- Gather -----------------------------------------------------------
  trace::TraceSpan gather_span(tracer, "shard.gather");
  size_t offered = 0;
  for (size_t s = 0; s < n; ++s) offered += stats.shard_results[s];
  resp.results = top.TakeSorted();
  gather_span.AddCounter("offered", offered);
  gather_span.AddCounter("results", resp.results.size());
  resp.result_shards.reserve(resp.results.size());
  resp.descriptions.reserve(resp.results.size());
  for (const cn::SearchResult& r : resp.results) {
    const size_t s = OwningShard(r.tuples.front());
    resp.result_shards.push_back(s);
    std::string desc;
    for (size_t i = 0; i < r.tuples.size(); ++i) {
      if (i > 0) desc += " -- ";
      const relational::TupleId local{
          r.tuples[i].table,
          r.tuples[i].row - corpus_.row_offsets[s][r.tuples[i].table]};
      desc += corpus_.shards[s]->TupleToString(local);
    }
    resp.descriptions.push_back(std::move(desc));
  }
  gather_span.Close();

  bool hit = options.deadline.Expired();
  for (size_t s = 0; s < n; ++s) hit |= shard_hit[s] != 0;
  stats.deadline_hit = hit;
  if (hit) {
    deadline_hits_->Add();
    search_span.AddEvent("shard.deadline.hit");
    resp.status = Status::DeadlineExceeded(
        "shard search budget exhausted (results may be partial)");
  }
  return resp;
}

std::string ShardedEngine::Statusz() const {
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

  out += "{";
  append_u("shards", corpus_.num_shards());
  out += ",";
  append_u("total_rows", total_rows_);
  out += ",";
  append_u("queries", queries_->total());
  out += ",";
  append_u("fanout", fanout_->total());
  out += ",";
  append_u("pruned", pruned_->total());
  out += ",";
  append_u("deadline_hits", deadline_hits_->total());
  out += ",\"per_shard\":[";
  for (size_t s = 0; s < corpus_.num_shards(); ++s) {
    if (s > 0) out += ",";
    out += "{";
    append_u("rows", corpus_.shards[s]->TotalRows());
    out += ",";
    append_u("searched", shard_searched_[s]->total());
    out += ",";
    append_u("pruned", shard_pruned_[s]->total());
    out += ",\"tuple_cache\":{";
    const cn::TupleSetCache* const cache =
        tuple_caches_.empty() ? nullptr : tuple_caches_[s].get();
    out += "\"configured\":";
    out += cache != nullptr ? "true" : "false";
    if (cache != nullptr) {
      const cn::TupleSetCache::Stats cs = cache->stats();
      out += ",";
      append_u("capacity", cache->capacity());
      out += ",";
      append_u("size", cache->size());
      out += ",";
      append_u("hits", cs.hits);
      out += ",";
      append_u("misses", cs.misses);
      out += ",";
      append_u("insertions", cs.insertions);
      out += ",";
      append_u("evictions", cs.evictions);
      out += ",";
      append_u("invalidations", cs.invalidations);
    }
    out += "},\"gather\":{";
    const LatencyHistogram& h = shard_gather_micros_[s]->total();
    append_u("count", h.count());
    out += ",";
    append_f("mean_micros", h.MeanMicros());
    out += ",";
    append_f("p50_micros", h.PercentileMicros(0.50));
    out += ",";
    append_f("p95_micros", h.PercentileMicros(0.95));
    out += ",";
    append_f("p99_micros", h.PercentileMicros(0.99));
    out += "}}";
  }
  out += "]}";
  return out;
}

ShardedExplainResult ShardedEngine::Explain(
    const std::string& query, const ShardedSearchOptions& options) const {
  trace::Tracer tracer;
  ShardedSearchOptions traced = options;
  traced.tracer = &tracer;
  ShardedExplainResult out;
  out.response = Search(query, traced);
  out.tree = tracer.RenderTree();
  out.json = tracer.RenderJson();
  return out;
}

}  // namespace kws::shard
