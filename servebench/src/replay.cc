#include "replay.h"

#include <chrono>
#include <memory>
#include <optional>
#include <utility>

#include "answers.h"
#include "core/clean/cleaner.h"
#include "core/cn/candidate_network.h"
#include "core/cn/tuple_set_cache.h"
#include "core/cn/tuple_sets.h"
#include "core/lca/slca.h"
#include "core/lca/xrank.h"
#include "core/lca/xseek.h"
#include "core/refine/data_clouds.h"
#include "serve/cache.h"
#include "text/inverted_index.h"
#include "text/tokenizer.h"
#include "xml/stats.h"

namespace servebench {

namespace {

using kws::engine::EngineResponse;
using kws::engine::XmlResponse;

/// Request ids of write batches, apart from the stream's read indices.
constexpr uint64_t kWriteIdBase = uint64_t{1} << 62;
constexpr size_t kMaxMessages = 8;
/// `EngineOptions` / `XmlEngineOptions` defaults the served path uses.
constexpr size_t kSuggestions = 5;
constexpr size_t kMaxCnSize = 5;
constexpr size_t kSnippetItems = 4;

std::string JoinWords(const std::vector<std::string>& words) {
  std::string out;
  for (const std::string& w : words) {
    if (!out.empty()) out += ' ';
    out += w;
  }
  return out;
}

/// The replay state of one workload: a fresh synchronous deployment plus
/// the structures the facades keep private, rebuilt from public functions
/// the same way the facades build them.
class Replayer {
 public:
  Replayer(const Inputs& inputs, ReplayResult* out)
      : inputs_(inputs),
        out_(out),
        dep_(BuildDeployment(inputs, 0)),
        result_cache_(kws::serve::ServeOptions().cache_capacity,
                      kws::serve::ServeOptions().cache_shards) {
    if (dep_->engine != nullptr) {
      const kws::graph::DataGraph& g = dep_->engine->data_graph().graph;
      for (kws::graph::NodeId n = 0; n < g.num_nodes(); ++n) {
        const std::string& text = g.text(n);
        if (!text.empty()) combined_index_.AddDocument(n, text);
      }
      cleaner_ = std::make_unique<kws::clean::QueryCleaner>(combined_index_);
      facade_tuple_cache_ = std::make_unique<kws::cn::TupleSetCache>(
          *dep_->dblp->db, kws::serve::ServeOptions().tuple_cache_capacity);
    }
    if (dep_->xml != nullptr) {
      path_stats_ = kws::xml::ComputePathStatistics(dep_->bib->tree);
      elem_rank_ = kws::lca::ElemRank(dep_->bib->tree);
    }
  }

  /// Replays read `i`, recording into `rec`.
  void Read(size_t i, SpanRecorder& rec) {
    const std::string& query = inputs_.TextAt(i);
    kws::serve::QueryRequest request;
    request.query = query;
    request.pipeline = inputs_.pipeline();
    request.k = Shape::kTopK;
    std::optional<ScopedSpan> root(std::in_place, rec, span::kRequest, i);
    std::string key;
    {
      ScopedSpan s(rec, span::kCacheKey, i, root->index());
      key = dep_->server->CacheKey(request);
    }
    {
      ScopedSpan s(rec, span::kCacheLookup, i, root->index());
      if (result_cache_.Get(key).has_value()) return;
    }
    kws::serve::CachedResult fill;
    switch (inputs_.workload()) {
      case Workload::kRelCold:
      case Workload::kRelHotWrites:
        fill.relational = Relational(query, i, rec, root->index());
        break;
      case Workload::kRelSharded:
        fill.relational = Sharded(query, i, rec, root->index());
        break;
      case Workload::kXml:
        fill.xml = Xml(query, i, rec, root->index());
        break;
    }
    {
      ScopedSpan s(rec, span::kCacheFill, i, root->index());
      result_cache_.Put(key, fill);
    }
    root.reset();
    // The reference: the facade answers the same query once more, timed
    // as a root span of its own.
    std::string diff;
    if (fill.relational != nullptr && dep_->engine != nullptr) {
      kws::engine::EngineOptions eo;
      eo.k = Shape::kTopK;
      eo.num_threads = Shape::kSearchThreads;
      eo.tuple_cache = facade_tuple_cache_.get();
      EngineResponse want;
      {
        ScopedSpan s(rec, span::kEngineFacade, i);
        want = dep_->engine->Search(query, eo);
      }
      diff = DiffEngineResponses(*fill.relational, want);
    } else if (fill.relational != nullptr) {
      diff = DiffEngineResponses(
          *fill.relational,
          CombinedReference(*dep_->sharded_corpus->combined, query,
                            Shape::kTopK));
    } else {
      kws::engine::XmlEngineOptions xo;
      xo.k = Shape::kTopK;
      XmlResponse want;
      {
        ScopedSpan s(rec, span::kXmlFacade, i);
        want = dep_->xml->Search(query, xo);
      }
      diff = DiffXmlResponses(*fill.xml, want);
    }
    if (!diff.empty()) Fail("traced read '" + query + "': " + diff);
  }

  /// Applies write batch `b` in the serving layer's order.
  void Write(size_t b, SpanRecorder& rec) {
    const uint64_t id = kWriteIdBase + b;
    std::vector<kws::relational::RowInsert> rows =
        MakeWriteBatch(*dep_->dblp, inputs_.seed(), b);
    ScopedSpan root(rec, span::kWrite, id);
    kws::Result<kws::relational::WriteReport> report =
        kws::Status::Internal("not applied");
    {
      ScopedSpan s(rec, span::kApplyInserts, id, root.index());
      report = dep_->dblp->db->ApplyInserts(std::move(rows));
      if (report.ok()) {
        s.Count("touched_terms",
                static_cast<double>(report.value().touched_terms.size()));
      }
    }
    if (!report.ok()) {
      Fail("traced write " + std::to_string(b) + ": " +
           report.status().ToString());
      return;
    }
    {
      ScopedSpan s(rec, span::kNotifyWrite, id, root.index());
      dep_->server->NotifyWrite(report.value());
    }
    facade_tuple_cache_->Invalidate(report.value().touched_terms);
  }

 private:
  void Fail(std::string message) {
    ++out_->failures;
    if (out_->messages.size() < kMaxMessages) {
      out_->messages.push_back(std::move(message));
    }
  }

  /// `KeywordSearchEngine::Search` with the CN backend, stage by stage.
  std::shared_ptr<EngineResponse> Relational(const std::string& query,
                                             uint64_t id, SpanRecorder& rec,
                                             int64_t parent) {
    const kws::relational::Database& db = *dep_->dblp->db;
    auto response = std::make_shared<EngineResponse>();
    ScopedSpan stages(rec, span::kEngineStages, id, parent);
    const int64_t p = stages.index();
    std::vector<std::string> tokens;
    {
      ScopedSpan s(rec, span::kClean, id, p);
      tokens = combined_index_.tokenizer().Tokenize(query);
      kws::clean::CleanedQuery cleaned = cleaner_->Clean(query);
      if (!cleaned.tokens.empty()) {
        response->query_was_corrected = (cleaned.tokens != tokens);
        tokens = std::move(cleaned.tokens);
      }
    }
    response->cleaned_query = tokens;
    if (tokens.empty()) return response;
    const std::string normalized = JoinWords(tokens);
    std::vector<std::string> keywords =
        kws::text::Tokenizer().Tokenize(normalized);
    if (keywords.size() > 16) keywords.resize(16);
    if (keywords.empty()) return response;

    std::optional<kws::cn::TupleSets> ts;
    {
      ScopedSpan s(rec, span::kTupleSets, id, p);
      ts.emplace(db, keywords, dep_->server->tuple_cache());
      size_t rows = 0;
      for (kws::relational::TableId t = 0; t < db.num_tables(); ++t) {
        for (kws::cn::KeywordMask m = 1; m <= ts->full_mask(); ++m) {
          rows += ts->Get(t, m).size();
        }
      }
      s.Count("rows", static_cast<double>(rows));
    }
    std::vector<kws::cn::CandidateNetwork> cns;
    {
      ScopedSpan s(rec, span::kEnumerate, id, p);
      kws::cn::CnEnumOptions eo;
      eo.max_size = kMaxCnSize;
      cns = kws::cn::EnumerateCandidateNetworks(db, ts->table_masks(),
                                                ts->full_mask(), eo);
      s.Count("cns", static_cast<double>(cns.size()));
    }
    std::vector<kws::cn::SearchResult> ranked;
    {
      ScopedSpan s(rec, span::kExecute, id, p);
      kws::cn::SearchOptions so;
      so.k = Shape::kTopK;
      so.max_cn_size = kMaxCnSize;
      so.num_threads = Shape::kSearchThreads;
      kws::cn::SearchStats stats;
      ranked = kws::cn::EvaluateCns(db, cns, *ts, so, &stats);
      s.Count("cns_evaluated", static_cast<double>(stats.cns_evaluated));
      s.Count("join_lookups", static_cast<double>(stats.join_lookups));
      s.Count("results_materialized",
              static_cast<double>(stats.results_materialized));
      s.Count("results", static_cast<double>(ranked.size()));
    }
    {
      ScopedSpan s(rec, span::kRender, id, p);
      for (const kws::cn::SearchResult& r : ranked) {
        kws::engine::EngineResult er;
        er.score = r.score;
        er.tuples = r.tuples;
        er.description = RenderTuples(db, r.tuples);
        response->results.push_back(std::move(er));
      }
    }
    if (!response->results.empty()) {
      ScopedSpan s(rec, span::kSuggest, id, p);
      for (const kws::refine::SuggestedTerm& t : kws::refine::SuggestTerms(
               combined_index_, normalized,
               kws::refine::TermRanking::kRelevance, kSuggestions)) {
        response->suggestions.push_back(t.term);
      }
    }
    return response;
  }

  /// The sharded backend is one public call; the serving layer then
  /// repackages its answer as a relational response.
  std::shared_ptr<EngineResponse> Sharded(const std::string& query,
                                          uint64_t id, SpanRecorder& rec,
                                          int64_t parent) {
    kws::shard::ShardedResponse sr;
    {
      ScopedSpan s(rec, span::kShardSearch, id, parent);
      kws::shard::ShardedSearchOptions so;
      so.k = Shape::kTopK;
      so.num_threads = Shape::kSearchThreads;
      sr = dep_->sharded->Search(query, so);
      size_t shard_results = 0;
      size_t cns_evaluated = 0;
      for (size_t n : sr.stats.shard_results) shard_results += n;
      for (size_t n : sr.stats.shard_cns_evaluated) cns_evaluated += n;
      s.Count("shards_total", static_cast<double>(sr.stats.shards_total));
      s.Count("shards_searched",
              static_cast<double>(sr.stats.shards_searched));
      s.Count("shard_results", static_cast<double>(shard_results));
      s.Count("results", static_cast<double>(sr.results.size()));
      s.Count("cns_evaluated", static_cast<double>(cns_evaluated));
    }
    ScopedSpan s(rec, span::kRepackage, id, parent);
    auto response = std::make_shared<EngineResponse>();
    response->status = sr.status;
    response->cleaned_query = sr.keywords;
    for (size_t i = 0; i < sr.results.size(); ++i) {
      kws::engine::EngineResult er;
      er.score = sr.results[i].score;
      er.tuples = std::move(sr.results[i].tuples);
      er.description = std::move(sr.descriptions[i]);
      response->results.push_back(std::move(er));
    }
    return response;
  }

  /// `XmlKeywordSearch::Search` with SLCA semantics, stage by stage.
  std::shared_ptr<XmlResponse> Xml(const std::string& query, uint64_t id,
                                   SpanRecorder& rec, int64_t parent) {
    const kws::xml::XmlTree& tree = dep_->bib->tree;
    auto response = std::make_shared<XmlResponse>();
    ScopedSpan stages(rec, span::kXmlStages, id, parent);
    const int64_t p = stages.index();
    std::vector<std::string> keywords;
    {
      ScopedSpan s(rec, span::kXmlTokenize, id, p);
      keywords = kws::text::Tokenizer().Tokenize(query);
    }
    if (keywords.empty()) return response;
    std::vector<std::vector<kws::xml::XmlNodeId>> lists;
    {
      ScopedSpan s(rec, span::kMatchLists, id, p);
      lists = kws::lca::MatchLists(tree, keywords);
      size_t matches = 0;
      for (const auto& l : lists) matches += l.size();
      s.Count("matches", static_cast<double>(matches));
    }
    if (lists.empty()) return response;
    std::vector<kws::xml::XmlNodeId> anchors;
    {
      ScopedSpan s(rec, span::kSlca, id, p);
      anchors = kws::lca::SlcaIndexedLookupEager(tree, lists);
      s.Count("anchors", static_cast<double>(anchors.size()));
    }
    std::vector<kws::lca::ScoredXmlResult> ranked;
    {
      ScopedSpan s(rec, span::kRank, id, p);
      ranked = kws::lca::RankXmlResults(tree, anchors, keywords, elem_rank_);
    }
    for (const kws::lca::ScoredXmlResult& sr : ranked) {
      if (response->results.size() >= Shape::kTopK) break;
      kws::engine::XmlResult r;
      r.anchor = sr.root;
      r.score = sr.score;
      {
        ScopedSpan s(rec, span::kXSeek, id, p);
        r.display_root =
            kws::lca::InferReturnNodes(tree, path_stats_, keywords, sr.root)
                .result_root;
      }
      {
        ScopedSpan s(rec, span::kSnippet, id, p);
        r.snippet = kws::analyze::SnippetToString(
            tree, kws::analyze::GenerateSnippet(
                      tree, path_stats_, r.display_root, keywords,
                      {.max_items = kSnippetItems}));
      }
      response->results.push_back(std::move(r));
    }
    {
      ScopedSpan s(rec, span::kCluster, id, p);
      response->clusters =
          kws::analyze::ClusterByContext(tree, anchors, keywords);
    }
    stages.Count("results", static_cast<double>(response->results.size()));
    stages.Count("anchors", static_cast<double>(anchors.size()));
    return response;
  }

  const Inputs& inputs_;
  ReplayResult* out_;
  std::unique_ptr<Deployment> dep_;
  kws::serve::ShardedResultCache result_cache_;
  // Relational: the facade's combined index and cleaner, and a second
  // tuple-set cache for the reference facade call so both calls see the
  // same cache state.
  kws::text::InvertedIndex combined_index_;
  std::unique_ptr<kws::clean::QueryCleaner> cleaner_;
  std::unique_ptr<kws::cn::TupleSetCache> facade_tuple_cache_;
  // XML: the facade's path statistics and ElemRank.
  kws::xml::PathStatistics path_stats_;
  std::vector<double> elem_rank_;
};

}  // namespace

ReplayResult Replay(const Inputs& inputs, double seconds) {
  ReplayResult out;
  Replayer replayer(inputs, &out);
  {
    SpanRecorder warmup;  // the warm-up prefix is replayed, not recorded
    for (size_t i = 0; i < inputs.warmup_length(); ++i) {
      replayer.Read(i, warmup);
    }
  }
  const bool writes = inputs.workload() == Workload::kRelHotWrites;
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = inputs.warmup_length(); i < inputs.length(); ++i) {
    if (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count() >= seconds) {
      break;
    }
    replayer.Read(i, out.spans);
    ++out.reads;
    if (writes && out.reads % Shape::kReadsPerWrite == 0) {
      replayer.Write(out.reads / Shape::kReadsPerWrite, out.spans);
      ++out.writes;
    }
  }
  return out;
}

}  // namespace servebench
