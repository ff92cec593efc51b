#include "core/engine/xml_engine.h"

#include "core/lca/slca.h"
#include "core/lca/xrank.h"
#include "text/tokenizer.h"

namespace kws::engine {

XmlKeywordSearch::XmlKeywordSearch(const xml::XmlTree& tree)
    : tree_(tree),
      stats_(xml::ComputePathStatistics(tree)),
      elem_rank_(lca::ElemRank(tree)) {}

XmlResponse XmlKeywordSearch::Search(const std::string& query,
                                     const XmlEngineOptions& options) const {
  XmlResponse response;
  trace::Tracer* const tracer = options.trace;
  trace::TraceSpan search_span(tracer, "xml.search");
  const Deadline& deadline = options.deadline;
  auto expired = [&] {
    trace::AddEvent(tracer, "xml.deadline.hit");
    response.status =
        Status::DeadlineExceeded("query budget exhausted; partial response");
    return response;
  };
  if (deadline.Expired()) return expired();
  const std::vector<std::string> keywords =
      text::Tokenizer().Tokenize(query);
  if (keywords.empty()) return response;
  search_span.AddCounter("keywords", keywords.size());
  std::vector<std::vector<xml::XmlNodeId>> lists;
  {
    trace::TraceSpan match_span(tracer, "xml.match_lists");
    lists = lca::MatchLists(tree_, keywords);
    match_span.AddCounter("lists", lists.size());
    size_t matches = 0;
    for (const auto& l : lists) matches += l.size();
    match_span.AddCounter("matches", matches);
  }
  if (lists.empty()) return response;
  if (deadline.Expired()) return expired();

  std::vector<xml::XmlNodeId> anchors =
      options.semantics == XmlSemantics::kSlca
          ? lca::SlcaIndexedLookupEager(tree_, lists, nullptr, &deadline,
                                        tracer)
          : lca::ElcaIndexed(tree_, lists, nullptr, &deadline, tracer);
  if (deadline.Expired()) return expired();

  // Rank, truncate, render.
  std::vector<lca::ScoredXmlResult> ranked;
  {
    trace::TraceSpan rank_span(tracer, "xml.rank");
    ranked = lca::RankXmlResults(tree_, anchors, keywords, elem_rank_);
    rank_span.AddCounter("anchors", anchors.size());
  }
  {
    trace::TraceSpan render_span(tracer, "xml.render");
    for (const lca::ScoredXmlResult& sr : ranked) {
      if (response.results.size() >= options.k) break;
      if (deadline.Expired()) {
        render_span.AddCounter("results", response.results.size());
        return expired();
      }
      XmlResult r;
      r.anchor = sr.root;
      r.score = sr.score;
      const lca::XSeekResult xr =
          lca::InferReturnNodes(tree_, stats_, keywords, sr.root, tracer);
      r.display_root = xr.result_root;
      r.snippet = analyze::SnippetToString(
          tree_,
          analyze::GenerateSnippet(tree_, stats_, r.display_root, keywords,
                                   {.max_items = options.snippet_items}));
      response.results.push_back(std::move(r));
    }
    render_span.AddCounter("results", response.results.size());
  }
  if (options.cluster) {
    if (deadline.Expired()) return expired();
    trace::TraceSpan cluster_span(tracer, "xml.cluster");
    response.clusters = analyze::ClusterByContext(tree_, stats_, anchors, keywords);
    cluster_span.AddCounter("clusters", response.clusters.size());
  }
  search_span.AddCounter("results", response.results.size());
  return response;
}

XmlExplainResult XmlKeywordSearch::Explain(
    const std::string& query, const XmlEngineOptions& options) const {
  XmlExplainResult out;
  trace::Tracer tracer;
  XmlEngineOptions traced = options;
  traced.trace = &tracer;
  out.response = Search(query, traced);
  out.tree = tracer.RenderTree();
  out.json = tracer.RenderJson();
  return out;
}

}  // namespace kws::engine
