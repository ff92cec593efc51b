#ifndef KWDB_CORE_ENGINE_XML_ENGINE_H_
#define KWDB_CORE_ENGINE_XML_ENGINE_H_

#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "common/trace.h"
#include "core/analyze/clustering.h"
#include "core/analyze/snippet.h"
#include "core/lca/xseek.h"
#include "xml/stats.h"
#include "xml/tree.h"

namespace kws::engine {

/// Which LCA-family semantics the XML engine answers with.
enum class XmlSemantics { kSlca, kElca };

/// Tuning knobs for the XML keyword-search facade.
struct XmlEngineOptions {
  size_t k = 10;
  XmlSemantics semantics = XmlSemantics::kSlca;
  /// Items per snippet.
  size_t snippet_items = 4;
  /// Attach context clusters to the response.
  bool cluster = true;
  /// Per-query budget; on expiry the pipeline stops at the next
  /// cancellation point and the response carries
  /// `StatusCode::kDeadlineExceeded`. Infinite by default.
  Deadline deadline = {};
  /// Optional per-query tracer (not owned, may be null). A non-null
  /// tracer records an `xml.search` span tree covering match-list
  /// resolution, the LCA sweep, ranking, per-result rendering, and
  /// clustering. Fully qualified: the member name shadows the
  /// `kws::trace` namespace in later declarations.
  kws::trace::Tracer* trace = nullptr;
};

/// One ranked XML answer: the matched subtree, the XSeek display root,
/// and a query-biased snippet.
struct XmlResult {
  xml::XmlNodeId anchor = 0;       // the SLCA/ELCA node
  xml::XmlNodeId display_root = 0; // XSeek-inferred result root
  double score = 0;                // XRank-style
  std::string snippet;
};

/// Everything the XML facade returns for one query.
struct XmlResponse {
  /// OK for a complete answer; `kDeadlineExceeded` when the budget cut
  /// the pipeline short (results may then be partial or empty).
  Status status = {};
  std::vector<XmlResult> results;
  std::vector<analyze::ResultCluster> clusters;
};

/// An XML response plus the rendered execution trace that produced it.
struct XmlExplainResult {
  /// The ordinary search response.
  XmlResponse response;
  /// `Tracer::RenderTree()` of the query's span tree.
  std::string tree;
  /// `Tracer::RenderJson()` of the same trace.
  std::string json;
};

/// The XML pipeline facade (tutorial's XSeek demo, slides 17-18): SLCA or
/// ELCA retrieval -> ElemRank scoring -> XSeek return-node inference ->
/// snippets -> context clustering.
class XmlKeywordSearch {
 public:
  /// Precomputes ElemRank and path statistics, including the snippet
  /// feature table, so no query tokenizes result subtrees. `tree` must
  /// outlive the engine and must have its keyword index built.
  explicit XmlKeywordSearch(const xml::XmlTree& tree);

  /// Answers `query` over the indexed tree; honors options.deadline
  /// by returning partial results with kDeadlineExceeded.
  XmlResponse Search(const std::string& query,
                     const XmlEngineOptions& options = {}) const;

  /// Runs `Search` with a fresh tracer and returns the response together
  /// with its rendered trace (tree + JSON). Any tracer already set in
  /// `options` is replaced for the traced run.
  XmlExplainResult Explain(const std::string& query,
                           const XmlEngineOptions& options = {}) const;

 private:
  const xml::XmlTree& tree_;
  xml::PathStatistics stats_;
  std::vector<double> elem_rank_;
};

}  // namespace kws::engine

#endif  // KWDB_CORE_ENGINE_XML_ENGINE_H_
