// xml_search: the XML side of the tutorial — SLCA/ELCA keyword search,
// XSeek return-node inference, XReal return-type inference, query-biased
// snippets, and result clustering by context and by keyword role.
//
//   ./example_xml_search [keyword keyword...]

#include <cstdio>
#include <string>
#include <vector>

#include "core/analyze/clustering.h"
#include "core/analyze/snippet.h"
#include "core/lca/slca.h"
#include "core/lca/xreal.h"
#include "core/lca/xseek.h"
#include "core/infer/xpath_gen.h"
#include "xml/bibgen.h"
#include "xml/stats.h"

int main(int argc, char** argv) {
  kws::xml::BibDocument doc = kws::xml::MakeBibDocument(
      {.seed = 9, .num_venues = 9, .papers_per_venue = 8});
  const kws::xml::XmlTree& tree = doc.tree;
  std::printf("document: %zu elements\n", tree.size());

  std::vector<std::string> query;
  for (int i = 1; i < argc; ++i) query.push_back(argv[i]);
  if (query.empty()) query = {doc.vocabulary[0], doc.vocabulary[2]};
  std::printf("query: {");
  for (size_t i = 0; i < query.size(); ++i) {
    std::printf("%s%s", i ? ", " : "", query[i].c_str());
  }
  std::printf("}\n");

  auto lists = kws::lca::MatchLists(tree, query);
  if (lists.empty()) {
    std::printf("some keyword has no match; try other terms.\n");
    return 0;
  }
  const auto slca = kws::lca::SlcaIndexedLookupEager(tree, lists);
  const auto elca = kws::lca::ElcaIndexed(tree, lists);
  std::printf("\n%zu SLCA results, %zu ELCA results\n", slca.size(),
              elca.size());

  const kws::xml::PathStatistics stats = ComputePathStatistics(tree);

  // XReal: the most promising return node type for this query.
  auto types = kws::lca::InferReturnTypes(tree, query);
  std::printf("\ninferred return types (XReal):\n");
  for (size_t i = 0; i < types.size() && i < 3; ++i) {
    std::printf("  [%.3f] %s\n", types[i].score,
                types[i].label_path.c_str());
  }

  // Per-result: XSeek return nodes + a snippet.
  std::printf("\nresults:\n");
  for (size_t i = 0; i < slca.size() && i < 3; ++i) {
    const kws::lca::XSeekResult xr =
        kws::lca::InferReturnNodes(tree, stats, query, slca[i]);
    std::printf("-- result %zu at %s (display root %s)\n", i + 1,
                tree.LabelPath(slca[i]).c_str(),
                tree.LabelPath(xr.result_root).c_str());
    const auto snippet = kws::analyze::GenerateSnippet(
        tree, stats, xr.result_root, query, {.max_items = 4});
    std::printf("%s", SnippetToString(tree, snippet).c_str());
  }

  // Probabilistic structured-query generation (Petkova-style).
  std::printf("\ngenerated structured queries:\n");
  for (const auto& q : kws::infer::GenerateXPathQueries(tree, query)) {
    std::printf("  [%.4f] %s  (%zu results)\n", q.probability,
                q.ToString(query).c_str(), q.results.size());
  }

  // Clustering: by root context (XBridge) and by keyword role.
  std::printf("\nclusters by context (XBridge):\n");
  for (const auto& c : kws::analyze::ClusterByContext(tree, stats, slca, query)) {
    std::printf("  [%.2f] %-28s %zu results\n", c.score, c.label.c_str(),
                c.results.size());
  }
  std::printf("\nclusters by keyword role:\n");
  for (const auto& c : kws::analyze::ClusterByKeywordRoles(tree, slca, query)) {
    std::printf("  %-40s %zu results\n", c.label.c_str(), c.results.size());
  }
  return 0;
}
