#ifndef KWDB_CORE_ANALYZE_SNIPPET_H_
#define KWDB_CORE_ANALYZE_SNIPPET_H_

#include <string>
#include <vector>

#include "xml/stats.h"
#include "xml/tree.h"

namespace kws::analyze {

/// One line of a generated snippet.
struct SnippetItem {
  xml::XmlNodeId node = 0;
  /// Why the node made it into the snippet.
  enum class Reason { kKeyword, kKey, kEntity, kDominantFeature } reason;
};

/// Tuning knobs for greedy snippet construction.
struct SnippetOptions {
  /// Maximum items in a snippet (the "concise" constraint; the exact
  /// optimization is NP-hard, this module is the standard greedy).
  size_t max_items = 6;
};

/// Query-biased snippet generation for one XML result subtree (Huang et
/// al., SIGMOD 08; tutorial slide 148). The snippet is self-contained
/// (includes the result's identifying key), informative (keyword matches
/// and dominant features) and concise (bounded size). Items are returned
/// in document order. `stats` must be `ComputePathStatistics(tree)`: the
/// key and entity steps read its per-node repeatability, the dominant
/// features are its ranked list for `result_root`, and statistics of a
/// tree of another size abort (KWS_CHECK). The cost is set by the items
/// and the keywords' match lists, not by the subtree's size.
std::vector<SnippetItem> GenerateSnippet(
    const xml::XmlTree& tree, const xml::PathStatistics& stats,
    xml::XmlNodeId result_root, const std::vector<std::string>& keywords,
    const SnippetOptions& options = {});

/// Renders snippet items as "path: text" lines.
std::string SnippetToString(const xml::XmlTree& tree,
                            const std::vector<SnippetItem>& items);

}  // namespace kws::analyze

#endif  // KWDB_CORE_ANALYZE_SNIPPET_H_
