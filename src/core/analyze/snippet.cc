#include "core/analyze/snippet.h"

#include <algorithm>
#include <cstdint>

#include "common/check.h"
#include "text/postings.h"

namespace kws::analyze {

using xml::XmlNodeId;
using xml::XmlTree;

std::vector<SnippetItem> GenerateSnippet(const XmlTree& tree,
                                         const xml::PathStatistics& stats,
                                         XmlNodeId result_root,
                                         const std::vector<std::string>& keywords,
                                         const SnippetOptions& options) {
  KWS_CHECK_MSG(stats.dominant_begin.size() == tree.size() + 1,
                "PathStatistics were computed for a different tree, or the "
                "tree grew after ComputePathStatistics");
  std::vector<SnippetItem> items;
  const XmlNodeId end = tree.SubtreeEnd(result_root);

  // The chosen nodes are the items' nodes; a snippet is a handful of them.
  auto add = [&](XmlNodeId n, SnippetItem::Reason reason) {
    if (items.size() >= options.max_items) return;
    for (const SnippetItem& item : items) {
      if (item.node == n) return;
    }
    items.push_back(SnippetItem{n, reason});
  };

  // 1. Key of the result: the first non-repeatable text child ("name",
  //    "title", ...) identifies the result — self-containment.
  for (XmlNodeId c : tree.children(result_root)) {
    if (!stats.node_repeatable[c] && !tree.text(c).empty()) {
      add(c, SnippetItem::Reason::kKey);
      break;
    }
  }
  // 2. One match node per query keyword — query bias: the first match at
  //    or after the root, if it lies inside the subtree.
  for (const std::string& k : keywords) {
    const text::PostingSpan matches{tree.MatchNodes(k)};
    const size_t i = text::SeekGE(matches, 0, result_root);
    if (i < matches.size && matches[i] <= end) {
      add(matches[i], SnippetItem::Reason::kKeyword);
    }
  }
  // 3. Dominant features: the most frequent (tag, term) pairs among the
  //    result's descendants — informativeness. Ranked once per subtree by
  //    ComputePathStatistics (count desc, then (tag, term) order).
  for (uint32_t p = stats.dominant_begin[result_root];
       p < stats.dominant_begin[result_root + 1]; ++p) {
    if (items.size() >= options.max_items) break;
    add(stats.dominant[p], SnippetItem::Reason::kDominantFeature);
  }
  // 4. Pad with entity children if there is room.
  for (XmlNodeId c : tree.children(result_root)) {
    if (items.size() >= options.max_items) break;
    if (stats.node_repeatable[c]) add(c, SnippetItem::Reason::kEntity);
  }
  std::sort(items.begin(), items.end(),
            [](const SnippetItem& a, const SnippetItem& b) {
              return a.node < b.node;
            });
  return items;
}

std::string SnippetToString(const XmlTree& tree,
                            const std::vector<SnippetItem>& items) {
  std::string out;
  for (const SnippetItem& item : items) {
    out += tree.LabelPath(item.node);
    out += ": ";
    out += tree.text(item.node);
    out += '\n';
  }
  return out;
}

}  // namespace kws::analyze
