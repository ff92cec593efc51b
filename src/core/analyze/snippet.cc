#include "core/analyze/snippet.h"

#include <algorithm>
#include <cstdint>
#include <set>

#include "common/check.h"

namespace kws::analyze {

using xml::XmlNodeId;
using xml::XmlTree;

std::vector<SnippetItem> GenerateSnippet(const XmlTree& tree,
                                         const xml::PathStatistics& stats,
                                         XmlNodeId result_root,
                                         const std::vector<std::string>& keywords,
                                         const SnippetOptions& options) {
  KWS_CHECK_MSG(stats.feature_begin.size() == tree.size() + 1,
                "PathStatistics were computed for a different tree, or the "
                "tree grew after ComputePathStatistics");
  std::vector<SnippetItem> items;
  std::set<XmlNodeId> chosen;
  const XmlNodeId end = tree.SubtreeEnd(result_root);

  auto add = [&](XmlNodeId n, SnippetItem::Reason reason) {
    if (items.size() >= options.max_items) return false;
    if (!chosen.insert(n).second) return true;
    items.push_back(SnippetItem{n, reason});
    return true;
  };

  // 1. Key of the result: the first non-repeatable text child ("name",
  //    "title", ...) identifies the result — self-containment.
  for (XmlNodeId c : tree.children(result_root)) {
    auto it = stats.path_repeatable.find(tree.LabelPath(c));
    const bool repeatable = it != stats.path_repeatable.end() && it->second;
    if (!repeatable && !tree.text(c).empty()) {
      add(c, SnippetItem::Reason::kKey);
      break;
    }
  }
  // 2. One match node per query keyword — query bias.
  for (const std::string& k : keywords) {
    for (XmlNodeId m : tree.MatchNodes(k)) {
      if (m >= result_root && m <= end) {
        add(m, SnippetItem::Reason::kKeyword);
        break;
      }
    }
  }
  // 3. Dominant features: the most frequent (tag, term) pairs among the
  //    result's descendants — informativeness. Preorder ids make the
  //    subtree's entries one slice of the precomputed feature table;
  //    ranking is (count desc, id asc), and id order is (tag, term) order.
  std::vector<uint32_t> count(stats.num_features, 0);
  std::vector<XmlNodeId> first(stats.num_features);
  std::vector<uint32_t> touched;
  for (XmlNodeId n = result_root; n <= end; ++n) {
    for (uint32_t p = stats.feature_begin[n]; p < stats.feature_begin[n + 1];
         ++p) {
      const uint32_t f = stats.features[p];
      if (count[f]++ == 0) {
        first[f] = n;
        touched.push_back(f);
      }
    }
  }
  std::erase_if(touched, [&](uint32_t f) {
    return count[f] < 2;  // dominant means repeated
  });
  std::sort(touched.begin(), touched.end(), [&](uint32_t a, uint32_t b) {
    if (count[a] != count[b]) return count[a] > count[b];
    return a < b;
  });
  for (uint32_t f : touched) {
    if (items.size() >= options.max_items) break;
    add(first[f], SnippetItem::Reason::kDominantFeature);
  }
  // 4. Pad with entity children if there is room.
  for (XmlNodeId c : tree.children(result_root)) {
    if (items.size() >= options.max_items) break;
    auto it = stats.path_repeatable.find(tree.LabelPath(c));
    if (it != stats.path_repeatable.end() && it->second) {
      add(c, SnippetItem::Reason::kEntity);
    }
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
