#include "core/lca/xseek.h"

#include "common/check.h"
#include "text/postings.h"

namespace kws::lca {

using xml::XmlNodeId;
using xml::XmlTree;

NodeCategory Classify(const XmlTree& tree, const xml::PathStatistics& stats,
                      XmlNodeId n) {
  if (stats.node_repeatable[n]) return NodeCategory::kEntity;
  if (tree.children(n).empty() && !tree.text(n).empty()) {
    return NodeCategory::kAttribute;
  }
  return NodeCategory::kConnection;
}

std::vector<KeywordRole> ClassifyKeywords(
    const XmlTree& tree, const std::vector<std::string>& keywords) {
  std::vector<KeywordRole> roles;
  roles.reserve(keywords.size());
  for (const std::string& k : keywords) {
    // Tag-index probe: O(1) per keyword instead of a full-document sweep
    // building a tag set per query.
    roles.push_back(KeywordRole{k, !tree.TagNodes(k).empty()});
  }
  return roles;
}

XSeekResult InferReturnNodes(const XmlTree& tree,
                             const xml::PathStatistics& stats,
                             const std::vector<std::string>& keywords,
                             XmlNodeId anchor, trace::Tracer* tracer) {
  KWS_CHECK_MSG(stats.node_repeatable.size() == tree.size(),
                "PathStatistics were computed for a different tree");
  trace::TraceSpan span(tracer, "lca.xseek");
  XSeekResult out;
  const std::vector<KeywordRole> roles = ClassifyKeywords(tree, keywords);

  // Result root: the nearest entity ancestor-or-self of the anchor.
  XmlNodeId root = anchor;
  XmlNodeId cur = anchor;
  bool found_entity = false;
  uint64_t classified = 0;
  for (;;) {
    ++classified;
    if (Classify(tree, stats, cur) == NodeCategory::kEntity) {
      root = cur;
      found_entity = true;
      break;
    }
    if (cur == 0) break;
    cur = tree.parent(cur);
  }
  if (!found_entity) root = anchor;
  out.result_root = root;
  span.AddCounter("classified", classified);

  // Explicit return nodes: keywords that name tags select the matching
  // descendants of the result root; when the nearest entity does not
  // contain such a node (e.g. query "mark, title" anchored at an author),
  // widen to enclosing ancestors until one does.
  bool has_tag_keyword = false;
  for (const KeywordRole& role : roles) has_tag_keyword |= role.is_tag_name;
  if (has_tag_keyword) {
    XmlNodeId scope = root;
    for (;;) {
      const XmlNodeId end = tree.SubtreeEnd(scope);
      for (const KeywordRole& role : roles) {
        if (!role.is_tag_name) continue;
        // Matching descendants = the slice of the (sorted, doc-order)
        // per-tag node list inside [scope, SubtreeEnd(scope)]: one seek
        // plus the matches, instead of scanning the whole subtree.
        const std::vector<XmlNodeId>& tagged = tree.TagNodes(role.keyword);
        const text::PostingSpan span{tagged};
        for (size_t i = text::SeekGE(span, 0, scope);
             i < span.size && span[i] <= end; ++i) {
          out.return_nodes.push_back(span[i]);
        }
      }
      if (!out.return_nodes.empty()) {
        out.result_root = scope;
        span.AddCounter("return_nodes", out.return_nodes.size());
        return out;
      }
      if (scope == 0) break;
      scope = tree.parent(scope);
    }
  }

  // Implicit: the entity itself plus its attribute children.
  out.return_nodes.push_back(root);
  for (XmlNodeId c : tree.children(root)) {
    if (Classify(tree, stats, c) == NodeCategory::kAttribute) {
      out.return_nodes.push_back(c);
    }
  }
  span.AddCounter("return_nodes", out.return_nodes.size());
  return out;
}

}  // namespace kws::lca
