#include "xml/stats.h"

#include <algorithm>
#include <map>
#include <utility>

#include "text/tokenizer.h"

namespace kws::xml {

PathStatistics ComputePathStatistics(const XmlTree& tree) {
  PathStatistics stats;
  const size_t size = tree.size();
  stats.total_elements = size;
  double depth_sum = 0;
  // Label path -> id, and id -> path, in first-seen order. A node's path
  // extends its parent's, which preorder ids visit first.
  std::unordered_map<std::string, uint32_t> path_ids;
  std::vector<std::string> paths;
  // (tag, term) -> provisional id, in first-seen order.
  std::map<std::pair<std::string, std::string>, uint32_t> interned;
  std::pair<std::string, std::string> key;
  const text::Tokenizer tokenizer;
  stats.path_id.reserve(size);
  stats.feature_begin.reserve(size + 1);
  for (XmlNodeId n = 0; n < size; ++n) {
    const XmlNodeId parent = tree.parent(n);
    std::string path =
        (parent == kNoXmlNode ? std::string() : paths[stats.path_id[parent]]) +
        "/" + tree.tag(n);
    const auto [it, inserted] =
        path_ids.try_emplace(path, static_cast<uint32_t>(paths.size()));
    if (inserted) paths.push_back(std::move(path));
    stats.path_id.push_back(it->second);
    depth_sum += tree.depth(n);
    // Snippet features of the node's own text.
    stats.feature_begin.push_back(
        static_cast<uint32_t>(stats.features.size()));
    key.first = tree.tag(n);
    tokenizer.ForEachToken(tree.text(n), [&](std::string_view term) {
      key.second.assign(term);
      const auto next = static_cast<uint32_t>(interned.size());
      stats.features.push_back(interned.try_emplace(key, next).first->second);
    });
  }
  stats.feature_begin.push_back(static_cast<uint32_t>(stats.features.size()));
  stats.num_paths = paths.size();

  // Repeatability: a path repeats when some parent has two children on
  // it; same-tag siblings are exactly same-path siblings.
  std::vector<uint32_t> siblings(paths.size(), 0);
  std::vector<bool> repeatable(paths.size(), false);
  std::vector<size_t> count(paths.size(), 0);
  for (XmlNodeId n = 0; n < size; ++n) {
    ++count[stats.path_id[n]];
    for (XmlNodeId c : tree.children(n)) {
      if (++siblings[stats.path_id[c]] > 1) repeatable[stats.path_id[c]] = true;
    }
    for (XmlNodeId c : tree.children(n)) siblings[stats.path_id[c]] = 0;
  }
  for (uint32_t id = 0; id < paths.size(); ++id) {
    stats.path_count[paths[id]] = count[id];
    // Only child paths are recorded, as only they can repeat.
    if (id > 0) stats.path_repeatable[paths[id]] = repeatable[id];
  }
  stats.node_repeatable.resize(size);
  for (XmlNodeId n = 0; n < size; ++n) {
    stats.node_repeatable[n] = repeatable[stats.path_id[n]];
  }

  // Renumber provisional feature ids into (tag, term) order.
  std::vector<uint32_t> ordered(interned.size());
  uint32_t rank = 0;
  for (const auto& [pair, provisional] : interned) ordered[provisional] = rank++;
  for (uint32_t& f : stats.features) f = ordered[f];
  stats.num_features = interned.size();

  // Dominant features of every subtree. Subtree extents fold upward in a
  // reverse sweep (children have larger ids than their parent), computed
  // here because XmlTree::SubtreeEnd needs the keyword index, which these
  // statistics do not; each subtree's features are one slice of the table.
  std::vector<XmlNodeId> subtree_end(size);
  for (size_t i = size; i > 0; --i) {
    const XmlNodeId n = static_cast<XmlNodeId>(i - 1);
    subtree_end[n] = n;
    for (XmlNodeId c : tree.children(n)) {
      subtree_end[n] = std::max(subtree_end[n], subtree_end[c]);
    }
  }
  std::vector<uint32_t> feature_count(stats.num_features, 0);
  std::vector<XmlNodeId> first(stats.num_features);
  std::vector<uint32_t> touched;
  stats.dominant_begin.reserve(size + 1);
  for (XmlNodeId r = 0; r < size; ++r) {
    stats.dominant_begin.push_back(static_cast<uint32_t>(stats.dominant.size()));
    touched.clear();
    for (XmlNodeId n = r; n <= subtree_end[r]; ++n) {
      for (uint32_t p = stats.feature_begin[n];
           p < stats.feature_begin[n + 1]; ++p) {
        const uint32_t f = stats.features[p];
        if (feature_count[f]++ == 0) {
          first[f] = n;
          touched.push_back(f);
        }
      }
    }
    std::sort(touched.begin(), touched.end(), [&](uint32_t a, uint32_t b) {
      if (feature_count[a] != feature_count[b]) {
        return feature_count[a] > feature_count[b];
      }
      return a < b;
    });
    for (uint32_t f : touched) {
      if (feature_count[f] >= 2) stats.dominant.push_back(first[f]);
      feature_count[f] = 0;
    }
  }
  stats.dominant_begin.push_back(static_cast<uint32_t>(stats.dominant.size()));
  stats.avg_depth =
      size == 0 ? 0 : depth_sum / static_cast<double>(size);
  return stats;
}

}  // namespace kws::xml
