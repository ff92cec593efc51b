#include "xml/stats.h"

#include <map>
#include <utility>

#include "text/tokenizer.h"

namespace kws::xml {

PathStatistics ComputePathStatistics(const XmlTree& tree) {
  PathStatistics stats;
  stats.total_elements = tree.size();
  double depth_sum = 0;
  // (tag, term) -> provisional id, in first-seen order.
  std::map<std::pair<std::string, std::string>, uint32_t> interned;
  std::pair<std::string, std::string> key;
  const text::Tokenizer tokenizer;
  stats.feature_begin.reserve(tree.size() + 1);
  for (XmlNodeId n = 0; n < tree.size(); ++n) {
    const std::string path = tree.LabelPath(n);
    ++stats.path_count[path];
    depth_sum += tree.depth(n);
    // Repeatability: count same-tag children under this parent.
    std::unordered_map<std::string, size_t> tag_counts;
    for (XmlNodeId c : tree.children(n)) ++tag_counts[tree.tag(c)];
    for (const auto& [tag, count] : tag_counts) {  // independent per-tag OR-updates -- kwslint: allow(unordered-iteration)
      const std::string child_path = path + "/" + tag;
      bool& repeatable = stats.path_repeatable[child_path];
      repeatable = repeatable || (count > 1);
    }
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
  // Renumber provisional ids into (tag, term) order.
  std::vector<uint32_t> ordered(interned.size());
  uint32_t rank = 0;
  for (const auto& [pair, provisional] : interned) ordered[provisional] = rank++;
  for (uint32_t& f : stats.features) f = ordered[f];
  stats.num_features = interned.size();
  stats.avg_depth =
      tree.size() == 0 ? 0 : depth_sum / static_cast<double>(tree.size());
  return stats;
}

}  // namespace kws::xml
