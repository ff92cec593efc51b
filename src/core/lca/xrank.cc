#include "core/lca/xrank.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "text/postings.h"

namespace kws::lca {

using xml::XmlNodeId;
using xml::XmlTree;

std::vector<double> ElemRank(const XmlTree& tree,
                             const ElemRankOptions& options) {
  const size_t n = tree.size();
  if (n == 0) return {};
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);
  const double base = (1.0 - options.damping) / static_cast<double>(n);
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    std::fill(next.begin(), next.end(), base);
    for (XmlNodeId v = 0; v < n; ++v) {
      // Out-weight: children (downward) + parent (upward).
      const double down = static_cast<double>(tree.children(v).size());
      const double up = tree.parent(v) == xml::kNoXmlNode
                            ? 0.0
                            : options.upward_weight;
      const double total = down + up;
      if (total <= 0) {
        // Dangling leaf-root: redistribute uniformly.
        for (XmlNodeId u = 0; u < n; ++u) {
          next[u] += options.damping * rank[v] / static_cast<double>(n);
        }
        continue;
      }
      for (XmlNodeId c : tree.children(v)) {
        next[c] += options.damping * rank[v] / total;
      }
      if (up > 0) {
        next[tree.parent(v)] += options.damping * rank[v] * up / total;
      }
    }
    rank.swap(next);
  }
  return rank;
}

std::vector<ScoredXmlResult> RankXmlResults(
    const XmlTree& tree, const std::vector<XmlNodeId>& results,
    const std::vector<std::string>& keywords,
    const std::vector<double>& elem_rank, const XRankOptions& options) {
  std::vector<text::PostingSpan> lists;
  lists.reserve(keywords.size());
  for (const std::string& k : keywords) lists.emplace_back(tree.MatchNodes(k));
  // decay^hops by depth difference, grown on demand from the same
  // std::pow values a per-match call would produce.
  std::vector<double> decay_pow;
  std::vector<ScoredXmlResult> out;
  out.reserve(results.size());
  for (XmlNodeId root : results) {
    const XmlNodeId end = tree.SubtreeEnd(root);
    double score = 0;
    for (const text::PostingSpan& matches : lists) {
      double best = 0;
      // The subtree's matches are one slice of the sorted match list.
      for (size_t i = text::SeekGE(matches, 0, root);
           i < matches.size && matches[i] <= end; ++i) {
        const XmlNodeId m = matches[i];
        const uint32_t hops = tree.depth(m) - tree.depth(root);
        while (decay_pow.size() <= hops) {
          decay_pow.push_back(std::pow(
              options.decay, static_cast<double>(decay_pow.size())));
        }
        best = std::max(best, elem_rank[m] * decay_pow[hops]);
      }
      score += best;
    }
    out.push_back(ScoredXmlResult{root, score});
  }
  std::sort(out.begin(), out.end(),
            [](const ScoredXmlResult& a, const ScoredXmlResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.root < b.root;
            });
  return out;
}

}  // namespace kws::lca
