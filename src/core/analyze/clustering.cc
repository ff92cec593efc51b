#include "core/analyze/clustering.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <utility>

#include "common/check.h"
#include "text/postings.h"

namespace kws::analyze {

using xml::XmlNodeId;
using xml::XmlTree;

double XBridgeResultScore(const XmlTree& tree, XmlNodeId root,
                          const std::vector<std::string>& keywords,
                          double avg_depth) {
  const XmlNodeId end = tree.SubtreeEnd(root);
  double content = 0;
  // Nodes on root->match paths; shared segments counted once (slide 160).
  std::set<XmlNodeId> path_nodes;
  for (const std::string& k : keywords) {
    const text::PostingSpan matches{tree.MatchNodes(k)};
    // ief = N / #nodes containing the token (slide 158).
    const double ief =
        static_cast<double>(tree.size()) / std::max<size_t>(matches.size, 1);
    // The first match inside the subtree: one seek to the root.
    const size_t i = text::SeekGE(matches, 0, root);
    if (i == matches.size || matches[i] > end) continue;
    content += std::log(ief);
    for (XmlNodeId cur = matches[i]; cur != root; cur = tree.parent(cur)) {
      path_nodes.insert(cur);
    }
  }
  // Structural proximity with the long-path discount (slide 159):
  // distance beyond the average document depth counts half.
  double dist = static_cast<double>(path_nodes.size());
  if (dist > avg_depth) dist = avg_depth + (dist - avg_depth) * 0.5;
  return content - dist;
}

namespace {

/// ClusterByContext over any interning of the results' label paths:
/// `path_of(r)` returns r's path id. Each cluster's label is built once.
template <typename PathOf>
std::vector<ResultCluster> GroupByContext(
    const XmlTree& tree, const std::vector<XmlNodeId>& results,
    const std::vector<std::string>& keywords, double avg_depth,
    PathOf path_of) {
  // (path id, position) pairs: sorting groups each path's results
  // contiguously and keeps them in input order.
  std::vector<std::pair<uint32_t, size_t>> order;
  order.reserve(results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    order.emplace_back(path_of(results[i]), i);
  }
  std::sort(order.begin(), order.end());
  std::vector<ResultCluster> out;
  std::vector<std::vector<double>> scores;
  for (size_t i = 0; i < order.size(); ++i) {
    if (i == 0 || order[i].first != order[i - 1].first) {
      out.emplace_back();
      scores.emplace_back();
    }
    const XmlNodeId r = results[order[i].second];
    out.back().results.push_back(r);
    scores.back().push_back(XBridgeResultScore(tree, r, keywords, avg_depth));
  }
  // Cluster score: top-R results, R = min(avg cluster size, |cluster|).
  const double avg_size =
      out.empty() ? 0
                  : static_cast<double>(results.size()) /
                        static_cast<double>(out.size());
  for (size_t c = 0; c < out.size(); ++c) {
    ResultCluster& cluster = out[c];
    std::vector<double>& s = scores[c];
    std::sort(s.rbegin(), s.rend());
    const size_t r = std::min<size_t>(
        s.size(), static_cast<size_t>(std::max(avg_size, 1.0)));
    cluster.score = 0;
    for (size_t i = 0; i < r; ++i) cluster.score += s[i];
    cluster.label = tree.LabelPath(cluster.results.front());
  }
  std::sort(out.begin(), out.end(),
            [](const ResultCluster& a, const ResultCluster& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.label < b.label;
            });
  return out;
}

}  // namespace

std::vector<ResultCluster> ClusterByContext(
    const XmlTree& tree, const xml::PathStatistics& stats,
    const std::vector<XmlNodeId>& results,
    const std::vector<std::string>& keywords) {
  KWS_CHECK_MSG(stats.path_id.size() == tree.size(),
                "PathStatistics were computed for a different tree");
  return GroupByContext(tree, results, keywords, stats.avg_depth,
                        [&](XmlNodeId r) { return stats.path_id[r]; });
}

std::vector<ResultCluster> ClusterByContext(
    const XmlTree& tree, const std::vector<XmlNodeId>& results,
    const std::vector<std::string>& keywords) {
  // The same average depth ComputePathStatistics derives, by a walk.
  double depth_sum = 0;
  for (XmlNodeId n = 0; n < tree.size(); ++n) depth_sum += tree.depth(n);
  const double avg_depth =
      tree.size() == 0 ? 0 : depth_sum / static_cast<double>(tree.size());
  // Label paths interned per call, in first-seen order.
  std::map<std::string, uint32_t> path_ids;
  return GroupByContext(tree, results, keywords, avg_depth, [&](XmlNodeId r) {
    return path_ids
        .try_emplace(tree.LabelPath(r), static_cast<uint32_t>(path_ids.size()))
        .first->second;
  });
}

std::vector<ResultCluster> ClusterByKeywordRoles(
    const XmlTree& tree, const std::vector<XmlNodeId>& results,
    const std::vector<std::string>& keywords) {
  std::map<std::string, ResultCluster> by_role;
  for (XmlNodeId r : results) {
    const XmlNodeId end = tree.SubtreeEnd(r);
    // Role signature: for each keyword, the tag of its first match node
    // within the result (the role the keyword plays).
    std::string signature;
    for (const std::string& k : keywords) {
      signature += k + "@";
      bool found = false;
      for (XmlNodeId m : tree.MatchNodes(k)) {
        if (m >= r && m <= end) {
          signature += tree.tag(m);
          found = true;
          break;
        }
      }
      if (!found) signature += "-";
      signature += " ";
    }
    ResultCluster& c = by_role[signature];
    c.label = signature;
    c.results.push_back(r);
  }
  std::vector<ResultCluster> out;
  for (auto& [sig, cluster] : by_role) {
    cluster.score = static_cast<double>(cluster.results.size());
    out.push_back(std::move(cluster));
  }
  std::sort(out.begin(), out.end(),
            [](const ResultCluster& a, const ResultCluster& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.label < b.label;
            });
  return out;
}

std::vector<ResultCluster> SplitClusterByContext(
    const XmlTree& tree, const ResultCluster& cluster,
    const std::vector<std::string>& keywords, size_t max_clusters) {
  std::vector<ResultCluster> out;
  if (max_clusters == 0) return out;
  // Context signature: per keyword, the label path of the first match's
  // parent inside the result.
  std::map<std::string, ResultCluster> by_context;
  for (XmlNodeId r : cluster.results) {
    const XmlNodeId end = tree.SubtreeEnd(r);
    std::string signature;
    for (const std::string& k : keywords) {
      for (XmlNodeId m : tree.MatchNodes(k)) {
        if (m < r || m > end) continue;
        const XmlNodeId ctx = m == 0 ? 0 : tree.parent(m);
        signature += k + "@" + tree.LabelPath(ctx) + " ";
        break;
      }
    }
    ResultCluster& c = by_context[signature];
    c.label = signature;
    c.results.push_back(r);
  }
  for (auto& [sig, c] : by_context) {
    c.score = static_cast<double>(c.results.size());
    out.push_back(std::move(c));
  }
  // Merge smallest pairs until the bound holds.
  auto smallest = [&]() {
    size_t idx = 0;
    for (size_t i = 1; i < out.size(); ++i) {
      if (out[i].results.size() < out[idx].results.size()) idx = i;
    }
    return idx;
  };
  while (out.size() > max_clusters) {
    const size_t a = smallest();
    ResultCluster merged = std::move(out[a]);
    out.erase(out.begin() + static_cast<long>(a));
    const size_t b = smallest();
    out[b].label += "| " + merged.label;
    out[b].results.insert(out[b].results.end(), merged.results.begin(),
                          merged.results.end());
    std::sort(out[b].results.begin(), out[b].results.end());
    out[b].score = static_cast<double>(out[b].results.size());
  }
  std::sort(out.begin(), out.end(),
            [](const ResultCluster& a, const ResultCluster& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.label < b.label;
            });
  return out;
}

}  // namespace kws::analyze
