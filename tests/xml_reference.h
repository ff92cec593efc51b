#ifndef KWDB_TESTS_XML_REFERENCE_H_
#define KWDB_TESTS_XML_REFERENCE_H_

// Brute-force references for the XML answer pipeline: ranking, XSeek
// return-node inference, eXtract snippets, XBridge scoring and context
// clustering, and the whole `XmlKeywordSearch::Search` built from them.
// Each one is written the direct way — full match-list scans, subtree
// sweeps, label-path strings looked up in `PathStatistics::path_repeatable`,
// a tree walk for the average depth — and reads none of the per-node
// facts the library precomputes, so the library must match it exactly
// (doubles bit for bit).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/analyze/clustering.h"
#include "core/analyze/snippet.h"
#include "core/engine/xml_engine.h"
#include "core/lca/slca.h"
#include "core/lca/xrank.h"
#include "core/lca/xseek.h"
#include "text/tokenizer.h"
#include "xml/stats.h"
#include "xml/tree.h"

namespace kws::xmlref {

using xml::XmlNodeId;
using xml::XmlTree;

/// Whether `n`'s label path repeats under some parent, by string lookup.
inline bool Repeatable(const XmlTree& tree, const xml::PathStatistics& stats,
                       XmlNodeId n) {
  auto it = stats.path_repeatable.find(tree.LabelPath(n));
  return it != stats.path_repeatable.end() && it->second;
}

/// XSeek's node category: repeatable types are entities, unique leaves
/// with text are attributes, everything else connects.
inline lca::NodeCategory Classify(const XmlTree& tree,
                                  const xml::PathStatistics& stats,
                                  XmlNodeId n) {
  if (Repeatable(tree, stats, n)) return lca::NodeCategory::kEntity;
  if (tree.children(n).empty() && !tree.text(n).empty()) {
    return lca::NodeCategory::kAttribute;
  }
  return lca::NodeCategory::kConnection;
}

/// `lca::InferReturnNodes`: tag keywords found by sweeping every tag and
/// every node of each candidate scope.
inline lca::XSeekResult InferReturnNodes(
    const XmlTree& tree, const xml::PathStatistics& stats,
    const std::vector<std::string>& keywords, XmlNodeId anchor) {
  std::vector<bool> is_tag(keywords.size(), false);
  for (size_t i = 0; i < keywords.size(); ++i) {
    for (XmlNodeId n = 0; n < tree.size() && !is_tag[i]; ++n) {
      is_tag[i] = tree.tag(n) == keywords[i];
    }
  }
  lca::XSeekResult out;
  XmlNodeId root = anchor;
  for (XmlNodeId cur = anchor;; cur = tree.parent(cur)) {
    if (Classify(tree, stats, cur) == lca::NodeCategory::kEntity) {
      root = cur;
      break;
    }
    if (cur == 0) break;
  }
  out.result_root = root;
  if (std::find(is_tag.begin(), is_tag.end(), true) != is_tag.end()) {
    for (XmlNodeId scope = root;; scope = tree.parent(scope)) {
      for (size_t i = 0; i < keywords.size(); ++i) {
        if (!is_tag[i]) continue;
        for (XmlNodeId n = scope; n <= tree.SubtreeEnd(scope); ++n) {
          if (tree.tag(n) == keywords[i]) out.return_nodes.push_back(n);
        }
      }
      if (!out.return_nodes.empty()) {
        out.result_root = scope;
        return out;
      }
      if (scope == 0) break;
    }
  }
  out.return_nodes.push_back(root);
  for (XmlNodeId c : tree.children(root)) {
    if (Classify(tree, stats, c) == lca::NodeCategory::kAttribute) {
      out.return_nodes.push_back(c);
    }
  }
  return out;
}

/// `lca::RankXmlResults`: every keyword's whole match list is scanned
/// for each root, with `std::pow` per in-subtree match.
inline std::vector<lca::ScoredXmlResult> RankXmlResults(
    const XmlTree& tree, const std::vector<XmlNodeId>& results,
    const std::vector<std::string>& keywords,
    const std::vector<double>& elem_rank) {
  const double decay = lca::XRankOptions{}.decay;
  std::vector<lca::ScoredXmlResult> out;
  for (XmlNodeId root : results) {
    double score = 0;
    for (const std::string& k : keywords) {
      double best = 0;
      for (XmlNodeId m : tree.MatchNodes(k)) {
        if (m < root || m > tree.SubtreeEnd(root)) continue;
        const double hops =
            static_cast<double>(tree.depth(m) - tree.depth(root));
        best = std::max(best, elem_rank[m] * std::pow(decay, hops));
      }
      score += best;
    }
    out.push_back(lca::ScoredXmlResult{root, score});
  }
  std::sort(out.begin(), out.end(),
            [](const lca::ScoredXmlResult& a, const lca::ScoredXmlResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.root < b.root;
            });
  return out;
}

/// Mean node depth, summed over a walk of every node in id order.
inline double AverageDepth(const XmlTree& tree) {
  double sum = 0;
  for (XmlNodeId n = 0; n < tree.size(); ++n) sum += tree.depth(n);
  return sum / static_cast<double>(std::max<size_t>(tree.size(), 1));
}

/// `analyze::XBridgeResultScore`: the first in-subtree match of each
/// keyword found by a full-list scan.
inline double XBridgeResultScore(const XmlTree& tree, XmlNodeId root,
                                 const std::vector<std::string>& keywords,
                                 double avg_depth) {
  double content = 0;
  std::set<XmlNodeId> path_nodes;
  for (const std::string& k : keywords) {
    const std::vector<XmlNodeId>& matches = tree.MatchNodes(k);
    const double ief = static_cast<double>(tree.size()) /
                       std::max<size_t>(matches.size(), 1);
    auto it = std::find_if(matches.begin(), matches.end(), [&](XmlNodeId m) {
      return m >= root && m <= tree.SubtreeEnd(root);
    });
    if (it == matches.end()) continue;
    content += std::log(ief);
    for (XmlNodeId cur = *it; cur != root; cur = tree.parent(cur)) {
      path_nodes.insert(cur);
    }
  }
  double dist = static_cast<double>(path_nodes.size());
  if (dist > avg_depth) dist = avg_depth + (dist - avg_depth) * 0.5;
  return content - dist;
}

/// `analyze::ClusterByContext`: results grouped under their label-path
/// strings, the average depth from a tree walk.
inline std::vector<analyze::ResultCluster> ClusterByContext(
    const XmlTree& tree, const std::vector<XmlNodeId>& results,
    const std::vector<std::string>& keywords) {
  const double avg_depth = AverageDepth(tree);
  std::map<std::string, analyze::ResultCluster> by_path;
  std::map<std::string, std::vector<double>> scores;
  for (XmlNodeId r : results) {
    const std::string path = tree.LabelPath(r);
    by_path[path].label = path;
    by_path[path].results.push_back(r);
    scores[path].push_back(XBridgeResultScore(tree, r, keywords, avg_depth));
  }
  const double avg_size =
      by_path.empty() ? 0
                      : static_cast<double>(results.size()) /
                            static_cast<double>(by_path.size());
  std::vector<analyze::ResultCluster> out;
  for (auto& [path, cluster] : by_path) {
    std::vector<double>& s = scores[path];
    std::sort(s.rbegin(), s.rend());
    const size_t r = std::min<size_t>(
        s.size(), static_cast<size_t>(std::max(avg_size, 1.0)));
    for (size_t i = 0; i < r; ++i) cluster.score += s[i];
    out.push_back(std::move(cluster));
  }
  std::sort(out.begin(), out.end(),
            [](const analyze::ResultCluster& a,
               const analyze::ResultCluster& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.label < b.label;
            });
  return out;
}

/// `analyze::GenerateSnippet`: the dominant-feature step re-tokenizes
/// every text node of the subtree and counts (tag, term) strings in
/// ordered maps.
inline std::vector<analyze::SnippetItem> Snippet(
    const XmlTree& tree, const xml::PathStatistics& stats, XmlNodeId root,
    const std::vector<std::string>& keywords, size_t max_items) {
  using Reason = analyze::SnippetItem::Reason;
  std::vector<analyze::SnippetItem> items;
  std::set<XmlNodeId> chosen;
  const XmlNodeId end = tree.SubtreeEnd(root);
  auto add = [&](XmlNodeId n, Reason reason) {
    if (items.size() >= max_items) return;
    if (chosen.insert(n).second) {
      items.push_back(analyze::SnippetItem{n, reason});
    }
  };
  for (XmlNodeId c : tree.children(root)) {
    if (!Repeatable(tree, stats, c) && !tree.text(c).empty()) {
      add(c, Reason::kKey);
      break;
    }
  }
  for (const std::string& k : keywords) {
    for (XmlNodeId m : tree.MatchNodes(k)) {
      if (m >= root && m <= end) {
        add(m, Reason::kKeyword);
        break;
      }
    }
  }
  text::Tokenizer tokenizer;
  std::map<std::pair<std::string, std::string>, size_t> counts;
  std::map<std::pair<std::string, std::string>, XmlNodeId> first_node;
  for (XmlNodeId n = root; n <= end; ++n) {
    for (const std::string& t : tokenizer.Tokenize(tree.text(n))) {
      const auto key = std::make_pair(tree.tag(n), t);
      ++counts[key];
      first_node.emplace(key, n);
    }
  }
  std::vector<std::pair<size_t, std::pair<std::string, std::string>>> ranked;
  for (const auto& [key, count] : counts) ranked.emplace_back(count, key);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  for (const auto& [count, key] : ranked) {
    if (items.size() >= max_items || count < 2) break;
    add(first_node[key], Reason::kDominantFeature);
  }
  for (XmlNodeId c : tree.children(root)) {
    if (items.size() >= max_items) break;
    if (Repeatable(tree, stats, c)) add(c, Reason::kEntity);
  }
  std::sort(items.begin(), items.end(),
            [](const analyze::SnippetItem& a, const analyze::SnippetItem& b) {
              return a.node < b.node;
            });
  return items;
}

/// `XmlKeywordSearch::Search` without a deadline or tracer, stage by
/// stage from the references above; anchors come from the brute-force
/// SLCA/ELCA sweeps.
inline engine::XmlResponse Search(const XmlTree& tree,
                                  const xml::PathStatistics& stats,
                                  const std::vector<double>& elem_rank,
                                  const std::string& query,
                                  const engine::XmlEngineOptions& options) {
  engine::XmlResponse response;
  const std::vector<std::string> keywords = text::Tokenizer().Tokenize(query);
  std::vector<std::vector<XmlNodeId>> lists;
  for (const std::string& k : keywords) {
    if (tree.MatchNodes(k).empty()) return response;
    lists.push_back(tree.MatchNodes(k));
  }
  if (lists.empty()) return response;
  const std::vector<XmlNodeId> anchors =
      options.semantics == engine::XmlSemantics::kSlca
          ? lca::SlcaBruteForce(tree, lists)
          : lca::ElcaBruteForce(tree, lists);
  for (const lca::ScoredXmlResult& sr :
       RankXmlResults(tree, anchors, keywords, elem_rank)) {
    if (response.results.size() >= options.k) break;
    engine::XmlResult r;
    r.anchor = sr.root;
    r.score = sr.score;
    r.display_root =
        InferReturnNodes(tree, stats, keywords, sr.root).result_root;
    for (const analyze::SnippetItem& item :
         Snippet(tree, stats, r.display_root, keywords,
                 options.snippet_items)) {
      r.snippet += tree.LabelPath(item.node) + ": " + tree.text(item.node) +
                   "\n";
    }
    response.results.push_back(std::move(r));
  }
  if (options.cluster) {
    response.clusters = ClusterByContext(tree, anchors, keywords);
  }
  return response;
}

/// The bit pattern of `d`: comparing these compares doubles bit for bit.
inline uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

/// Expects equal cluster lists: labels, members and score bits.
inline void ExpectSameClusters(const std::vector<analyze::ResultCluster>& got,
                               const std::vector<analyze::ResultCluster>& want,
                               const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].label, want[i].label) << context << " cluster " << i;
    EXPECT_EQ(got[i].results, want[i].results) << context << " cluster " << i;
    EXPECT_EQ(Bits(got[i].score), Bits(want[i].score))
        << context << " cluster " << i;
  }
}

/// Expects equal XML responses, field by field, doubles bit for bit.
inline void ExpectSameResponse(const engine::XmlResponse& got,
                               const engine::XmlResponse& want,
                               const std::string& context) {
  EXPECT_EQ(got.status.code(), want.status.code()) << context;
  ASSERT_EQ(got.results.size(), want.results.size()) << context;
  for (size_t i = 0; i < got.results.size(); ++i) {
    const engine::XmlResult& g = got.results[i];
    const engine::XmlResult& w = want.results[i];
    EXPECT_EQ(g.anchor, w.anchor) << context << " result " << i;
    EXPECT_EQ(g.display_root, w.display_root) << context << " result " << i;
    EXPECT_EQ(Bits(g.score), Bits(w.score)) << context << " result " << i;
    EXPECT_EQ(g.snippet, w.snippet) << context << " result " << i;
  }
  ExpectSameClusters(got.clusters, want.clusters, context);
}

}  // namespace kws::xmlref

#endif  // KWDB_TESTS_XML_REFERENCE_H_
