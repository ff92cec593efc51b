#ifndef KWDB_CORE_ANALYZE_CLUSTERING_H_
#define KWDB_CORE_ANALYZE_CLUSTERING_H_

#include <string>
#include <vector>

#include "xml/stats.h"
#include "xml/tree.h"

namespace kws::analyze {

/// One cluster of XML results.
struct ResultCluster {
  /// Human-readable cluster label (a context path or a role signature).
  std::string label;
  /// Result roots in the cluster, document order.
  std::vector<xml::XmlNodeId> results;
  double score = 0;
};

/// XBridge context clustering (Li et al., EDBT 10; tutorial slides
/// 156-160): results (SLCA roots) are grouped by the label path of their
/// root — papers under /bib/conference vs /bib/journal land in different
/// clusters. Cluster score = sum of the top-R individual result scores,
/// R = min(average cluster size, |cluster|), so big clusters do not win
/// by bulk. Individual results score by content (tf * inverse element
/// frequency) and structural proximity (root-to-keyword path lengths,
/// discounted beyond the average document depth, with shared path
/// segments counted once). Clusters returned best-first: score
/// descending, then label ascending. `stats` must be
/// `ComputePathStatistics(tree)`: results group by its per-node path ids,
/// the discount uses its `avg_depth`, and each cluster's label path is
/// built once (another tree's size aborts).
std::vector<ResultCluster> ClusterByContext(
    const xml::XmlTree& tree, const xml::PathStatistics& stats,
    const std::vector<xml::XmlNodeId>& results,
    const std::vector<std::string>& keywords);

/// The same clusters for a caller that holds no PathStatistics: the
/// average depth comes from a walk over every node and the results'
/// label paths are built and interned per call, so it costs the tree's
/// size on every call.
std::vector<ResultCluster> ClusterByContext(
    const xml::XmlTree& tree, const std::vector<xml::XmlNodeId>& results,
    const std::vector<std::string>& keywords);

/// Describable clustering (Liu & Chen, TODS 10; slides 161-162): results
/// are grouped by the *roles* their keyword matches play — the label
/// paths (relative to the result root) at which each keyword matched —
/// so each cluster has a describable semantics ("Tom as seller" vs "Tom
/// as buyer"). Clusters are ordered by size, largest first.
std::vector<ResultCluster> ClusterByKeywordRoles(
    const xml::XmlTree& tree, const std::vector<xml::XmlNodeId>& results,
    const std::vector<std::string>& keywords);

/// Individual result score used by ClusterByContext (exposed for tests):
/// content weight minus the discounted structural distance. Each
/// keyword's match inside the subtree is found by one seek into its
/// sorted match list.
double XBridgeResultScore(const xml::XmlTree& tree, xml::XmlNodeId root,
                          const std::vector<std::string>& keywords,
                          double avg_depth);

/// Granularity control for describable clustering (Liu & Chen TODS 10,
/// slide 162): refines one role-cluster by the *context* of the keyword
/// matches — the label path of each match's parent — then, to respect the
/// `max_clusters` bound while keeping clusters balanced, repeatedly
/// merges the two smallest sub-clusters (the paper solves this split by
/// dynamic programming; greedy smallest-pair merging is the standard
/// approximation and preserves describability: a merged cluster's label
/// is the union of its context signatures).
std::vector<ResultCluster> SplitClusterByContext(
    const xml::XmlTree& tree, const ResultCluster& cluster,
    const std::vector<std::string>& keywords, size_t max_clusters);

}  // namespace kws::analyze

#endif  // KWDB_CORE_ANALYZE_CLUSTERING_H_
