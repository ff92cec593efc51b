#ifndef KWDB_XML_STATS_H_
#define KWDB_XML_STATS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "xml/tree.h"

namespace kws::xml {

/// Structural statistics of a document, consumed by the return-type
/// inference (XReal/XBridge, tutorial slides 37-38), the XSeek
/// entity/attribute classifier (slide 51), snippet generation (eXtract,
/// slide 148) and context clustering (XBridge, slides 156-160). Besides
/// the per-path maps it holds per-node facts that do not depend on the
/// query, so answering one reads them instead of walking subtrees or
/// building label-path strings.
struct PathStatistics {
  /// Elements per label path ("/bib/conference/paper" -> 120).
  std::unordered_map<std::string, size_t> path_count;
  /// Label paths whose terminal tag occurs more than once under at least
  /// one parent (XSeek: repeatable => candidate entity type).
  std::unordered_map<std::string, bool> path_repeatable;
  /// Average node depth (XBridge's proximity discount threshold): the
  /// depths summed in node-id order, divided by the node count.
  double avg_depth = 0;
  size_t total_elements = 0;

  /// Interned label path of every node: two nodes share an id exactly
  /// when they share a label path. Ids are dense in [0, num_paths) and
  /// assigned in document order, so the root's is 0.
  size_t num_paths = 0;
  std::vector<uint32_t> path_id;
  /// `path_repeatable` of every node's label path (false for the root).
  std::vector<bool> node_repeatable;

  /// Snippet feature table. Every token of every node's own text is one
  /// entry: the interned id of its (tag, term) pair. Ids are dense in
  /// [0, num_features) and assigned in (tag, term) string order, so
  /// comparing ids compares the pairs. Entries are stored CSR-style in
  /// document order: node n's are
  /// `features[feature_begin[n] .. feature_begin[n + 1])`, and because
  /// node ids are preorder, the subtree of r is the single slice ending
  /// at `feature_begin[tree.SubtreeEnd(r) + 1]`. A node without text has
  /// an empty range.
  size_t num_features = 0;
  /// tree.size() + 1 offsets into `features`.
  std::vector<uint32_t> feature_begin;
  std::vector<uint32_t> features;

  /// Ranked dominant features of every subtree (eXtract's
  /// informativeness): for each feature that occurs at least twice in the
  /// subtree of n, the first node (in document order) of the subtree that
  /// carries it, ranked by the feature's count there descending, then by
  /// feature id ascending. Stored CSR-style: node n's list is
  /// `dominant[dominant_begin[n] .. dominant_begin[n + 1])`. A node may
  /// appear more than once in a list when several of its tokens repeat.
  std::vector<uint32_t> dominant_begin;
  std::vector<XmlNodeId> dominant;
};

/// Computes PathStatistics: one pass over the tree interns label paths
/// and (tag, term) pairs in first-seen order, the feature ids are then
/// renumbered into (tag, term) order, and each subtree's slice of the
/// feature table is counted once to rank its dominant features (time
/// proportional to the tokens times the tree depth). Only distinct paths
/// and pairs are kept as strings.
PathStatistics ComputePathStatistics(const XmlTree& tree);

}  // namespace kws::xml

#endif  // KWDB_XML_STATS_H_
