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
/// entity/attribute classifier (slide 51) and snippet generation
/// (eXtract, slide 148).
struct PathStatistics {
  /// Elements per label path ("/bib/conference/paper" -> 120).
  std::unordered_map<std::string, size_t> path_count;
  /// Label paths whose terminal tag occurs more than once under at least
  /// one parent (XSeek: repeatable => candidate entity type).
  std::unordered_map<std::string, bool> path_repeatable;
  /// Average node depth (XBridge's proximity discount threshold).
  double avg_depth = 0;
  size_t total_elements = 0;

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
};

/// Computes PathStatistics in one pass over the tree (the feature table
/// interns pairs in first-seen order), then renumbers the feature ids
/// into (tag, term) order. Only distinct pairs are kept as strings.
PathStatistics ComputePathStatistics(const XmlTree& tree);

}  // namespace kws::xml

#endif  // KWDB_XML_STATS_H_
