#ifndef KWDB_CORE_LCA_XRANK_H_
#define KWDB_CORE_LCA_XRANK_H_

#include <string>
#include <vector>

#include "xml/tree.h"

namespace kws::lca {

/// ElemRank parameters (XRank, Guo et al. SIGMOD 03; tutorial slide 137):
/// PageRank adapted to XML where importance flows both down (containment)
/// and up (reverse containment) the element tree.
struct ElemRankOptions {
  double damping = 0.85;
  /// Relative weight of the upward (child -> parent) flow vs downward.
  double upward_weight = 1.0;
  size_t max_iterations = 50;
};

/// Per-element importance scores (sum to 1).
std::vector<double> ElemRank(const xml::XmlTree& tree,
                             const ElemRankOptions& options = {});

/// A ranked XML result.
struct ScoredXmlResult {
  xml::XmlNodeId root = 0;
  double score = 0;
};

/// Tuning knobs for XRank result-root scoring.
struct XRankOptions {
  /// Per-edge decay applied to a match's ElemRank as it propagates from
  /// the match node up to the result root (XRank's decay factor).
  double decay = 0.75;
};

/// XRank-style ranking of result roots: for each query keyword take the
/// best decayed ElemRank of its matches inside the result subtree, sum
/// over keywords. Results sorted best-first. A root's matches are found
/// by one seek into each sorted match list, so the cost is set by the
/// matches inside the subtree, not by the list's length.
std::vector<ScoredXmlResult> RankXmlResults(
    const xml::XmlTree& tree, const std::vector<xml::XmlNodeId>& results,
    const std::vector<std::string>& keywords,
    const std::vector<double>& elem_rank, const XRankOptions& options = {});

}  // namespace kws::lca

#endif  // KWDB_CORE_LCA_XRANK_H_
