#ifndef KWDB_CORE_LCA_XSEEK_H_
#define KWDB_CORE_LCA_XSEEK_H_

#include <string>
#include <vector>

#include "common/trace.h"
#include "xml/stats.h"
#include "xml/tree.h"

namespace kws::lca {

/// XSeek's node-category model (Liu & Chen, SIGMOD 07; tutorial slide 51):
/// a node type is an *entity* when it repeats among siblings, an
/// *attribute* when it is unique under its parent and carries leaf text,
/// and a *connection* otherwise.
enum class NodeCategory { kEntity, kAttribute, kConnection };

/// Buckets node `n` by its label path's repeatability, read from
/// `stats.node_repeatable`, and its shape (XSeek entity inference).
/// `stats` must be `ComputePathStatistics(tree)`.
NodeCategory Classify(const xml::XmlTree& tree,
                      const xml::PathStatistics& stats, xml::XmlNodeId n);

/// How each query keyword matched, for return-node inference: a keyword
/// equal to a tag name is an explicit return-node specifier; a keyword
/// matching text content is a predicate.
struct KeywordRole {
  std::string keyword;
  bool is_tag_name = false;
};

/// One inferred result for a query anchored at an SLCA node.
struct XSeekResult {
  /// The node whose subtree is the answer.
  xml::XmlNodeId result_root = 0;
  /// Explicit or inferred return nodes within/around the result root.
  std::vector<xml::XmlNodeId> return_nodes;
};

/// XSeek inference: given the SLCA `anchor` of a keyword match, decide
/// what to return (tutorial slides 51-52):
///  - keywords naming a tag are explicit return nodes: return the matching
///    descendants of (or nearest to) the anchor;
///  - otherwise return the nearest entity ancestor-or-self of the anchor
///    (the "implicit" return node), falling back to the anchor itself.
/// Nodes are classified from `stats`' per-node facts, so no label path is
/// built; `stats` must be `ComputePathStatistics(tree)` (another tree's
/// size aborts). A non-null `tracer` wraps the inference in an
/// `lca.xseek` span (classified nodes + return-node count).
XSeekResult InferReturnNodes(const xml::XmlTree& tree,
                             const xml::PathStatistics& stats,
                             const std::vector<std::string>& keywords,
                             xml::XmlNodeId anchor,
                             trace::Tracer* tracer = nullptr);

/// Classifies the query's keywords against the tree's tag vocabulary.
std::vector<KeywordRole> ClassifyKeywords(
    const xml::XmlTree& tree, const std::vector<std::string>& keywords);

}  // namespace kws::lca

#endif  // KWDB_CORE_LCA_XSEEK_H_
