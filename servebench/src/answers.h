#ifndef SERVEBENCH_ANSWERS_H_
#define SERVEBENCH_ANSWERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/cn/search.h"
#include "core/engine/engine.h"
#include "core/engine/xml_engine.h"
#include "relational/database.h"

namespace servebench {

// Answer comparators. Each returns an empty string when the two answers
// are identical and a one-line description of the first difference
// otherwise. Scores compare exactly: every path the benchmark checks is
// specified to be bit-identical to its reference.

/// A served relational response against a direct facade call: status
/// code, cleaned query, correction flag, results (score, tuples,
/// description, in order) and suggestions.
std::string DiffEngineResponses(const kws::engine::EngineResponse& got,
                                const kws::engine::EngineResponse& want);

/// A served XML response against a direct facade call: status code,
/// results (anchor, display root, score, snippet, in order) and clusters.
std::string DiffXmlResponses(const kws::engine::XmlResponse& got,
                             const kws::engine::XmlResponse& want);

/// Two ranked CN result lists: cn_index, score and tuples, in order.
std::string DiffSearchResults(const std::vector<kws::cn::SearchResult>& got,
                              const std::vector<kws::cn::SearchResult>& want);

/// The top-`k` reference answer for a sharded request: `cn::CnKeywordSearch`
/// over the combined database, in the relational response shape the
/// serving layer repackages sharded answers into (tokenized query,
/// scores, tuples, the combined database's rendering).
kws::engine::EngineResponse CombinedReference(
    const kws::relational::Database& combined, const std::string& query,
    size_t k);

/// A 64-bit fingerprint of everything the comparators above compare, so
/// the timed loop can keep one number per answer instead of the answer.
uint64_t Fingerprint(const kws::engine::EngineResponse& response);
uint64_t Fingerprint(const kws::engine::XmlResponse& response);

/// The facade's rendering of one result's tuples (" -- " joined).
std::string RenderTuples(const kws::relational::Database& db,
                         const std::vector<kws::relational::TupleId>& tuples);

}  // namespace servebench

#endif  // SERVEBENCH_ANSWERS_H_
