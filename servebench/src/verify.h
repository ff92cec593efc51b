#ifndef SERVEBENCH_VERIFY_H_
#define SERVEBENCH_VERIFY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace servebench {

/// What the post-run check found.
struct Verification {
  /// Distinct served answers compared against their reference.
  uint64_t answers_checked = 0;
  /// Reads that failed: a non-OK outcome, or an answer that differs from
  /// its reference.
  uint64_t failed_reads = 0;
  /// Writes that failed: a rejected batch, a standing query whose results
  /// differ from a fresh registration, or an epoch that differs from the
  /// replayed one.
  uint64_t failed_writes = 0;
  /// The first few differences, for the log.
  std::vector<std::string> messages;
};

/// Checks every answer of `run`, outside the timed phase, against a fresh
/// deployment of the same seed: relational answers against a direct
/// `KeywordSearchEngine::Search` at the epoch they were served at (write
/// batches are re-applied in order), sharded answers against
/// `cn::CnKeywordSearch` over the combined database, XML answers against
/// `XmlKeywordSearch::Search`, and after each write every standing
/// query's results against a freshly registered `cn::ContinualQuery`.
Verification VerifyRun(const Inputs& inputs, const LoopResult& run,
                       size_t threads);

}  // namespace servebench

#endif  // SERVEBENCH_VERIFY_H_
