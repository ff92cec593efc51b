#ifndef KWDB_CORE_ENGINE_ENGINE_H_
#define KWDB_CORE_ENGINE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "common/trace.h"
#include "core/clean/cleaner.h"
#include "core/cn/search.h"
#include "core/complete/tastier.h"
#include "core/steiner/banks.h"
#include "graph/data_graph.h"
#include "relational/database.h"

namespace kws::engine {

/// Which search backend answers the query.
enum class Backend {
  /// Schema-graph candidate networks (DISCOVER family).
  kCandidateNetworks,
  /// Data-graph backward expanding search (BANKS family).
  kDataGraph,
};

/// Tuning knobs for the relational keyword-search facade.
struct EngineOptions {
  size_t k = 10;
  Backend backend = Backend::kCandidateNetworks;
  /// Run the noisy-channel cleaner before searching.
  bool clean_query = true;
  /// Attach refinement term suggestions to the response.
  size_t num_suggestions = 5;
  size_t max_cn_size = 5;
  /// Per-query budget. When it expires mid-pipeline the search stops at
  /// the next cancellation point and the response carries
  /// `StatusCode::kDeadlineExceeded` with whatever results were already
  /// ranked. Infinite by default.
  Deadline deadline = {};
  /// Optional shared term -> tuple-set frontier cache for the CN backend
  /// (see `cn::TupleSetCache`). Not owned; must outlive the call.
  /// Responses are identical with or without it.
  cn::TupleSetCache* tuple_cache = nullptr;
  /// Worker threads for the CN backend's evaluation phase (see
  /// `cn::SearchOptions::num_threads`). 1 (the default) keeps the serial
  /// path; any value yields bit-identical responses. Ignored by the
  /// data-graph backend.
  size_t num_threads = 1;
  /// Optional per-query execution tracer (not owned, nullable — call
  /// sites pay one branch when unset). Produces an `engine.search` span
  /// with `engine.clean`, the backend (`cn.search` / `engine.banks`) and
  /// `engine.suggest` as children. Declared last, fully qualified: the
  /// member name shadows namespace `kws::trace` for later declarations.
  kws::trace::Tracer* trace = nullptr;
};

/// One answer, rendered for display.
struct EngineResult {
  double score = 0;
  std::vector<relational::TupleId> tuples;
  std::string description;
};

/// The full response of one query round-trip.
struct EngineResponse {
  /// OK for a complete answer; `kDeadlineExceeded` when the budget cut
  /// the pipeline short (results may then be partial or empty).
  Status status = {};
  /// The query as cleaned (equals the input tokens when cleaning is off
  /// or found nothing better).
  std::vector<std::string> cleaned_query;
  bool query_was_corrected = false;
  std::vector<EngineResult> results;
  /// Data-Clouds style refinement suggestions.
  std::vector<std::string> suggestions;
};

/// An `EngineResponse` bundled with its rendered execution trace — the
/// EXPLAIN ANALYZE counterpart of `Search`.
struct ExplainResult {
  EngineResponse response;
  /// Human-readable span tree (`trace::Tracer::RenderTree`).
  std::string tree;
  /// Machine-readable form with stable key order
  /// (`trace::Tracer::RenderJson`).
  std::string json;
};

/// The facade wiring the tutorial's pipeline end to end: query cleaning ->
/// structure search (CN or data graph) -> result rendering -> refinement
/// suggestions. This is the one-stop API the examples use.
class KeywordSearchEngine {
 public:
  /// Builds all derived structures (data graph, combined text index,
  /// cleaner). The database must outlive the engine and must already have
  /// text indexes built.
  explicit KeywordSearchEngine(const relational::Database& db);

  /// Runs a keyword query through the pipeline.
  EngineResponse Search(const std::string& query,
                        const EngineOptions& options = {}) const;

  /// Runs `query` under a fresh tracer (any `options.trace` is ignored)
  /// and returns the response together with its rendered trace.
  ExplainResult Explain(const std::string& query,
                        const EngineOptions& options = {}) const;

  /// Type-ahead completions for a partially typed last keyword.
  std::vector<std::string> Complete(const std::string& prefix,
                                    size_t limit = 8) const;

  /// The normalized form of `query` — tokenized and run through the
  /// noisy-channel cleaner — i.e. the keywords a default `Search` runs
  /// on (the form `kws::serve` registers standing queries with).
  std::vector<std::string> Normalize(const std::string& query) const;

  const graph::RelationalGraph& data_graph() const { return graph_; }

  /// The database this engine searches (what a `cn::TupleSetCache` must
  /// be constructed over to be usable via `EngineOptions::tuple_cache`).
  const relational::Database& db() const { return db_; }

 private:
  const relational::Database& db_;
  graph::RelationalGraph graph_;
  /// Union full-text index across all tables (docs = dense node ids), for
  /// cleaning and suggestions.
  text::InvertedIndex combined_index_;
  std::unique_ptr<clean::QueryCleaner> cleaner_;
  std::unique_ptr<complete::TastierIndex> completer_;
};

}  // namespace kws::engine

#endif  // KWDB_CORE_ENGINE_ENGINE_H_
