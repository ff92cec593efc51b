#ifndef SERVEBENCH_REPLAY_H_
#define SERVEBENCH_REPLAY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"
#include "workload.h"

namespace servebench {

/// The traced run: one thread replays the workload's stream against a
/// fresh synchronous deployment, in the call order of the serving layer
/// and the facades, timing each call into a layer's public functions as a
/// span. Each missed read is decomposed stage by stage and then answered
/// once more by the facade itself (a root span of its own) so the two can
/// be compared, both for equality and for the time the decomposition
/// leaves unattributed.
struct ReplayResult {
  SpanRecorder spans;
  uint64_t reads = 0;
  uint64_t writes = 0;
  /// Reads whose decomposition differs from the facade's response, plus
  /// writes the database rejected.
  uint64_t failures = 0;
  std::vector<std::string> messages;
};

/// Span names shared by the replay and the metric derivation.
namespace span {
inline constexpr char kRequest[] = "serve.request";
inline constexpr char kWrite[] = "serve.write";
inline constexpr char kCacheKey[] = "serve.cache_key";
inline constexpr char kCacheLookup[] = "serve.cache.lookup";
inline constexpr char kCacheFill[] = "serve.cache.fill";
inline constexpr char kRepackage[] = "serve.repackage";
inline constexpr char kNotifyWrite[] = "serve.notify_write";
inline constexpr char kApplyInserts[] = "relational.apply_inserts";
/// The facade calls (roots of their own, timed for reference).
inline constexpr char kEngineFacade[] = "engine.search";
inline constexpr char kXmlFacade[] = "xml.search";
/// The decomposed facades (parents of the stage spans).
inline constexpr char kEngineStages[] = "engine.stages";
inline constexpr char kXmlStages[] = "xml.stages";
inline constexpr char kClean[] = "clean.normalize";
inline constexpr char kTupleSets[] = "cn.tuple_sets";
inline constexpr char kEnumerate[] = "cn.enumerate";
inline constexpr char kExecute[] = "cn.execute";
inline constexpr char kRender[] = "engine.render";
inline constexpr char kSuggest[] = "refine.suggest";
inline constexpr char kShardSearch[] = "shard.search";
inline constexpr char kXmlTokenize[] = "xml.tokenize";
inline constexpr char kMatchLists[] = "lca.match_lists";
inline constexpr char kSlca[] = "lca.slca";
inline constexpr char kRank[] = "lca.rank";
inline constexpr char kXSeek[] = "lca.xseek";
inline constexpr char kSnippet[] = "analyze.snippet";
inline constexpr char kCluster[] = "analyze.cluster";
}  // namespace span

/// Replays requests [begin, ...) of `inputs` (after an unrecorded replay
/// of the warm-up prefix) until `seconds` have passed or the stream ends;
/// rel_hot_writes applies a write batch after every
/// `Shape::kReadsPerWrite` replayed reads.
ReplayResult Replay(const Inputs& inputs, double seconds);

}  // namespace servebench

#endif  // SERVEBENCH_REPLAY_H_
