#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/cn/search.h"
#include "core/engine/engine.h"
#include "core/engine/xml_engine.h"
#include "relational/dblp.h"
#include "serve/server.h"
#include "shard/sharded_corpus.h"
#include "shard/sharded_engine.h"
#include "xml/bibgen.h"

namespace servebench {

/// The four traffic mixes (see README.md for why each was chosen).
enum class Workload { kRelCold, kRelHotWrites, kRelSharded, kXml };

const char* WorkloadName(Workload w);
/// Parses a workload name; false for an unknown one.
bool ParseWorkload(const std::string& name, Workload* out);

/// The fixed load shape and input sizes. Everything else derives from the
/// seed.
struct Shape {
  /// Closed-loop client threads (each waits for its reply).
  static constexpr size_t kClients = 2;
  /// `ServeOptions::num_workers` and `search_threads`.
  static constexpr size_t kWorkers = 2;
  static constexpr size_t kSearchThreads = 1;
  /// How long a client polls for its reply before it blocks on it: longer
  /// than the xml requests' expensive mode (~4 ms), well short of an
  /// expensive relational miss (~100 ms).
  static constexpr int64_t kPollMicros = 10000;
  /// `MakeQueryLog` size behind the relational query pool.
  static constexpr size_t kLogQueries = 4000;
  /// rel_hot_writes: Zipf skew over the first `kHotQueries` 2-keyword
  /// pool queries, one write batch after every `kReadsPerWrite` reads, and
  /// `kStandingQueries` registered continual queries.
  static constexpr double kHotTheta = 0.9;
  static constexpr size_t kHotQueries = 128;
  static constexpr size_t kReadsPerWrite = 1000;
  static constexpr size_t kStandingQueries = 8;
  /// rel_cold and rel_sharded: share of the requests whose keywords one
  /// database (one shard) holds all three of — the expensive miss mode.
  static constexpr double kColdExpensiveShare = 0.44;
  /// rel_sharded: shard count of `MakeShardedDblp` and the serve routing.
  static constexpr size_t kShards = 4;
  /// xml: `MakeBibDocument(kXmlVenues, kXmlPapersPerVenue)` (default
  /// seed), query terms Zipf(kXmlTheta) over the document vocabulary.
  static constexpr size_t kXmlVenues = 80;
  static constexpr size_t kXmlPapersPerVenue = 10;
  static constexpr double kXmlTheta = 1.0;
  static constexpr size_t kXmlStreamLength = 90000;
  /// Share of the xml requests that are root-anchored (`XmlCostClass` 2).
  static constexpr double kXmlRootShare = 0.25;
  /// Untimed warm-up requests charged to set-up: `kWarmupRequests` for
  /// the cold relational streams, `kXmlWarmupRequests` (twice the result
  /// cache, so the cache is full and evicting before the timed phase) for
  /// xml; rel_hot_writes warms the result cache with every hot query once.
  /// Without the longer xml warm-up its first second ran up to 3x slower.
  static constexpr size_t kWarmupRequests = 10;
  static constexpr size_t kXmlWarmupRequests = 2048;
  /// Top-k of every request (the `QueryRequest` default).
  static constexpr size_t kTopK = 10;
};

/// The generated request stream of one workload and seed. Request `i`
/// names `queries[QueryAt(i)]`; finite streams never repeat a query. The
/// warm-up prefix of the finite relational streams is the same for every
/// seed.
class Inputs {
 public:
  Inputs(Workload workload, uint64_t seed);

  Workload workload() const { return workload_; }
  uint64_t seed() const { return seed_; }
  /// The distinct request texts.
  const std::vector<std::string>& queries() const { return queries_; }
  /// Query index of request `i` (i < length()).
  uint32_t QueryAt(size_t i) const;
  const std::string& TextAt(size_t i) const { return queries_[QueryAt(i)]; }
  /// Number of requests in the stream; SIZE_MAX for the unbounded
  /// rel_hot_writes stream.
  size_t length() const;
  /// Requests before the timed phase starts (the untimed warm-up prefix).
  size_t warmup_length() const;
  /// rel_hot_writes: the standing queries registered at set-up.
  const std::vector<std::string>& standing() const { return standing_; }
  /// Which pipeline the requests target.
  kws::serve::Pipeline pipeline() const;

 private:
  Workload workload_;
  uint64_t seed_;
  std::vector<std::string> queries_;
  /// Finite streams: request -> query index. Empty for rel_hot_writes,
  /// whose request `i` is a Zipf draw seeded by (seed, i).
  std::vector<uint32_t> order_;
  std::unique_ptr<kws::ZipfSampler> zipf_;
  std::vector<std::string> standing_;
};

/// The relational corpus: the default `DblpOptions`. The corpora are the
/// same for every seed (so a run's cost mix does not depend on how one
/// corpus happens to come out); the seed picks the request stream, the
/// write batches and the standing queries.
kws::relational::DblpOptions CorpusOptions();

/// Cost class of an xml query over `tree`: 0 when it has no SLCA anchor,
/// 2 when an anchor is the document root (its terms share no element below
/// the root, and snippet generation walks the whole document), 1
/// otherwise.
size_t XmlCostClass(const kws::xml::XmlTree& tree, const std::string& query);

/// The relational query pool: `serve::QueryPool` over
/// `MakeQueryLog(paper, kLogQueries)` of `db`.
std::vector<std::string> RelationalPool(
    const kws::relational::DblpDatabase& db);

/// Write batch `b` (1-based) of `seed`, generated against the current
/// state of `dblp`.
std::vector<kws::relational::RowInsert> MakeWriteBatch(
    const kws::relational::DblpDatabase& dblp, uint64_t seed, size_t b);

/// One deployment of a workload: its corpus, engines and serving engine.
/// Members are declared so the serving engine (which joins its workers)
/// is destroyed before everything it references.
struct Deployment {
  std::unique_ptr<kws::relational::DblpDatabase> dblp;
  std::unique_ptr<kws::engine::KeywordSearchEngine> engine;
  std::unique_ptr<kws::shard::ShardedCorpus> sharded_corpus;
  std::unique_ptr<kws::shard::ShardedEngine> sharded;
  std::unique_ptr<kws::xml::BibDocument> bib;
  std::unique_ptr<kws::engine::XmlKeywordSearch> xml;
  std::unique_ptr<kws::serve::ServingEngine> server;
  /// rel_hot_writes: the ids `RegisterQuery` returned, parallel to
  /// `Inputs::standing()`.
  std::vector<uint64_t> standing_ids;

  /// The relational database's data epoch (0 for the other workloads).
  uint64_t epoch() const;
};

/// Builds the corpus and engines of `inputs`' workload and a serving
/// engine with `num_workers` workers (0 for a synchronous replay copy);
/// registers the standing queries of rel_hot_writes.
std::unique_ptr<Deployment> BuildDeployment(const Inputs& inputs,
                                            size_t num_workers);

/// A writer-preferring reader/writer gate: readers hold it shared from
/// `Submit` until their reply is ready; a writer announces itself, stops
/// new readers, and waits until in-flight readers drain. (A plain
/// `std::shared_mutex` may prefer readers and starve the writer under a
/// closed loop that always has a reader in flight.)
class WriteGate {
 public:
  void LockShared();
  void UnlockShared();
  void Lock();
  void Unlock();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t readers_ = 0;
  size_t writers_waiting_ = 0;
  bool writer_ = false;
};

/// One completed read as the client saw it.
struct ReadSample {
  size_t request = 0;
  /// From the first `Submit` attempt (including admission retries and any
  /// wait behind a write) until the reply was ready.
  double latency_us = 0;
  /// `QueryOutcome::latency_micros` (execution only, queue wait excluded).
  double exec_us = 0;
  /// When the reply was ready, in seconds since the loop started.
  double done_s = 0;
  /// The data epoch the read was served at.
  uint64_t epoch = 0;
  /// An OK outcome carrying a response.
  bool ok = false;
  bool cache_hit = false;
  /// `Fingerprint` of the response (taken after the latency stops).
  uint64_t fingerprint = 0;
};

/// One applied write batch.
struct WriteSample {
  /// 1-based batch number; the batch follows read number b * reads_per_write.
  size_t batch = 0;
  /// Waiting for the exclusive gate (in-flight reads draining).
  double quiesce_us = 0;
  /// `ApplyInserts` + `NotifyWrite`, timed while the gate is held.
  double write_us = 0;
  uint64_t epoch = 0;
  bool ok = false;
  /// The batch as applied (for the post-run replay).
  std::vector<kws::relational::RowInsert> rows;
  /// `StandingResults` of every standing query right after the write.
  std::vector<std::vector<kws::cn::SearchResult>> standing;
};

struct LoopOptions {
  /// Requests [begin, end) of the stream, clamped to its length.
  size_t begin = 0;
  size_t end = static_cast<size_t>(-1);
  /// Stop issuing new requests after this long (0 = run to `end`).
  double seconds = 0;
  /// Apply a write batch after every this many reads (0 = no writes).
  size_t reads_per_write = 0;
};

struct LoopResult {
  std::vector<ReadSample> reads;
  std::vector<WriteSample> writes;
  /// Submit attempts rejected by admission control (each retried).
  uint64_t admission_retries = 0;
  /// Submits refused for another reason (counted as failed reads).
  uint64_t refused = 0;
  /// Writes that found a read in flight after taking the exclusive gate
  /// (must stay 0).
  uint64_t overlaps = 0;
  /// Wall time from the first request until the last reply.
  double elapsed_s = 0;
};

/// Drives `deployment` with `Shape::kClients` closed-loop clients over the
/// request stream. Clients take the next request index from a shared
/// counter, so the request sequence is the stream's whatever the
/// interleaving.
LoopResult RunLoop(Deployment& deployment, const Inputs& inputs,
                   const LoopOptions& options);

/// The untimed warm-up charged to set-up: the stream's warm-up prefix, or
/// for rel_hot_writes every hot query once (filling the result cache).
void Warmup(Deployment& deployment, const Inputs& inputs);

/// A printable form of the first `num_requests` requests and the first
/// `num_writes` write batches of `seed` (each applied before the next is
/// generated) — what the determinism tests compare byte for byte.
std::string DescribeSequence(Workload workload, uint64_t seed,
                             size_t num_requests, size_t num_writes);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
