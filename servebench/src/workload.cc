#include "workload.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "answers.h"
#include "core/lca/slca.h"
#include "relational/query_log.h"
#include "serve/loadgen.h"
#include "text/tokenizer.h"

namespace servebench {

namespace {

using Clock = std::chrono::steady_clock;

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Child-seed streams of the workload seed.
constexpr uint64_t kOrderStream = 2;
constexpr uint64_t kHotStream = 3;
constexpr uint64_t kXmlStream = 4;
constexpr uint64_t kStandingStream = 5;
constexpr uint64_t kRootStream = 6;
constexpr uint64_t kWriteStream = 1000000;
/// Orders the warm-up prefix of the finite relational streams.
constexpr uint64_t kWarmupSeed = 42;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "servebench: %s\n", message.c_str());
  std::exit(2);
}

size_t KeywordCount(const std::string& query) {
  return kws::text::Tokenizer().Tokenize(query).size();
}

/// How many of `query`'s keywords occur somewhere in `db` (capped at 3).
/// A keyword that occurs nowhere empties its tuple sets, so this, not the
/// raw keyword count, sets a query's cost class.
size_t PresentKeywords(const kws::relational::Database& db,
                       const std::string& query) {
  size_t present = 0;
  for (const std::string& t : kws::text::Tokenizer().Tokenize(query)) {
    for (kws::relational::TableId tb = 0; tb < db.num_tables(); ++tb) {
      if (db.TextIndex(tb).DocFreq(t) > 0) {
        ++present;
        break;
      }
    }
  }
  return std::min<size_t>(present, 3);
}

/// A seeded shuffle of `queries` that keeps the cost-class mix of every
/// prefix at the pool's mix: each class (`classes[i]` for query i) is
/// shuffled on its own, then the classes are interleaved in proportion to
/// their sizes. Per-request cost is bimodal or worse across classes, so
/// without this the share of each class in a run — and with it where p50
/// falls — would move from seed to seed.
std::vector<uint32_t> StratifiedShuffle(const std::vector<size_t>& classes,
                                        uint64_t seed) {
  std::vector<std::vector<uint32_t>> buckets;
  for (uint32_t i = 0; i < classes.size(); ++i) {
    if (buckets.size() <= classes[i]) buckets.resize(classes[i] + 1);
    buckets[classes[i]].push_back(i);
  }
  kws::Rng rng(seed);
  for (std::vector<uint32_t>& b : buckets) rng.Shuffle(b);
  std::vector<uint32_t> order;
  order.reserve(classes.size());
  std::vector<size_t> taken(buckets.size(), 0);
  while (order.size() < classes.size()) {
    size_t best = buckets.size();
    double best_share = 2;
    for (size_t b = 0; b < buckets.size(); ++b) {
      if (taken[b] >= buckets[b].size()) continue;
      const double share = (static_cast<double>(taken[b]) + 0.5) /
                           static_cast<double>(buckets[b].size());
      if (share < best_share) {
        best_share = share;
        best = b;
      }
    }
    order.push_back(buckets[best][taken[best]++]);
  }
  return order;
}

/// Queries, each with its cost class.
using ClassedQueries = std::vector<std::pair<std::string, size_t>>;

/// Appends `cheap` and then `expensive` to `queries` and their classes to
/// `classes`, after trimming the larger side (a choice seeded by `pick`) so
/// that the expensive queries make up `share` of what is appended.
///
/// Per-request cost within a cost class is narrow, while the host runs in
/// fast and slow phases ~1.5x apart, for seconds to minutes at a time. A
/// quantile in the middle of a narrow class, or on the edge between two
/// classes, flips between the two phases' values from run to run; the share
/// decides where p50 and p95 fall.
void MixAtExpensiveShare(ClassedQueries cheap, ClassedQueries expensive,
                         double share, kws::Rng& pick,
                         std::vector<std::string>* queries,
                         std::vector<size_t>* classes) {
  const auto fit = [](size_t other, double ratio) {
    return static_cast<size_t>(static_cast<double>(other) * ratio);
  };
  if (cheap.size() > fit(expensive.size(), (1 - share) / share)) {
    pick.Shuffle(cheap);
    cheap.resize(fit(expensive.size(), (1 - share) / share));
  } else if (expensive.size() > fit(cheap.size(), share / (1 - share))) {
    pick.Shuffle(expensive);
    expensive.resize(fit(cheap.size(), share / (1 - share)));
  }
  for (ClassedQueries* group : {&cheap, &expensive}) {
    for (auto& [q, c] : *group) {
      queries->push_back(std::move(q));
      classes->push_back(c);
    }
  }
}

/// Distinct 2- and 3-term queries (one in three has two terms) with terms
/// drawn Zipf-skewed from `vocabulary`; distinct as term sets.
std::vector<std::string> XmlQueries(const std::vector<std::string>& vocabulary,
                                    uint64_t seed, size_t count) {
  const kws::ZipfSampler zipf(vocabulary.size(), Shape::kXmlTheta);
  kws::Rng rng(seed);
  std::set<std::vector<size_t>> seen;
  std::vector<std::string> out;
  out.reserve(count);
  for (size_t attempts = 0; out.size() < count; ++attempts) {
    if (attempts > 20 * count) Die("xml query space exhausted");
    const size_t terms = out.size() % 3 == 0 ? 2 : 3;
    std::vector<size_t> ranks;
    while (ranks.size() < terms) {
      const size_t r = zipf.Sample(rng);
      if (std::find(ranks.begin(), ranks.end(), r) == ranks.end()) {
        ranks.push_back(r);
      }
    }
    std::vector<size_t> key = ranks;
    std::sort(key.begin(), key.end());
    if (!seen.insert(key).second) continue;
    std::string q;
    for (size_t r : ranks) {
      if (!q.empty()) q += ' ';
      q += vocabulary[r];
    }
    out.push_back(std::move(q));
  }
  return out;
}

kws::xml::BibOptions BibOptions() {
  kws::xml::BibOptions o;
  o.num_venues = Shape::kXmlVenues;
  o.papers_per_venue = Shape::kXmlPapersPerVenue;
  return o;
}

}  // namespace

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kRelCold:
      return "rel_cold";
    case Workload::kRelHotWrites:
      return "rel_hot_writes";
    case Workload::kRelSharded:
      return "rel_sharded";
    case Workload::kXml:
      return "xml";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kRelCold, Workload::kRelHotWrites,
                     Workload::kRelSharded, Workload::kXml}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

size_t XmlCostClass(const kws::xml::XmlTree& tree, const std::string& query) {
  const std::vector<std::vector<kws::xml::XmlNodeId>> lists =
      kws::lca::MatchLists(tree, kws::text::Tokenizer().Tokenize(query));
  if (lists.empty()) return 0;
  const std::vector<kws::xml::XmlNodeId> anchors =
      kws::lca::SlcaIndexedLookupEager(tree, lists);
  if (anchors.empty()) return 0;
  for (kws::xml::XmlNodeId a : anchors) {
    if (tree.SubtreeEnd(a) - a + 1 == tree.size()) return 2;
  }
  return 1;
}

kws::relational::DblpOptions CorpusOptions() {
  return kws::relational::DblpOptions();  // 20 / 200 / 500, seed 42
}

std::vector<std::string> RelationalPool(
    const kws::relational::DblpDatabase& db) {
  kws::relational::QueryLogOptions lo;
  lo.num_queries = Shape::kLogQueries;
  return kws::serve::QueryPool(
      kws::relational::MakeQueryLog(*db.db, db.paper, lo));
}

std::vector<kws::relational::RowInsert> MakeWriteBatch(
    const kws::relational::DblpDatabase& dblp, uint64_t seed, size_t b) {
  kws::relational::DblpInsertOptions o;
  o.seed = kws::SplitSeed(seed, kWriteStream + b);
  return kws::relational::MakeDblpInsertBatch(dblp, o);
}

Inputs::Inputs(Workload workload, uint64_t seed)
    : workload_(workload), seed_(seed) {
  if (workload == Workload::kXml) {
    const kws::xml::BibDocument bib =
        kws::xml::MakeBibDocument(BibOptions());
    std::vector<std::string> generated =
        XmlQueries(bib.vocabulary, kws::SplitSeed(seed, kXmlStream),
                   Shape::kXmlStreamLength);
    // Per-request cost is bimodal: root-anchored queries (about half the
    // generated ones) cost ~3-4 ms, the rest up to ~1 ms. At
    // `kXmlRootShare` p50 falls inside the cheap mode, among small-subtree
    // queries, and p95 inside the expensive one. At the cold streams'
    // share p50 fell among the large-subtree queries, whose cost moved
    // most with the host (p50 spread 0.28 over ten runs).
    ClassedQueries cheap;
    ClassedQueries root_anchored;
    for (std::string& q : generated) {
      const size_t c = XmlCostClass(bib.tree, q);
      (c == 2 ? root_anchored : cheap).emplace_back(std::move(q), c);
    }
    std::vector<size_t> classes;
    kws::Rng pick(kws::SplitSeed(seed, kRootStream));
    MixAtExpensiveShare(std::move(cheap), std::move(root_anchored),
                        Shape::kXmlRootShare, pick, &queries_, &classes);
    // Generation order drifts from head to tail terms as head term sets
    // run out; the stratified shuffle keeps the stream's composition, the
    // share of each cost class included, the same from start to end.
    order_ = StratifiedShuffle(classes, kws::SplitSeed(seed, kOrderStream));
    return;
  }
  const kws::relational::DblpDatabase dblp =
      kws::relational::MakeDblpDatabase(CorpusOptions());
  std::vector<std::string> pool = RelationalPool(dblp);
  if (workload != Workload::kRelHotWrites) {
    std::unique_ptr<kws::shard::ShardedCorpus> sharded;
    if (workload == Workload::kRelSharded) {
      sharded = std::make_unique<kws::shard::ShardedCorpus>(
          kws::shard::MakeShardedDblp(CorpusOptions(), Shape::kShards));
    }
    // Cost class of a query: how many of its keywords one database holds.
    // That is the served database, or on rel_sharded the shard covering
    // most of them, because shard selection prunes a shard that lacks a
    // keyword. Class 3 is the expensive mode (~70-130 ms on the miss
    // path); classes 1 and 2 cost ~3 and ~13-20 ms.
    auto cost_class = [&](const std::string& q) {
      if (sharded == nullptr) return PresentKeywords(*dblp.db, q);
      size_t best = 0;
      for (const auto& shard : sharded->shards) {
        best = std::max(best, PresentKeywords(*shard, q));
      }
      return best;
    };
    ClassedQueries cheap;
    ClassedQueries expensive;
    for (std::string& q : pool) {
      const size_t c = cost_class(q);
      // On rel_sharded, a query whose keywords no one shard holds all of
      // is pruned on some shards and searched on others, and costs from
      // 0.1 to 130 ms; such queries (~12 % of the pool) are left out.
      if (c < std::min<size_t>(KeywordCount(q), 3)) continue;
      (c == 3 ? expensive : cheap).emplace_back(std::move(q), c);
    }
    // A quantile in the middle of the expensive class flipped between the
    // host's phases (p50 of 3-keyword queries alone spread by 0.2-0.3 over
    // ten runs); its high tail, set by the slow phase that nearly every run
    // sees, moved least (p95: 0.03-0.13). At `kColdExpensiveShare` p50
    // falls at the cheap class's 89th percentile and p95 at the expensive
    // class's. The queries left out are the same for every seed.
    std::vector<size_t> classes;
    kws::Rng pick(kWarmupSeed);
    MixAtExpensiveShare(std::move(cheap), std::move(expensive),
                        Shape::kColdExpensiveShare, pick, &queries_,
                        &classes);
    // The warm-up prefix is the same for every seed (set-up cost should
    // not depend on which queries the seed happens to put first); the
    // seed orders the rest.
    order_ = StratifiedShuffle(classes, kWarmupSeed);
    order_.resize(Shape::kWarmupRequests);
    std::vector<bool> in_warmup(queries_.size(), false);
    for (uint32_t q : order_) in_warmup[q] = true;
    std::vector<size_t> rest_classes;
    std::vector<uint32_t> rest_ids;
    for (uint32_t q = 0; q < queries_.size(); ++q) {
      if (in_warmup[q]) continue;
      rest_classes.push_back(classes[q]);
      rest_ids.push_back(q);
    }
    for (uint32_t r : StratifiedShuffle(rest_classes,
                                        kws::SplitSeed(seed, kOrderStream))) {
      order_.push_back(rest_ids[r]);
    }
    return;
  }
  // Two keywords exactly: refills of 1-keyword queries cost ~4 ms against
  // ~18 ms for 2 keywords, and with both in the hot set p95 fell on the
  // edge between the two refill modes (12-19 ms over 10 seeds).
  for (const std::string& q : pool) {
    if (queries_.size() == Shape::kHotQueries) break;
    if (KeywordCount(q) == 2) queries_.push_back(q);
  }
  if (queries_.size() < Shape::kHotQueries) Die("hot query set too small");
  zipf_ = std::make_unique<kws::ZipfSampler>(queries_.size(),
                                             Shape::kHotTheta);
  std::vector<std::string> candidates = queries_;
  kws::Rng rng(kws::SplitSeed(seed, kStandingStream));
  rng.Shuffle(candidates);
  standing_.assign(candidates.begin(),
                   candidates.begin() + Shape::kStandingQueries);
}

uint32_t Inputs::QueryAt(size_t i) const {
  if (workload_ != Workload::kRelHotWrites) return order_[i];
  // The warm-up prefix sends every hot query once; after it, request i
  // is a Zipf draw seeded by (seed, i) alone.
  if (i < queries_.size()) return static_cast<uint32_t>(i);
  kws::Rng rng(kws::SplitSeed(kws::SplitSeed(seed_, kHotStream), i));
  return static_cast<uint32_t>(zipf_->Sample(rng));
}

size_t Inputs::length() const {
  return workload_ == Workload::kRelHotWrites ? static_cast<size_t>(-1)
                                               : order_.size();
}

size_t Inputs::warmup_length() const {
  switch (workload_) {
    case Workload::kRelHotWrites:
      return queries_.size();
    case Workload::kXml:
      return Shape::kXmlWarmupRequests;
    default:
      return Shape::kWarmupRequests;
  }
}

kws::serve::Pipeline Inputs::pipeline() const {
  return workload_ == Workload::kXml ? kws::serve::Pipeline::kXml
                                     : kws::serve::Pipeline::kRelational;
}

uint64_t Deployment::epoch() const {
  return dblp != nullptr ? dblp->db->epoch() : 0;
}

std::unique_ptr<Deployment> BuildDeployment(const Inputs& inputs,
                                            size_t num_workers) {
  auto d = std::make_unique<Deployment>();
  kws::serve::ServeOptions so;
  so.num_workers = num_workers;
  so.search_threads = Shape::kSearchThreads;
  switch (inputs.workload()) {
    case Workload::kRelCold:
    case Workload::kRelHotWrites:
      d->dblp = std::make_unique<kws::relational::DblpDatabase>(
          kws::relational::MakeDblpDatabase(CorpusOptions()));
      d->engine =
          std::make_unique<kws::engine::KeywordSearchEngine>(*d->dblp->db);
      d->server = std::make_unique<kws::serve::ServingEngine>(
          d->engine.get(), nullptr, so);
      for (const std::string& q : inputs.standing()) {
        kws::Result<uint64_t> id = d->server->RegisterQuery(q, Shape::kTopK);
        if (!id.ok()) Die("RegisterQuery: " + id.status().ToString());
        d->standing_ids.push_back(id.value());
      }
      break;
    case Workload::kRelSharded:
      d->sharded_corpus = std::make_unique<kws::shard::ShardedCorpus>(
          kws::shard::MakeShardedDblp(CorpusOptions(),
                                      Shape::kShards));
      d->sharded = std::make_unique<kws::shard::ShardedEngine>(
          *d->sharded_corpus);
      so.num_shards = Shape::kShards;
      d->server = std::make_unique<kws::serve::ServingEngine>(
          nullptr, nullptr, d->sharded.get(), so);
      break;
    case Workload::kXml:
      d->bib = std::make_unique<kws::xml::BibDocument>(
          kws::xml::MakeBibDocument(BibOptions()));
      d->xml = std::make_unique<kws::engine::XmlKeywordSearch>(d->bib->tree);
      d->server = std::make_unique<kws::serve::ServingEngine>(
          nullptr, d->xml.get(), so);
      break;
  }
  return d;
}

void WriteGate::LockShared() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return !writer_ && writers_waiting_ == 0; });
  ++readers_;
}

void WriteGate::UnlockShared() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --readers_;
  }
  cv_.notify_all();
}

void WriteGate::Lock() {
  std::unique_lock<std::mutex> lock(mu_);
  ++writers_waiting_;
  cv_.wait(lock, [this] { return !writer_ && readers_ == 0; });
  --writers_waiting_;
  writer_ = true;
}

void WriteGate::Unlock() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    writer_ = false;
  }
  cv_.notify_all();
}

LoopResult RunLoop(Deployment& deployment, const Inputs& inputs,
                   const LoopOptions& options) {
  LoopResult result;
  const size_t end = std::min(options.end, inputs.length());
  const bool writes = options.reads_per_write > 0;
  if (writes && deployment.dblp == nullptr) Die("writes need a relational db");
  kws::serve::ServingEngine& server = *deployment.server;
  WriteGate gate;
  std::atomic<size_t> next{options.begin};
  std::atomic<size_t> reads_done{0};
  std::atomic<int> reads_in_flight{0};
  std::atomic<uint64_t> retries{0};
  std::atomic<uint64_t> refused{0};
  std::atomic<uint64_t> overlaps{0};
  std::mutex writer_mu;  // serializes batch generation and application
  size_t batches_applied = 0;
  std::mutex merge_mu;

  // Applies every batch up to `batch` in order; runs on the client thread
  // whose read completed the triggering count.
  auto write = [&](size_t batch) {
    std::lock_guard<std::mutex> wl(writer_mu);
    while (batches_applied < batch) {
      WriteSample w;
      w.batch = ++batches_applied;
      // Generation only reads the database, which nothing mutates while
      // `writer_mu` is held, so it overlaps in-flight reads safely.
      w.rows = MakeWriteBatch(*deployment.dblp, inputs.seed(), w.batch);
      std::vector<kws::relational::RowInsert> rows = w.rows;
      const Clock::time_point q0 = Clock::now();
      gate.Lock();
      const Clock::time_point q1 = Clock::now();
      if (reads_in_flight.load() != 0) overlaps.fetch_add(1);
      kws::Result<kws::relational::WriteReport> report =
          deployment.dblp->db->ApplyInserts(std::move(rows));
      if (report.ok()) server.NotifyWrite(report.value());
      const Clock::time_point n1 = Clock::now();
      w.quiesce_us = MicrosBetween(q0, q1);
      w.write_us = MicrosBetween(q1, n1);
      w.ok = report.ok();
      if (report.ok()) {
        w.epoch = report.value().epoch;
        for (uint64_t id : deployment.standing_ids) {
          kws::Result<std::vector<kws::cn::SearchResult>> s =
              server.StandingResults(id);
          if (!s.ok()) w.ok = false;
          w.standing.push_back(s.ok() ? std::move(s).value()
                                      : std::vector<kws::cn::SearchResult>{});
        }
      }
      gate.Unlock();
      std::lock_guard<std::mutex> ml(merge_mu);
      result.writes.push_back(std::move(w));
    }
  };

  const Clock::time_point start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  auto client = [&] {
    std::vector<ReadSample> local;
    for (;;) {
      if (options.seconds > 0 && Clock::now() >= deadline) break;
      const size_t i = next.fetch_add(1);
      if (i >= end) break;
      kws::serve::QueryRequest request;
      request.query = inputs.TextAt(i);
      request.pipeline = inputs.pipeline();
      request.k = Shape::kTopK;
      ReadSample s;
      s.request = i;
      const Clock::time_point t0 = Clock::now();
      if (writes) {
        gate.LockShared();
        reads_in_flight.fetch_add(1);
      }
      s.epoch = deployment.epoch();
      std::future<kws::serve::QueryOutcome> future;
      kws::Status admitted;
      for (;;) {
        admitted = server.Submit(request, &future);
        if (admitted.code() != kws::StatusCode::kResourceExhausted) break;
        retries.fetch_add(1);
        std::this_thread::yield();
      }
      kws::serve::QueryOutcome outcome;
      if (admitted.ok()) {
        // Poll for the reply for up to `Shape::kPollMicros` before blocking
        // on it. A client asleep in `get()` is woken on a vCPU the host
        // may have parked; on a shared host that wake-up alone took from
        // microseconds to milliseconds, which put the host's scheduler,
        // not the serving path, into the sub-millisecond latencies. Longer
        // requests block, so the clients do not keep two more vCPUs busy.
        const Clock::time_point poll_until =
            Clock::now() + std::chrono::microseconds(Shape::kPollMicros);
        while (future.wait_for(std::chrono::seconds(0)) !=
                   std::future_status::ready &&
               Clock::now() < poll_until) {
          std::this_thread::yield();
        }
        outcome = future.get();
      } else {
        refused.fetch_add(1);
      }
      if (writes) {
        reads_in_flight.fetch_sub(1);
        gate.UnlockShared();
      }
      const Clock::time_point t1 = Clock::now();
      s.latency_us = MicrosBetween(t0, t1);
      s.done_s = MicrosBetween(start, t1) / 1e6;
      s.exec_us = outcome.latency_micros;
      s.cache_hit = outcome.cache_hit;
      s.ok = admitted.ok() && outcome.status.ok() &&
             (outcome.relational != nullptr || outcome.xml != nullptr);
      if (outcome.relational != nullptr) {
        s.fingerprint = Fingerprint(*outcome.relational);
      } else if (outcome.xml != nullptr) {
        s.fingerprint = Fingerprint(*outcome.xml);
      }
      local.push_back(std::move(s));
      if (writes) {
        const size_t n = reads_done.fetch_add(1) + 1;
        if (n % options.reads_per_write == 0) {
          write(n / options.reads_per_write);
        }
      }
    }
    std::lock_guard<std::mutex> lock(merge_mu);
    for (ReadSample& s : local) result.reads.push_back(std::move(s));
  };
  {
    std::vector<std::jthread> clients;
    for (size_t c = 0; c < Shape::kClients; ++c) clients.emplace_back(client);
  }
  result.elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  std::sort(result.reads.begin(), result.reads.end(),
            [](const ReadSample& a, const ReadSample& b) {
              return a.request < b.request;
            });
  std::sort(result.writes.begin(), result.writes.end(),
            [](const WriteSample& a, const WriteSample& b) {
              return a.batch < b.batch;
            });
  result.admission_retries = retries.load();
  result.refused = refused.load();
  result.overlaps = overlaps.load();
  return result;
}

void Warmup(Deployment& deployment, const Inputs& inputs) {
  LoopOptions o;
  o.end = inputs.warmup_length();
  RunLoop(deployment, inputs, o);
}

std::string DescribeSequence(Workload workload, uint64_t seed,
                             size_t num_requests, size_t num_writes) {
  std::ostringstream os;
  const Inputs inputs(workload, seed);
  const size_t n = std::min(num_requests, inputs.length());
  for (size_t i = 0; i < n; ++i) os << "R " << inputs.TextAt(i) << '\n';
  if (num_writes == 0) return os.str();
  kws::relational::DblpDatabase dblp =
      kws::relational::MakeDblpDatabase(CorpusOptions());
  for (size_t b = 1; b <= num_writes; ++b) {
    std::vector<kws::relational::RowInsert> batch =
        MakeWriteBatch(dblp, seed, b);
    for (const kws::relational::RowInsert& r : batch) {
      os << "W" << b << ' ' << r.table;
      for (const kws::relational::Value& v : r.row) os << " | " << v.ToString();
      os << '\n';
    }
    if (!dblp.db->ApplyInserts(std::move(batch)).ok()) {
      os << "W" << b << " rejected\n";
    }
  }
  return os.str();
}

}  // namespace servebench
