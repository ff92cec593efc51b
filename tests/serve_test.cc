#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/cn/tuple_set_cache.h"
#include "core/cn/tuple_sets.h"
#include "core/engine/engine.h"
#include "core/engine/xml_engine.h"
#include "obs/clock.h"
#include "relational/dblp.h"
#include "relational/query_log.h"
#include "serve/cache.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "shard/sharded_corpus.h"
#include "shard/sharded_engine.h"
#include "text/tokenizer.h"
#include "xml/bibgen.h"

namespace kws::serve {
namespace {

// ---------------------------------------------------------------------------
// ShardedResultCache unit tests.

CachedResult MakeEntry(double score) {
  auto response = std::make_shared<engine::EngineResponse>();
  engine::EngineResult result;
  result.score = score;
  response->results.push_back(result);
  CachedResult entry;
  entry.relational = std::move(response);
  return entry;
}

double EntryScore(const CachedResult& entry) {
  return entry.relational->results.at(0).score;
}

TEST(ResultCacheTest, GetReturnsWhatPutStored) {
  ShardedResultCache cache(8);
  EXPECT_FALSE(cache.Get("a").has_value());
  cache.Put("a", MakeEntry(1.0));
  auto hit = cache.Get("a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(EntryScore(*hit), 1.0);
  CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.evictions, 0u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsed) {
  // One shard so the LRU order is global and fully predictable.
  ShardedResultCache cache(/*capacity=*/2, /*num_shards=*/1);
  cache.Put("a", MakeEntry(1.0));
  cache.Put("b", MakeEntry(2.0));
  cache.Put("c", MakeEntry(3.0));  // evicts "a"
  EXPECT_FALSE(cache.Get("a").has_value());
  EXPECT_TRUE(cache.Get("b").has_value());
  EXPECT_TRUE(cache.Get("c").has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCacheTest, GetRefreshesRecency) {
  ShardedResultCache cache(2, 1);
  cache.Put("a", MakeEntry(1.0));
  cache.Put("b", MakeEntry(2.0));
  ASSERT_TRUE(cache.Get("a").has_value());  // "b" is now the LRU tail
  cache.Put("c", MakeEntry(3.0));           // evicts "b", not "a"
  EXPECT_TRUE(cache.Get("a").has_value());
  EXPECT_FALSE(cache.Get("b").has_value());
}

TEST(ResultCacheTest, PutRefreshesExistingKey) {
  ShardedResultCache cache(2, 1);
  cache.Put("a", MakeEntry(1.0));
  cache.Put("a", MakeEntry(9.0));
  EXPECT_EQ(cache.size(), 1u);
  auto hit = cache.Get("a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(EntryScore(*hit), 9.0);
}

TEST(ResultCacheTest, ZeroCapacityDisables) {
  ShardedResultCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.Put("a", MakeEntry(1.0));
  EXPECT_FALSE(cache.Get("a").has_value());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(ResultCacheTest, EvictionDoesNotInvalidateHandedOutResponses) {
  ShardedResultCache cache(1, 1);
  cache.Put("a", MakeEntry(1.0));
  auto hit = cache.Get("a");
  ASSERT_TRUE(hit.has_value());
  cache.Put("b", MakeEntry(2.0));  // evicts "a"
  // The shared_ptr we hold keeps the evicted response alive and intact.
  EXPECT_DOUBLE_EQ(EntryScore(*hit), 1.0);
}

TEST(ResultCacheTest, ClearDropsEntriesButKeepsStats) {
  ShardedResultCache cache(8);
  cache.Put("a", MakeEntry(1.0));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get("a").has_value());
  EXPECT_EQ(cache.stats().insertions, 1u);
}

// ---------------------------------------------------------------------------
// Shared corpora for the serving tests.

class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    relational::DblpOptions opts;
    opts.num_authors = 60;
    opts.num_papers = 120;
    opts.num_conferences = 8;
    dblp_ = new relational::DblpDatabase(MakeDblpDatabase(opts));
    engine_ = new engine::KeywordSearchEngine(*dblp_->db);
    xml::BibOptions bib;
    bib.num_venues = 6;
    bib.papers_per_venue = 8;
    bib_ = new xml::BibDocument(MakeBibDocument(bib));
    xml_engine_ = new engine::XmlKeywordSearch(bib_->tree);
  }
  static void TearDownTestSuite() {
    delete xml_engine_;
    delete bib_;
    delete engine_;
    delete dblp_;
    xml_engine_ = nullptr;
    bib_ = nullptr;
    engine_ = nullptr;
    dblp_ = nullptr;
  }
  static relational::DblpDatabase* dblp_;
  static engine::KeywordSearchEngine* engine_;
  static xml::BibDocument* bib_;
  static engine::XmlKeywordSearch* xml_engine_;
};

relational::DblpDatabase* ServeTest::dblp_ = nullptr;
engine::KeywordSearchEngine* ServeTest::engine_ = nullptr;
xml::BibDocument* ServeTest::bib_ = nullptr;
engine::XmlKeywordSearch* ServeTest::xml_engine_ = nullptr;

// ---------------------------------------------------------------------------
// Deadline enforcement: a ~zero budget must surface kDeadlineExceeded from
// both pipelines, not crash and not masquerade as an empty success.

TEST_F(ServeTest, RelationalZeroBudgetReturnsDeadlineExceeded) {
  engine::EngineOptions opts;
  opts.deadline = Deadline::AfterMicros(0);
  engine::EngineResponse r = engine_->Search("keyword search", opts);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
}

TEST_F(ServeTest, XmlZeroBudgetReturnsDeadlineExceeded) {
  engine::XmlEngineOptions opts;
  opts.deadline = Deadline::AfterMicros(0);
  engine::XmlResponse r = xml_engine_->Search("keyword search", opts);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
}

TEST_F(ServeTest, XmlElcaZeroBudgetReturnsDeadlineExceeded) {
  engine::XmlEngineOptions opts;
  opts.semantics = engine::XmlSemantics::kElca;
  opts.deadline = Deadline::AfterMicros(0);
  engine::XmlResponse r = xml_engine_->Search("keyword search", opts);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
}

TEST_F(ServeTest, UnlimitedBudgetIsOk) {
  engine::EngineResponse r = engine_->Search("keyword search");
  EXPECT_TRUE(r.status.ok());
  EXPECT_FALSE(r.results.empty());
}

TEST_F(ServeTest, ServerEnforcesTinyBudget) {
  ServeOptions so;
  so.num_workers = 1;
  ServingEngine server(engine_, xml_engine_, so);
  QueryRequest req;
  req.query = "keyword search";
  req.budget_micros = 1;
  QueryOutcome out = server.Query(req);
  EXPECT_EQ(out.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(
      server.telemetry().GetWindowedCounter("serve.deadline_exceeded")->total(),
      1u);
  // A deadline-truncated answer must not poison the cache.
  QueryOutcome again = server.Query(req);
  EXPECT_FALSE(again.cache_hit);
}

/// A clock that holds every read from a thread other than the one that
/// built it until `Open()`. A server built on it parks its worker at the
/// first clock read after a dequeue (`queue_wait_` in WorkerLoop), so a
/// test decides when the worker may go on, with no real-time sleep.
class GateClock : public obs::Clock {
 public:
  uint64_t NowMicros() const override {
    if (std::this_thread::get_id() == owner_) return 0;
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
    return 0;
  }

  /// Lets every held and later read through.
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  const std::thread::id owner_ = std::this_thread::get_id();  // names the test thread, starts none -- kwslint: allow(raw-thread)
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool open_ = false;
};

TEST_F(ServeTest, BudgetExpiredWhileQueuedDropsBeforeBackendWork) {
  // One worker, held at the gate on a blocker request: the second request
  // starves in the queue past its budget. Its deadline is anchored at
  // Submit, so the worker must drop it at dequeue with kDeadlineExceeded
  // — before any backend work (null response) — rather than granting it
  // a fresh budget when it finally runs.
  GateClock gate;
  ServeOptions so;
  so.num_workers = 1;
  so.clock = &gate;
  ServingEngine server(engine_, xml_engine_, so);
  QueryRequest blocker;  // cheap: only its place in the queue matters
  blocker.query = "keyword search";
  blocker.pipeline = Pipeline::kXml;
  blocker.bypass_cache = true;
  QueryRequest starved;
  starved.query = "database query";
  starved.bypass_cache = true;
  starved.budget_micros = 5'000;
  std::future<QueryOutcome> f1, f2;
  const Status s1 = server.Submit(blocker, &f1);
  const Status s2 = server.Submit(starved, &f2);
  // Open the gate once a 5 ms budget anchored after the starved Submit
  // has run out, so the starved request's own budget has too. The worker
  // dequeues it only after that.
  const Deadline later = Deadline::AfterMicros(5'000);
  while (!later.Expired()) std::this_thread::yield();
  gate.Open();
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_TRUE(f1.get().status.ok());
  QueryOutcome out = f2.get();
  EXPECT_EQ(out.status.code(), StatusCode::kDeadlineExceeded);
  // Dropped at dispatch, not truncated mid-search: no partial response.
  EXPECT_EQ(out.relational, nullptr);
  EXPECT_EQ(
      server.telemetry().GetWindowedCounter("serve.deadline_exceeded")->total(),
      1u);
}

TEST_F(ServeTest, SynchronousQueryBudgetStartsAtTheCall) {
  // The Query path has no queue: a generous budget anchored at the call
  // must let the same request succeed.
  ServeOptions so;
  so.num_workers = 1;
  ServingEngine server(engine_, xml_engine_, so);
  QueryRequest req;
  req.query = "keyword search";
  req.budget_micros = 10'000'000;
  QueryOutcome out = server.Query(req);
  EXPECT_TRUE(out.status.ok()) << out.status.ToString();
}

TEST_F(ServeTest, SearchThreadsProduceIdenticalResponses) {
  auto run = [&](size_t threads) {
    ServeOptions so;
    so.num_workers = 1;
    so.search_threads = threads;
    ServingEngine server(engine_, xml_engine_, so);
    QueryRequest req;
    req.query = "keyword search";
    req.bypass_cache = true;
    return server.Query(req);
  };
  const QueryOutcome serial = run(1);
  const QueryOutcome parallel = run(4);
  ASSERT_TRUE(serial.status.ok());
  ASSERT_TRUE(parallel.status.ok());
  ASSERT_NE(serial.relational, nullptr);
  ASSERT_NE(parallel.relational, nullptr);
  ASSERT_EQ(serial.relational->results.size(),
            parallel.relational->results.size());
  for (size_t i = 0; i < serial.relational->results.size(); ++i) {
    const auto& a = serial.relational->results[i];
    const auto& b = parallel.relational->results[i];
    EXPECT_EQ(a.score, b.score) << "rank " << i;
    EXPECT_EQ(a.tuples, b.tuples) << "rank " << i;
    EXPECT_EQ(a.description, b.description) << "rank " << i;
  }
}

TEST_F(ServeTest, ZeroKIsOkAndEmpty) {
  for (const size_t threads : {1u, 4u}) {
    ServeOptions so;
    so.num_workers = 1;
    so.search_threads = threads;
    ServingEngine server(engine_, xml_engine_, so);
    QueryRequest req;
    req.query = "keyword search";
    req.k = 0;
    const QueryOutcome out = server.Query(req);
    ASSERT_TRUE(out.status.ok()) << threads << " threads";
    ASSERT_NE(out.relational, nullptr) << threads << " threads";
    EXPECT_TRUE(out.relational->results.empty()) << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// Admission control and lifecycle.

TEST_F(ServeTest, AdmissionControlRejectsWhenQueueFull) {
  ServeOptions so;
  so.num_workers = 0;  // nothing drains: queue occupancy is deterministic
  so.queue_capacity = 2;
  ServingEngine server(engine_, xml_engine_, so);
  QueryRequest req;
  req.query = "keyword search";
  std::future<QueryOutcome> f1, f2, f3;
  EXPECT_TRUE(server.Submit(req, &f1).ok());
  EXPECT_TRUE(server.Submit(req, &f2).ok());
  Status rejected = server.Submit(req, &f3);
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(server.telemetry().GetWindowedCounter("serve.rejected")->total(),
            1u);

  server.Shutdown();
  // Queued-but-never-run tasks fail rather than abandoning their futures.
  EXPECT_EQ(f1.get().status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(f2.get().status.code(), StatusCode::kFailedPrecondition);

  std::future<QueryOutcome> f4;
  Status after = server.Submit(req, &f4);
  EXPECT_EQ(after.code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServeTest, WorkersDrainQueueAndFulfilFutures) {
  ServeOptions so;
  so.num_workers = 2;
  ServingEngine server(engine_, xml_engine_, so);
  std::vector<std::future<QueryOutcome>> futures(8);
  for (auto& f : futures) {
    QueryRequest req;
    req.query = "keyword search";
    ASSERT_TRUE(server.Submit(req, &f).ok());
  }
  for (auto& f : futures) {
    QueryOutcome out = f.get();
    EXPECT_TRUE(out.status.ok()) << out.status.ToString();
    ASSERT_NE(out.relational, nullptr);
    EXPECT_FALSE(out.relational->results.empty());
  }
  EXPECT_EQ(server.telemetry().GetWindowedCounter("serve.completed")->total(),
            8u);
  // One miss filled the cache; the duplicates hit it.
  EXPECT_GE(server.cache_stats().hits, 1u);
}

TEST_F(ServeTest, MissingPipelineFailsPrecondition) {
  ServingEngine server(engine_, /*xml=*/nullptr, {});
  QueryRequest req;
  req.query = "keyword search";
  req.pipeline = Pipeline::kXml;
  EXPECT_EQ(server.Query(req).status.code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Cache-key normalization: case/whitespace variants collapse to one key;
// a typo the cleaner corrects does not (its response says
// `query_was_corrected`), nor does a different k or pipeline.

TEST_F(ServeTest, CacheKeyNormalizesQueryText) {
  ServingEngine server(engine_, xml_engine_, {});
  QueryRequest a, b, c, d;
  a.query = "keyword search";
  b.query = "  Keyword   SEARCH ";
  c.query = "keywrd searh";  // cleaner fixes both typos
  d.query = "keyword search";
  d.k = 20;
  ASSERT_EQ(engine_->Normalize(c.query), engine_->Normalize(a.query));
  EXPECT_EQ(server.CacheKey(a), server.CacheKey(b));
  EXPECT_NE(server.CacheKey(a), server.CacheKey(c));
  EXPECT_NE(server.CacheKey(a), server.CacheKey(d));
  QueryRequest x = a;
  x.pipeline = Pipeline::kXml;
  EXPECT_NE(server.CacheKey(a), server.CacheKey(x));
}

TEST_F(ServeTest, NormalizedVariantHitsCache) {
  ServingEngine server(engine_, xml_engine_, {});
  QueryRequest req;
  req.query = "keyword search";
  QueryOutcome first = server.Query(req);
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.cache_hit);
  req.query = "Keyword  SEARCH";
  QueryOutcome second = server.Query(req);
  EXPECT_TRUE(second.cache_hit);
  // Hits share the immutable response object, not a copy.
  EXPECT_EQ(second.relational.get(), first.relational.get());
}

// The key's exact bytes: `tag`, the default tokenizer's tokens joined by
// single spaces, then "|k=" and k — over ordinary, all-stopword, empty
// and punctuation-only queries.
void ExpectCacheKeyBytes(const ServingEngine& server, Pipeline pipeline,
                         const std::string& tag) {
  for (const char* query :
       {"keyword search", "  Keyword   SEARCH ", "XML, keyword; search!",
        "the of and", "", "  ", ",,;; !?", "icde2011 c++"}) {
    for (const size_t k : {size_t{0}, size_t{10}, size_t{123}}) {
      QueryRequest req;
      req.query = query;
      req.pipeline = pipeline;
      req.k = k;
      EXPECT_EQ(server.CacheKey(req),
                tag + Join(text::Tokenizer().Tokenize(query), " ") +
                    "|k=" + std::to_string(k))
          << '"' << query << "\" k=" << k;
    }
  }
}

TEST_F(ServeTest, CacheKeyBytesAreTagTokensAndK) {
  ServingEngine server(engine_, xml_engine_, {});
  ExpectCacheKeyBytes(server, Pipeline::kRelational, "e0|rel|");
  ExpectCacheKeyBytes(server, Pipeline::kXml, "xml|");
}

// ---------------------------------------------------------------------------
// Oracle: serving through the cache returns the uncached engine's response
// on every field, over a sweep of seeds and repeated (Zipf-skewed) issues.

// Every `EngineResponse` field of a served relational outcome equals the
// uncached `direct` response for the same query text.
void ExpectSameResponse(const QueryOutcome& served,
                        const engine::EngineResponse& direct,
                        const std::string& query) {
  SCOPED_TRACE("query: \"" + query + "\"");
  EXPECT_EQ(served.status.code(), direct.status.code());
  ASSERT_NE(served.relational, nullptr);
  const engine::EngineResponse& got = *served.relational;
  EXPECT_EQ(got.status.code(), direct.status.code());
  EXPECT_EQ(got.status.message(), direct.status.message());
  EXPECT_EQ(got.cleaned_query, direct.cleaned_query);
  EXPECT_EQ(got.query_was_corrected, direct.query_was_corrected);
  ASSERT_EQ(got.results.size(), direct.results.size());
  for (size_t r = 0; r < direct.results.size(); ++r) {
    EXPECT_DOUBLE_EQ(got.results[r].score, direct.results[r].score);
    EXPECT_EQ(got.results[r].tuples, direct.results[r].tuples);
    EXPECT_EQ(got.results[r].description, direct.results[r].description);
  }
  EXPECT_EQ(got.suggestions, direct.suggestions);
}

relational::DblpDatabase OracleDblp(uint64_t seed) {
  relational::DblpOptions opts;
  opts.seed = seed;
  opts.num_authors = 40;
  opts.num_papers = 80;
  opts.num_conferences = 6;
  return MakeDblpDatabase(opts);
}

std::vector<std::string> OraclePool(const relational::DblpDatabase& dblp,
                                    uint64_t seed) {
  relational::QueryLogOptions lopts;
  lopts.seed = seed;
  lopts.num_queries = 40;
  return QueryPool(MakeQueryLog(*dblp.db, dblp.paper, lopts));
}

class ServeOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ServeOracleTest, CachedAnswersMatchUncached) {
  const uint64_t seed = GetParam();
  const relational::DblpDatabase dblp = OracleDblp(seed);
  engine::KeywordSearchEngine eng(*dblp.db);
  const std::vector<std::string> pool = OraclePool(dblp, seed);
  ASSERT_FALSE(pool.empty());

  ServeOptions so;
  so.num_workers = 1;
  so.cache_capacity = 64;
  ServingEngine cached(&eng, nullptr, so);

  Rng rng(SplitSeed(seed, 7));
  const ZipfSampler zipf(pool.size(), 0.9);
  for (int i = 0; i < 60; ++i) {
    QueryRequest req;
    req.query = pool[zipf.Sample(rng)];
    const QueryOutcome served = cached.Query(req);
    ASSERT_TRUE(served.status.ok()) << served.status.ToString();
    ExpectSameResponse(served, eng.Search(req.query), req.query);
  }
  // The skewed replay must actually have exercised the cache.
  EXPECT_GT(cached.cache_stats().hits, 0u);
}

// Spelling variants of one query: a case/whitespace variant tokenizes to
// the same tokens and may share the cached entry; a typo the cleaner
// corrects must not, because `query_was_corrected` differs. The variants
// are served in both orders, concurrently on two workers (racing fills),
// and every response must equal the uncached `Search` of its own text.
TEST(ServeOracleTest, SpellingVariantsMatchUncached) {
  constexpr uint64_t kSeed = 1;
  const relational::DblpDatabase dblp = OracleDblp(kSeed);
  engine::KeywordSearchEngine eng(*dblp.db);
  std::vector<std::string> pool = OraclePool(dblp, kSeed);
  ASSERT_FALSE(pool.empty());
  // Each query costs ~14 uncached searches below; 4 keep the test short.
  if (pool.size() > 4) pool.resize(4);

  std::vector<std::string> texts;
  std::vector<bool> is_typo;
  for (const std::string& q : pool) {
    std::string shouted = "  ";
    for (char c : q) {
      shouted += c == ' ' ? std::string("   ")
                          : std::string(1, static_cast<char>(std::toupper(
                                               static_cast<unsigned char>(c))));
    }
    // The first one-character deletion the cleaner corrects.
    std::string typo;
    for (size_t i = 1; i + 1 < q.size() && typo.empty(); ++i) {
      if (q[i] == ' ' || q[i - 1] == ' ' || q[i + 1] == ' ') continue;
      std::string candidate = q;
      candidate.erase(i, 1);
      if (eng.Normalize(candidate) != text::Tokenizer().Tokenize(candidate)) {
        typo = candidate;
      }
    }
    ASSERT_FALSE(typo.empty()) << "no corrected one-edit typo of " << q;
    texts.insert(texts.end(), {q, shouted + " ", typo});
    is_typo.insert(is_typo.end(), {false, false, true});
  }

  std::vector<QueryRequest> requests;
  std::vector<engine::EngineResponse> direct;
  for (size_t k : {size_t{3}, size_t{10}}) {
    for (size_t t = 0; t < texts.size(); ++t) {
      QueryRequest req;
      req.query = texts[t];
      req.k = k;
      requests.push_back(req);
      engine::EngineOptions eo;
      eo.k = k;
      direct.push_back(eng.Search(texts[t], eo));
      ASSERT_EQ(direct.back().query_was_corrected, is_typo[t]) << texts[t];
    }
  }

  for (bool reversed : {false, true}) {
    ServeOptions so;
    so.num_workers = 2;
    so.queue_capacity = requests.size();
    ServingEngine server(&eng, nullptr, so);
    // Two passes: the first races the fills, the second is served from
    // whatever the first left in the cache.
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<std::future<QueryOutcome>> futures(requests.size());
      for (size_t n = 0; n < requests.size(); ++n) {
        const size_t i = reversed ? requests.size() - 1 - n : n;
        ASSERT_TRUE(server.Submit(requests[i], &futures[i]).ok());
      }
      for (size_t i = 0; i < requests.size(); ++i) {
        SCOPED_TRACE("k=" + std::to_string(requests[i].k) +
                     (reversed ? " reversed" : " forward") + " pass " +
                     std::to_string(pass));
        ExpectSameResponse(futures[i].get(), direct[i], requests[i].query);
      }
    }
    EXPECT_GT(server.cache_stats().hits, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServeOracleTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

TEST_F(ServeTest, XmlServingMatchesDirectSearch) {
  ServingEngine server(engine_, xml_engine_, {});
  QueryRequest req;
  req.query = "keyword search";
  req.pipeline = Pipeline::kXml;
  QueryOutcome served = server.Query(req);
  ASSERT_TRUE(served.status.ok()) << served.status.ToString();
  ASSERT_NE(served.xml, nullptr);
  engine::XmlResponse direct = xml_engine_->Search(req.query);
  ASSERT_EQ(served.xml->results.size(), direct.results.size());
  for (size_t i = 0; i < direct.results.size(); ++i) {
    EXPECT_EQ(served.xml->results[i].anchor, direct.results[i].anchor);
    EXPECT_EQ(served.xml->results[i].display_root,
              direct.results[i].display_root);
    EXPECT_DOUBLE_EQ(served.xml->results[i].score, direct.results[i].score);
    EXPECT_EQ(served.xml->results[i].snippet, direct.results[i].snippet);
  }
}

// ---------------------------------------------------------------------------
// Query pool.

TEST_F(ServeTest, QueryPoolDeduplicatesInLogOrder) {
  relational::QueryLog log;
  log.push_back({{"a", "b"}, {}, 1});
  log.push_back({{}, {}, 1});          // empty: dropped
  log.push_back({{"c"}, {}, 1});
  log.push_back({{"a", "b"}, {}, 3});  // duplicate: dropped
  EXPECT_EQ(QueryPool(log), (std::vector<std::string>{"a b", "c"}));
}

// ---------------------------------------------------------------------------
// Request accounting: once the server has shut down, every submitted
// request sits in exactly one outcome bucket, whatever the schedule and
// however real time falls against the 1 us budgets. On the TSan gate.

/// Several clients `Submit` a mix — repeated queries (cache hits), one
/// `bypass_cache` request, XML requests to a server with no XML engine
/// (errors), 1 us budgets (ok or deadline_exceeded), and enough volume
/// to overflow a small queue — then the server shuts down and the
/// accounting invariants are checked.
void CheckRequestAccounting(const engine::KeywordSearchEngine* engine,
                            size_t num_workers) {
  ServeOptions so;
  so.num_workers = num_workers;
  so.queue_capacity = 4;
  ServingEngine server(engine, /*xml=*/nullptr, so);
  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 12;
  const std::vector<std::string> queries = {"keyword search",
                                            "database query"};
  // Futures still pending when the clients finish (all of them with 0
  // workers) resolve at Shutdown.
  std::vector<std::vector<std::future<QueryOutcome>>> unsettled(kClients);
  std::atomic<uint64_t> admitted_bypass{0};
  ThreadPool clients(kClients);
  clients.RunOnAll([&](size_t client) {
    std::vector<std::future<QueryOutcome>>& pending = unsettled[client];
    for (size_t i = 0; i < kPerClient; ++i) {
      QueryRequest req;
      req.query = queries[(client + i) % queries.size()];
      if (i % 4 == 1) req.pipeline = Pipeline::kXml;
      if (i % 4 == 2) req.budget_micros = 1;
      req.bypass_cache = client == 0 && i == 0;
      std::future<QueryOutcome> f;
      if (server.Submit(req, &f).ok()) {
        if (req.bypass_cache) admitted_bypass.fetch_add(1);
        pending.push_back(std::move(f));
      }
      // With workers, each client settles its burst of three before the
      // next, so most requests run and repeats hit the cache; four
      // clients' bursts still overflow the queue now and then.
      if (num_workers > 0 && i % 3 == 2) {
        for (auto& p : pending) (void)p.get();
        pending.clear();
      }
    }
  });
  server.Shutdown();
  for (auto& pending : unsettled) {
    for (auto& f : pending) (void)f.get();
  }

  obs::TelemetryRegistry& t = server.telemetry();
  const auto total = [&](const char* name) {
    return t.GetWindowedCounter(name)->total();
  };
  const uint64_t submitted = total("serve.submitted");
  const uint64_t completed = total("serve.completed");
  const uint64_t rejected = total("serve.rejected");
  EXPECT_EQ(submitted, kClients * kPerClient);
  EXPECT_EQ(submitted, completed + rejected);
  EXPECT_EQ(completed, total("serve.ok") + total("serve.deadline_exceeded") +
                           total("serve.errors"));
  // With workers, Shutdown drains every admitted task; with none, it
  // fails them all unexecuted — so an admitted bypass completed iff
  // there were workers.
  const uint64_t bypassed = num_workers > 0 ? admitted_bypass.load() : 0;
  EXPECT_EQ(total("serve.cache.hits") + total("serve.cache.misses"),
            completed - bypassed);
  EXPECT_EQ(total("serve.cache.hits"), server.cache_stats().hits);
  EXPECT_EQ(t.GetWindowedHistogram("serve.latency_micros")->total().count(),
            completed);
  if (num_workers == 0) {
    EXPECT_EQ(completed, 0u);
    EXPECT_EQ(rejected, submitted);
  }
}

TEST_F(ServeTest, RequestAccountingInvariantsHoldUnderConcurrentClients) {
  CheckRequestAccounting(engine_, /*num_workers=*/2);
}

TEST_F(ServeTest, RequestAccountingInvariantsHoldWithZeroWorkers) {
  // Nothing executes: the queue overflows and Shutdown fails every
  // queued task, each of which must count as rejected.
  CheckRequestAccounting(engine_, /*num_workers=*/0);
}

// ---------------------------------------------------------------------------
// Handoff: a worker that has just finished a task may still be polling for
// the next one, or may already be parked. Requests submitted in either
// state must all run, and every answer must equal the synchronous path's.
// Rerun many times under TSan (ci.sh tier 3): a lost wakeup is a rare
// interleaving, and it shows here as a future that never becomes ready.

/// Every field a served outcome carries equals `want`'s (the synchronous
/// `Query` answer to the same request).
void ExpectSameOutcome(const QueryOutcome& got, const QueryOutcome& want,
                       const std::string& query) {
  SCOPED_TRACE("query: \"" + query + "\"");
  ASSERT_EQ(got.status.code(), want.status.code());
  ASSERT_EQ(got.relational == nullptr, want.relational == nullptr);
  ASSERT_EQ(got.xml == nullptr, want.xml == nullptr);
  if (want.relational != nullptr) {
    ExpectSameResponse(got, *want.relational, query);
  }
  if (want.xml != nullptr) {
    ASSERT_EQ(got.xml->results.size(), want.xml->results.size());
    for (size_t i = 0; i < want.xml->results.size(); ++i) {
      EXPECT_EQ(got.xml->results[i].anchor, want.xml->results[i].anchor);
      EXPECT_EQ(got.xml->results[i].display_root,
                want.xml->results[i].display_root);
      EXPECT_EQ(got.xml->results[i].score, want.xml->results[i].score);
      EXPECT_EQ(got.xml->results[i].snippet, want.xml->results[i].snippet);
    }
  }
}

/// Spins `micros` of real time on a `Deadline` (no sleep): long enough for
/// an idle worker to stop polling and park.
void BusyWait(uint64_t micros) {
  const Deadline until = Deadline::AfterMicros(micros);
  while (!until.Expired()) std::this_thread::yield();
}

/// Small corpora, so the tests stay short under repeated TSan runs; a
/// relational miss still costs ~10 ms of CN enumeration whatever the size.
class ServeHandoffTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    relational::DblpOptions opts;
    opts.num_authors = 12;
    opts.num_papers = 20;
    opts.num_conferences = 3;
    dblp_ = new relational::DblpDatabase(MakeDblpDatabase(opts));
    engine_ = new engine::KeywordSearchEngine(*dblp_->db);
    xml::BibOptions bib;
    bib.num_venues = 3;
    bib.papers_per_venue = 4;
    bib_ = new xml::BibDocument(MakeBibDocument(bib));
    xml_engine_ = new engine::XmlKeywordSearch(bib_->tree);
  }
  static void TearDownTestSuite() {
    delete xml_engine_;
    delete bib_;
    delete engine_;
    delete dblp_;
    xml_engine_ = nullptr;
    bib_ = nullptr;
    engine_ = nullptr;
    dblp_ = nullptr;
  }

  /// A gap well past the time a worker polls before it parks.
  static constexpr uint64_t kGapMicros = 10 * ServingEngine::kWorkerSpinMicros;
  /// How long a test waits on a future before calling it lost.
  static constexpr std::chrono::seconds kLostAfter{60};

  /// XML requests, cached and cache-bypassing (each bypass runs the
  /// search), plus — when `relational` — one cached relational request,
  /// which each server runs once and then serves from its cache.
  static std::vector<QueryRequest> Requests(bool relational) {
    std::vector<QueryRequest> requests;
    for (const char* q : {"xml database", "keyword search", "query search"}) {
      QueryRequest xml;
      xml.query = q;
      xml.pipeline = Pipeline::kXml;
      requests.push_back(xml);
      xml.bypass_cache = true;
      requests.push_back(xml);
    }
    if (relational) {
      QueryRequest rel;
      rel.query = "query search";
      requests.push_back(rel);
    }
    return requests;
  }

  /// The synchronous `Query` answer to each of `requests`.
  static std::vector<QueryOutcome> Expected(
      const std::vector<QueryRequest>& requests) {
    ServeOptions so;
    so.num_workers = 0;
    ServingEngine reference(engine_, xml_engine_, so);
    std::vector<QueryOutcome> expected;
    size_t answered = 0;
    for (const QueryRequest& req : requests) {
      expected.push_back(reference.Query(req));
      const QueryOutcome& want = expected.back();
      answered += want.relational != nullptr
                      ? !want.relational->results.empty()
                      : want.xml != nullptr && !want.xml->results.empty();
    }
    EXPECT_EQ(answered, requests.size()) << "every request should match";
    return expected;
  }

  static relational::DblpDatabase* dblp_;
  static engine::KeywordSearchEngine* engine_;
  static xml::BibDocument* bib_;
  static engine::XmlKeywordSearch* xml_engine_;
};

relational::DblpDatabase* ServeHandoffTest::dblp_ = nullptr;
engine::KeywordSearchEngine* ServeHandoffTest::engine_ = nullptr;
xml::BibDocument* ServeHandoffTest::bib_ = nullptr;
engine::XmlKeywordSearch* ServeHandoffTest::xml_engine_ = nullptr;

TEST_F(ServeHandoffTest, SpinningAndParkedWorkersServeEveryRequest) {
  const std::vector<QueryRequest> requests = Requests(/*relational=*/true);
  const std::vector<QueryOutcome> expected = Expected(requests);
  constexpr size_t kRounds = 12;
  for (const size_t workers : {1u, 2u, 4u}) {
    // One server per pool size, so its relational request misses once.
    ServeOptions so;
    so.num_workers = workers;
    ServingEngine server(engine_, xml_engine_, so);
    // Running totals over the client counts served so far.
    size_t submitted = 0;
    size_t total = 0;
    for (size_t clients = 1; clients <= 4; ++clients) {
      SCOPED_TRACE(std::to_string(workers) + " workers, " +
                   std::to_string(clients) + " clients");
      // Per client: (request index, outcome), or index only when lost.
      std::vector<std::vector<std::pair<size_t, std::optional<QueryOutcome>>>>
          served(clients);
      ThreadPool pool(clients);
      pool.RunOnAll([&](size_t client) {
        for (size_t round = 0; round < kRounds; ++round) {
          // A burst of back-to-back Submits, each of which may find a
          // worker still polling after the previous burst.
          const size_t burst = 1 + (client + round) % 3;
          std::vector<std::pair<size_t, std::future<QueryOutcome>>> pending;
          for (size_t j = 0; j < burst; ++j) {
            const size_t i = (client * 5 + round * 3 + j) % requests.size();
            std::future<QueryOutcome> f;
            if (server.Submit(requests[i], &f).ok()) {
              pending.emplace_back(i, std::move(f));
            }
          }
          for (auto& [i, f] : pending) {
            if (f.wait_for(kLostAfter) == std::future_status::ready) {
              served[client].emplace_back(i, f.get());
            } else {
              served[client].emplace_back(i, std::nullopt);
            }
          }
          // Every other round, leave the workers idle long enough to park.
          if (round % 2 == 1) BusyWait(kGapMicros);
        }
      });
      for (size_t c = 0; c < clients; ++c) {
        for (size_t round = 0; round < kRounds; ++round) {
          submitted += 1 + (c + round) % 3;
        }
        for (const auto& [i, outcome] : served[c]) {
          ASSERT_TRUE(outcome.has_value())
              << "request " << i << " never became ready";
          ExpectSameOutcome(*outcome, expected[i], requests[i].query);
          ++total;
        }
      }
      // No Submit was rejected: the queue never held more than 12.
      ASSERT_EQ(total, submitted);
      const std::string n = std::to_string(total);
      const std::string doc = server.Statusz();
      EXPECT_NE(doc.find("\"requests\":{\"submitted\":" + n +
                         ",\"completed\":" + n + ","),
                std::string::npos)
          << doc;
    }
  }
}

TEST_F(ServeHandoffTest, ShutdownRightAfterABurstDrainsEveryRequest) {
  const std::vector<QueryRequest> requests = Requests(/*relational=*/false);
  const std::vector<QueryOutcome> expected = Expected(requests);
  constexpr size_t kBurst = 6;
  for (const size_t workers : {1u, 2u, 4u}) {
    for (size_t iter = 0; iter < 24; ++iter) {
      SCOPED_TRACE(std::to_string(workers) + " workers, iteration " +
                   std::to_string(iter));
      std::vector<std::pair<size_t, std::future<QueryOutcome>>> pending;
      {
        ServeOptions so;
        so.num_workers = workers;
        ServingEngine server(engine_, xml_engine_, so);
        for (size_t j = 0; j < kBurst; ++j) {
          const size_t i = (iter + j) % requests.size();
          std::future<QueryOutcome> f;
          ASSERT_TRUE(server.Submit(requests[i], &f).ok());
          pending.emplace_back(i, std::move(f));
        }
        // Half the time, shut down the moment the first answer lands, while
        // the worker that produced it is polling for more.
        if (iter % 2 == 0) {
          ASSERT_EQ(pending[0].second.wait_for(kLostAfter),
                    std::future_status::ready);
        }
        if (iter % 4 < 2) {
          server.Shutdown();
          const std::string n = std::to_string(kBurst);
          const std::string doc = server.Statusz();
          EXPECT_NE(doc.find("\"requests\":{\"submitted\":" + n +
                             ",\"completed\":" + n + ","),
                    std::string::npos)
              << doc;
        }
      }  // ~ServingEngine: Shutdown drains the queue and joins the workers
      for (auto& [i, f] : pending) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready)
            << "request " << i << " abandoned by Shutdown";
        ExpectSameOutcome(f.get(), expected[i], requests[i].query);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Tuple-set frontier cache: term-level reuse across queries, capacity
// bounds, and the complete-answers-only rule under deadlines.

TEST_F(ServeTest, TupleCacheHitsAcrossQueriesSharingTerms) {
  ServeOptions so;
  so.num_workers = 1;
  so.cache_capacity = 0;  // isolate the tuple cache from the result cache
  ServingEngine server(engine_, xml_engine_, so);
  ASSERT_NE(server.tuple_cache(), nullptr);

  QueryRequest req;
  req.query = "keyword search";
  ASSERT_TRUE(server.Query(req).status.ok());
  const uint64_t misses_after_first = server.tuple_cache()->stats().misses;
  EXPECT_GT(misses_after_first, 0u);
  EXPECT_EQ(server.tuple_cache()->stats().hits, 0u);

  // A *different* query sharing the term "keyword": the result cache
  // cannot help (different key), the term cache must.
  req.query = "keyword";
  ASSERT_TRUE(server.Query(req).status.ok());
  EXPECT_GT(server.tuple_cache()->stats().hits, 0u);
  EXPECT_EQ(server.tuple_cache()->stats().misses, misses_after_first);
}

TEST_F(ServeTest, TupleCacheRepeatQueryIsAllHits) {
  ServeOptions so;
  so.num_workers = 1;
  so.cache_capacity = 0;
  ServingEngine server(engine_, xml_engine_, so);
  QueryRequest req;
  req.query = "keyword search";
  ASSERT_TRUE(server.Query(req).status.ok());
  const uint64_t misses = server.tuple_cache()->stats().misses;
  ASSERT_TRUE(server.Query(req).status.ok());
  // The repeat resolved every term from the cache: no new misses.
  EXPECT_EQ(server.tuple_cache()->stats().misses, misses);
  EXPECT_GE(server.tuple_cache()->stats().hits, misses);
}

TEST_F(ServeTest, TupleCacheCapacityBoundEvicts) {
  ServeOptions so;
  so.num_workers = 1;
  so.cache_capacity = 0;
  so.tuple_cache_capacity = 1;  // a two-term query must evict
  ServingEngine server(engine_, xml_engine_, so);
  QueryRequest req;
  req.query = "keyword search";
  ASSERT_TRUE(server.Query(req).status.ok());
  ASSERT_NE(server.tuple_cache(), nullptr);
  EXPECT_GE(server.tuple_cache()->stats().evictions, 1u);
  EXPECT_EQ(server.tuple_cache()->size(), 1u);
}

TEST_F(ServeTest, TupleCacheDisabledByZeroCapacity) {
  ServeOptions so;
  so.num_workers = 1;
  so.tuple_cache_capacity = 0;
  ServingEngine server(engine_, xml_engine_, so);
  EXPECT_EQ(server.tuple_cache(), nullptr);
  // Queries still work, just without term reuse.
  QueryRequest req;
  req.query = "keyword search";
  EXPECT_TRUE(server.Query(req).status.ok());
}

TEST_F(ServeTest, TupleCacheNeverStoresDeadlineTruncatedBuilds) {
  cn::TupleSetCache cache(*dblp_->db, 8);
  // An already-expired deadline aborts the frontier build: the caller
  // gets nullptr and nothing is inserted.
  EXPECT_EQ(cache.Get("keyword", Deadline::AfterMicros(0)), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // The same term with budget builds and caches a complete frontier.
  auto frontier = cache.Get("keyword");
  ASSERT_NE(frontier, nullptr);
  EXPECT_GT(frontier->num_rows, 0u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);

  // And the truncated attempt did not poison it: a re-Get hits.
  EXPECT_EQ(cache.Get("keyword"), frontier);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST_F(ServeTest, TupleSetsIdenticalWithAndWithoutCache) {
  // The cached path must reproduce the uncached TupleSets bit for bit:
  // same masks, same scores, same set contents.
  const std::vector<std::string> keywords = {"keyword", "search"};
  cn::TupleSets plain(*dblp_->db, keywords);
  cn::TupleSetCache cache(*dblp_->db, 8);
  cn::TupleSets warm(*dblp_->db, keywords, &cache);   // fills the cache
  cn::TupleSets cached(*dblp_->db, keywords, &cache);  // all hits
  EXPECT_GT(cache.stats().hits, 0u);
  for (size_t k = 0; k < keywords.size(); ++k) {
    EXPECT_DOUBLE_EQ(plain.Idf(k), cached.Idf(k));
  }
  const size_t num_tables = dblp_->db->num_tables();
  for (relational::TableId t = 0; t < num_tables; ++t) {
    ASSERT_EQ(plain.table_mask(t), cached.table_mask(t));
    for (cn::KeywordMask mask = 1; mask < (1u << keywords.size()); ++mask) {
      const auto& a = plain.Get(t, mask);
      const auto& b = cached.Get(t, mask);
      ASSERT_EQ(a.size(), b.size()) << "t=" << t << " mask=" << mask;
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].row, b[i].row);
        EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Slow-query log and the deterministic trace sampler.

TEST_F(ServeTest, SlowQueryLogIsOldestFirstWithIncreasingSequence) {
  ServeOptions so;
  so.num_workers = 0;
  // slow_query_micros = 0 (the default): every completed query is logged.
  ServingEngine server(engine_, xml_engine_, so);
  const std::vector<std::string> queries = {"keyword search", "database query",
                                            "xml data"};
  for (const std::string& q : queries) {
    QueryRequest req;
    req.query = q;
    req.bypass_cache = true;
    ASSERT_TRUE(server.Query(req).status.ok()) << q;
  }
  const std::vector<SlowQueryEntry> log = server.SlowQueries();
  ASSERT_EQ(log.size(), queries.size());
  for (size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].sequence, i);
    EXPECT_EQ(log[i].query, queries[i]);
    EXPECT_EQ(log[i].queue_wait_micros, 0.0);  // synchronous path
    EXPECT_FALSE(log[i].cache_hit);
    EXPECT_FALSE(log[i].sampled);   // sampler off
    EXPECT_TRUE(log[i].trace.empty());
    EXPECT_EQ(log[i].code, StatusCode::kOk);
    EXPECT_GT(log[i].latency_micros, 0.0);
  }
  server.Shutdown();
}

TEST_F(ServeTest, SlowQueryLogCapacityEvictsOldestEntries) {
  ServeOptions so;
  so.num_workers = 0;
  so.slow_query_log_capacity = 2;
  ServingEngine server(engine_, xml_engine_, so);
  for (int i = 0; i < 5; ++i) {
    QueryRequest req;
    req.query = "keyword search";
    req.bypass_cache = true;
    ASSERT_TRUE(server.Query(req).status.ok());
  }
  const std::vector<SlowQueryEntry> log = server.SlowQueries();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].sequence, 3u);
  EXPECT_EQ(log[1].sequence, 4u);
  server.Shutdown();
}

TEST_F(ServeTest, SlowQueryThresholdAndZeroCapacityFilter) {
  // An unreachable latency threshold keeps the log empty...
  ServeOptions so;
  so.num_workers = 0;
  so.slow_query_micros = 1'000'000'000'000ull;
  {
    ServingEngine server(engine_, xml_engine_, so);
    QueryRequest req;
    req.query = "keyword search";
    ASSERT_TRUE(server.Query(req).status.ok());
    EXPECT_TRUE(server.SlowQueries().empty());
    server.Shutdown();
  }
  // ...and capacity 0 disables the log even for sampled queries.
  so.slow_query_micros = 0;
  so.slow_query_log_capacity = 0;
  so.trace_sample_every_n = 1;
  {
    ServingEngine server(engine_, xml_engine_, so);
    QueryRequest req;
    req.query = "keyword search";
    ASSERT_TRUE(server.Query(req).status.ok());
    EXPECT_TRUE(server.SlowQueries().empty());
    server.Shutdown();
  }
}

TEST_F(ServeTest, TraceSamplingIsDeterministicByExecutionSequence) {
  ServeOptions so;
  so.num_workers = 0;
  so.trace_sample_every_n = 4;
  so.slow_query_log_capacity = 64;
  ServingEngine server(engine_, xml_engine_, so);
  for (int i = 0; i < 12; ++i) {
    QueryRequest req;
    req.query = "keyword search";
    req.bypass_cache = true;
    ASSERT_TRUE(server.Query(req).status.ok());
  }
  const std::vector<SlowQueryEntry> log = server.SlowQueries();
  ASSERT_EQ(log.size(), 12u);
  size_t sampled = 0;
  for (const SlowQueryEntry& e : log) {
    const bool expect_sampled = e.sequence % 4 == 0;
    EXPECT_EQ(e.sampled, expect_sampled) << "sequence " << e.sequence;
    if (e.sampled) {
      ++sampled;
      // Sampled entries carry the rendered span tree of their execution.
      EXPECT_NE(e.trace.find("serve.query"), std::string::npos);
      EXPECT_NE(e.trace.find("serve.execute"), std::string::npos);
      EXPECT_NE(e.trace.find("engine.search"), std::string::npos);
    } else {
      EXPECT_TRUE(e.trace.empty());
    }
  }
  EXPECT_EQ(sampled, 3u);  // sequences 0, 4, 8
  const std::string json = server.telemetry().RenderJson();
  EXPECT_NE(json.find("\"serve.trace.sampled\":{\"total\":3,"),
            std::string::npos)
      << json;
  server.Shutdown();
}

TEST_F(ServeTest, MetricsRenderAfterServing) {
  ServingEngine server(engine_, xml_engine_, {});
  QueryRequest req;
  req.query = "keyword search";
  ASSERT_TRUE(server.Query(req).status.ok());
  const std::string json = server.telemetry().RenderJson();
  EXPECT_NE(json.find("\"serve.submitted\":{\"total\":1,"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"serve.latency_micros\":{\"count\":1,"),
            std::string::npos)
      << json;
}

// ---------------------------------------------------------------------------
// Sharded relational backend behind the server.

class ShardedServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    relational::DblpOptions opts;
    opts.num_authors = 40;
    opts.num_papers = 80;
    opts.num_conferences = 6;
    corpus_ = new shard::ShardedCorpus(shard::MakeShardedDblp(opts, 4));
    sharded_ = new shard::ShardedEngine(*corpus_);
  }
  static void TearDownTestSuite() {
    delete sharded_;
    delete corpus_;
    sharded_ = nullptr;
    corpus_ = nullptr;
  }
  static ServeOptions ShardedOptions() {
    ServeOptions so;
    so.num_workers = 1;
    so.num_shards = 4;
    return so;
  }
  static shard::ShardedCorpus* corpus_;
  static shard::ShardedEngine* sharded_;
};

shard::ShardedCorpus* ShardedServeTest::corpus_ = nullptr;
shard::ShardedEngine* ShardedServeTest::sharded_ = nullptr;

TEST_F(ShardedServeTest, ZeroKIsOkAndEmpty) {
  ServingEngine server(nullptr, nullptr, sharded_, ShardedOptions());
  QueryRequest req;
  req.query = "keyword search";
  req.k = 0;
  const QueryOutcome out = server.Query(req);
  ASSERT_TRUE(out.status.ok());
  ASSERT_NE(out.relational, nullptr);
  EXPECT_TRUE(out.relational->results.empty());
}

TEST_F(ShardedServeTest, RoutesRelationalQueriesToTheShardedEngine) {
  ServingEngine server(nullptr, nullptr, sharded_, ShardedOptions());
  QueryRequest req;
  req.query = "keyword search";
  const QueryOutcome out = server.Query(req);
  ASSERT_TRUE(out.status.ok());
  ASSERT_NE(out.relational, nullptr);
  // The served response is the sharded engine's answer, repackaged.
  shard::ShardedSearchOptions sso;
  sso.k = req.k;
  const shard::ShardedResponse want = sharded_->Search(req.query, sso);
  EXPECT_EQ(out.relational->cleaned_query, want.keywords);
  ASSERT_EQ(out.relational->results.size(), want.results.size());
  for (size_t i = 0; i < want.results.size(); ++i) {
    EXPECT_EQ(out.relational->results[i].score, want.results[i].score);
    EXPECT_EQ(out.relational->results[i].tuples, want.results[i].tuples);
    EXPECT_EQ(out.relational->results[i].description, want.descriptions[i]);
  }
}

TEST_F(ShardedServeTest, ShardedAnswersAreCachedUnderADistinctKeySpace) {
  ServingEngine server(nullptr, nullptr, sharded_, ShardedOptions());
  QueryRequest req;
  req.query = "keyword search";
  const std::string key = server.CacheKey(req);
  // Epoch tag first (no writes yet -> epoch 0), then the sharded tag.
  EXPECT_EQ(key.rfind("e0|shard|", 0), 0u) << key;
  EXPECT_FALSE(server.Query(req).cache_hit);
  EXPECT_TRUE(server.Query(req).cache_hit);
}

TEST_F(ShardedServeTest, CacheKeyBytesAreTagTokensAndK) {
  ServingEngine server(nullptr, nullptr, sharded_, ShardedOptions());
  ExpectCacheKeyBytes(server, Pipeline::kRelational, "e0|shard|");
}

TEST_F(ShardedServeTest, TinyBudgetIsPartialAndNotCached) {
  ServingEngine server(nullptr, nullptr, sharded_, ShardedOptions());
  QueryRequest req;
  req.query = "keyword search";
  req.budget_micros = 1;
  const QueryOutcome out = server.Query(req);
  EXPECT_EQ(out.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(server.Query(req).cache_hit);
}

TEST_F(ShardedServeTest, ZeroNumShardsIgnoresTheAttachedEngine) {
  relational::DblpOptions opts;
  opts.num_authors = 40;
  opts.num_papers = 80;
  opts.num_conferences = 6;
  const relational::DblpDatabase dblp = MakeDblpDatabase(opts);
  const engine::KeywordSearchEngine unsharded(*dblp.db);
  ServeOptions so;
  so.num_workers = 1;
  so.num_shards = 0;
  ServingEngine server(&unsharded, nullptr, sharded_, so);
  QueryRequest req;
  req.query = "keyword search";
  EXPECT_EQ(server.CacheKey(req).rfind("e0|rel|", 0), 0u);
  const QueryOutcome out = server.Query(req);
  ASSERT_TRUE(out.status.ok());
  // Served by the unsharded engine: its cleaned query, its results.
  EXPECT_EQ(out.relational->cleaned_query,
            unsharded.Search(req.query).cleaned_query);
}

// ---------------------------------------------------------------------------
// Statusz: the health snapshot tracks writes and epochs.

TEST(ServingStatuszEpochsTest, ReportsWriteEpochsAndNotifications) {
  relational::DblpOptions opts;
  opts.num_authors = 30;
  opts.num_papers = 60;
  opts.num_conferences = 6;
  relational::DblpDatabase dblp = MakeDblpDatabase(opts);
  const engine::KeywordSearchEngine engine(*dblp.db);
  ServeOptions so;
  so.num_workers = 1;
  ServingEngine server(&engine, /*xml=*/nullptr, so);

  std::string doc = server.Statusz();
  EXPECT_NE(doc.find("\"epochs\":{\"published\":0,\"last_write\":0,"
                     "\"lag\":0,\"writes_notified\":0"),
            std::string::npos)
      << doc;

  // One write round-trip: apply the batch, hand the report to the server.
  relational::DblpInsertOptions batch_opts;
  batch_opts.seed = 5;
  batch_opts.num_papers = 3;
  const std::vector<relational::RowInsert> batch =
      MakeDblpInsertBatch(dblp, batch_opts);
  const Result<relational::WriteReport> applied =
      dblp.db->ApplyInserts(batch);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  server.NotifyWrite(applied.value());

  doc = server.Statusz();
  // Published and last-write epochs agree again (lag closes once
  // NotifyWrite finishes), and the notification was counted.
  EXPECT_NE(doc.find("\"epochs\":{\"published\":1,\"last_write\":1,"
                     "\"lag\":0,\"writes_notified\":1"),
            std::string::npos)
      << doc;
  // New cache keys carry the published epoch.
  QueryRequest req;
  req.query = "keyword search";
  EXPECT_EQ(server.CacheKey(req).rfind("e1|rel|", 0), 0u);
}

}  // namespace
}  // namespace kws::serve
