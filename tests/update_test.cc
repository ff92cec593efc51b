// Oracle tests for live inserts: incremental index maintenance,
// incremental tuple sets, continual top-k queries, and the serve layer's
// write-invalidation protocol. The central contract everywhere is
// bit-identity with a from-scratch rebuild over the post-insert database.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/deadline.h"
#include "core/cn/continual.h"
#include "core/cn/stream.h"
#include "core/cn/tuple_set_cache.h"
#include "core/cn/tuple_sets.h"
#include "core/engine/engine.h"
#include "relational/database.h"
#include "relational/dblp.h"
#include "serve/cache.h"
#include "serve/server.h"

namespace kws {
namespace {

using relational::DblpDatabase;
using relational::DblpInsertOptions;
using relational::DblpOptions;
using relational::MakeDblpDatabase;
using relational::MakeDblpInsertBatch;
using relational::RowInsert;
using relational::WriteReport;

DblpOptions SmallDblp(uint64_t seed) {
  DblpOptions opts;
  opts.seed = seed;
  opts.num_conferences = 6;
  opts.num_authors = 30;
  opts.num_papers = 60;
  opts.vocab_size = 80;
  return opts;
}

DblpInsertOptions BatchOptions(uint64_t seed, size_t papers) {
  DblpInsertOptions opts;
  opts.seed = seed;
  opts.num_papers = papers;
  opts.num_authors = papers >= 4 ? 2 : 1;
  return opts;
}

// The query keywords: frequent vocabulary terms, so tuple sets and CNs
// are non-trivial on the small corpus.
std::vector<std::string> QueryKeywords(const DblpDatabase& dblp) {
  return {dblp.vocabulary[0], dblp.vocabulary[1]};
}

// ---------------------------------------------------------------------------
// Database::ApplyInserts semantics.

TEST(ApplyInsertsTest, AppendsRowsReportsTermsAndBumpsEpoch) {
  DblpDatabase dblp = MakeDblpDatabase(SmallDblp(42));
  relational::Database& db = *dblp.db;
  EXPECT_EQ(db.epoch(), 0u);
  const size_t papers_before = db.table(dblp.paper).num_rows();

  std::vector<RowInsert> batch = MakeDblpInsertBatch(dblp, BatchOptions(7, 4));
  ASSERT_FALSE(batch.empty());
  const Result<WriteReport> applied = db.ApplyInserts(batch);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  const WriteReport& report = applied.value();

  EXPECT_EQ(report.epoch, 1u);
  EXPECT_EQ(db.epoch(), 1u);
  // Every batch row landed, in order, with monotone row ids.
  ASSERT_EQ(report.inserted.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(report.inserted[i].table, batch[i].table);
  }
  EXPECT_EQ(db.table(dblp.paper).num_rows(), papers_before + 4);
  // Touched terms: sorted, deduplicated, and non-empty (titles carry
  // text); they must all be findable in the updated paper index.
  ASSERT_FALSE(report.touched_terms.empty());
  EXPECT_TRUE(std::is_sorted(report.touched_terms.begin(),
                             report.touched_terms.end()));
  EXPECT_EQ(std::adjacent_find(report.touched_terms.begin(),
                               report.touched_terms.end()),
            report.touched_terms.end());
}

TEST(ApplyInsertsTest, RejectedBatchLeavesDatabaseUntouched) {
  DblpDatabase dblp = MakeDblpDatabase(SmallDblp(42));
  relational::Database& db = *dblp.db;
  const size_t rows_before = db.TotalRows();

  // Primary key 0 already exists in author.
  RowInsert dup;
  dup.table = dblp.author;
  dup.row = {relational::Value::Int(0), relational::Value::Text("someone")};
  const Result<WriteReport> applied = db.ApplyInserts({dup});
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(db.TotalRows(), rows_before);
  EXPECT_EQ(db.epoch(), 0u);
}

TEST(ApplyInsertsTest, IntraBatchDuplicatePkRejectsWholeBatch) {
  DblpDatabase dblp = MakeDblpDatabase(SmallDblp(42));
  relational::Database& db = *dblp.db;
  const size_t rows_before = db.TotalRows();
  const int64_t fresh_pk =
      static_cast<int64_t>(db.table(dblp.author).num_rows());

  RowInsert a;
  a.table = dblp.author;
  a.row = {relational::Value::Int(fresh_pk), relational::Value::Text("one")};
  RowInsert b;
  b.table = dblp.author;
  b.row = {relational::Value::Int(fresh_pk), relational::Value::Text("two")};
  const Result<WriteReport> applied = db.ApplyInserts({a, b});
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(db.TotalRows(), rows_before);
  EXPECT_EQ(db.epoch(), 0u);
}

TEST(ApplyInsertsTest, EmptyBatchDoesNotBumpEpoch) {
  DblpDatabase dblp = MakeDblpDatabase(SmallDblp(42));
  const Result<WriteReport> applied = dblp.db->ApplyInserts({});
  ASSERT_TRUE(applied.ok());
  EXPECT_TRUE(applied.value().inserted.empty());
  EXPECT_EQ(applied.value().epoch, 0u);
  EXPECT_EQ(dblp.db->epoch(), 0u);
}

// ---------------------------------------------------------------------------
// Incremental index maintenance vs. a from-scratch rebuild.

void ExpectSameIndexes(const relational::Database& incremental,
                       const relational::Database& rebuilt) {
  ASSERT_EQ(incremental.num_tables(), rebuilt.num_tables());
  for (relational::TableId t = 0; t < incremental.num_tables(); ++t) {
    const text::InvertedIndex& a = incremental.TextIndex(t);
    const text::InvertedIndex& b = rebuilt.TextIndex(t);
    EXPECT_EQ(a.num_docs(), b.num_docs()) << "table " << t;
    std::vector<std::string> va = a.Vocabulary();
    std::vector<std::string> vb = b.Vocabulary();
    std::sort(va.begin(), va.end());
    std::sort(vb.begin(), vb.end());
    ASSERT_EQ(va, vb) << "table " << t;
    for (const std::string& term : va) {
      const text::PostingList& pa = a.GetPostings(term);
      const text::PostingList& pb = b.GetPostings(term);
      ASSERT_EQ(pa.docs(), pb.docs()) << "table " << t << " term " << term;
      ASSERT_EQ(pa.tfs(), pb.tfs()) << "table " << t << " term " << term;
    }
    for (relational::RowId r = 0; r < incremental.table(t).num_rows(); ++r) {
      ASSERT_EQ(a.DocLength(r), b.DocLength(r))
          << "table " << t << " row " << r;
    }
  }
}

TEST(ApplyInsertsTest, IncrementalIndexMatchesFromScratchRebuild) {
  const DblpOptions base = SmallDblp(42);
  DblpDatabase live = MakeDblpDatabase(base);
  DblpDatabase reference = MakeDblpDatabase(base);

  for (size_t b = 0; b < 4; ++b) {
    const std::vector<RowInsert> batch =
        MakeDblpInsertBatch(live, BatchOptions(100 + b, 3 + b));
    ASSERT_TRUE(live.db->ApplyInserts(batch).ok());
    // Reference path: raw appends, then the bulk index rebuild.
    for (const RowInsert& ins : batch) {
      relational::Row row = ins.row;
      ASSERT_TRUE(
          reference.db->table(ins.table).Append(std::move(row)).ok());
    }
    reference.db->BuildTextIndexes();
    ExpectSameIndexes(*live.db, *reference.db);
  }
}

// ---------------------------------------------------------------------------
// TupleSets::ApplyInserts vs. fresh construction — the tentpole oracle.

void ExpectSameTupleSets(const relational::Database& db,
                         const cn::TupleSets& incremental,
                         const cn::TupleSets& fresh) {
  ASSERT_FALSE(incremental.truncated());
  ASSERT_FALSE(fresh.truncated());
  ASSERT_EQ(incremental.num_keywords(), fresh.num_keywords());
  EXPECT_EQ(incremental.table_masks(), fresh.table_masks());
  for (size_t k = 0; k < incremental.num_keywords(); ++k) {
    // Bit-identical, not just close: both sides must run the exact same
    // smoothed-IDF arithmetic over the exact same df / corpus size.
    ASSERT_EQ(incremental.Idf(k), fresh.Idf(k)) << "keyword " << k;
  }
  for (relational::TableId t = 0; t < db.num_tables(); ++t) {
    for (relational::RowId r = 0; r < db.table(t).num_rows(); ++r) {
      ASSERT_EQ(incremental.RowMask(t, r), fresh.RowMask(t, r))
          << "table " << t << " row " << r;
      ASSERT_EQ(incremental.RowScore(t, r), fresh.RowScore(t, r))
          << "table " << t << " row " << r;
      for (size_t k = 0; k < incremental.num_keywords(); ++k) {
        ASSERT_EQ(incremental.RowTf(t, r, k), fresh.RowTf(t, r, k))
            << "table " << t << " row " << r << " keyword " << k;
      }
    }
    for (cn::KeywordMask m = 1; m <= fresh.full_mask(); ++m) {
      const std::vector<cn::ScoredRow>& ia = incremental.Get(t, m);
      const std::vector<cn::ScoredRow>& fa = fresh.Get(t, m);
      ASSERT_EQ(ia.size(), fa.size()) << "table " << t << " mask " << m;
      for (size_t i = 0; i < ia.size(); ++i) {
        ASSERT_EQ(ia[i].row, fa[i].row);
        ASSERT_EQ(ia[i].score, fa[i].score);
      }
    }
  }
}

class TupleSetsUpdateOracle
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};

TEST_P(TupleSetsUpdateOracle, IncrementalMatchesFreshConstruction) {
  const uint64_t seed = std::get<0>(GetParam());
  const size_t batch_papers = std::get<1>(GetParam());
  DblpDatabase dblp = MakeDblpDatabase(SmallDblp(seed));
  relational::Database& db = *dblp.db;
  const std::vector<std::string> keywords = QueryKeywords(dblp);

  cn::TupleSets live(db, keywords);
  for (size_t b = 0; b < 3; ++b) {
    const std::vector<RowInsert> batch = MakeDblpInsertBatch(
        dblp, BatchOptions(seed * 100 + b, batch_papers));
    const Result<WriteReport> applied = db.ApplyInserts(batch);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    ASSERT_TRUE(live.ApplyInserts(db, applied.value().inserted).ok());
    const cn::TupleSets fresh(db, keywords);
    ExpectSameTupleSets(db, live, fresh);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndBatchSizes, TupleSetsUpdateOracle,
    ::testing::Combine(::testing::Values<uint64_t>(42, 43, 44, 45),
                       ::testing::Values<size_t>(1, 4, 12)));

// ---------------------------------------------------------------------------
// ContinualQuery vs. a freshly registered query — standing top-k oracle.

void ExpectSameResults(const std::vector<cn::SearchResult>& a,
                       const std::vector<cn::SearchResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].cn_index, b[i].cn_index) << "rank " << i;
    ASSERT_EQ(a[i].score, b[i].score) << "rank " << i;
    ASSERT_EQ(a[i].tuples, b[i].tuples) << "rank " << i;
  }
}

class ContinualQueryOracle
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};

TEST_P(ContinualQueryOracle, PropagatedTopKMatchesFreshRegistration) {
  const uint64_t seed = std::get<0>(GetParam());
  const size_t num_threads = std::get<1>(GetParam());
  DblpDatabase dblp = MakeDblpDatabase(SmallDblp(seed));
  relational::Database& db = *dblp.db;
  const std::vector<std::string> keywords = QueryKeywords(dblp);

  cn::ContinualOptions opts;
  opts.k = 10;
  opts.num_threads = num_threads;
  cn::ContinualQuery standing(db, keywords, opts);
  cn::ContinualStats stats;
  for (size_t b = 0; b < 3; ++b) {
    const std::vector<RowInsert> batch =
        MakeDblpInsertBatch(dblp, BatchOptions(seed * 10 + b, 5));
    const Result<WriteReport> applied = db.ApplyInserts(batch);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    ASSERT_TRUE(standing.OnInsertBatch(applied.value().inserted, {}, &stats)
                    .ok());
    ASSERT_FALSE(standing.stale());
    // The oracle: registering the same query fresh over the post-insert
    // database (full enumeration + evaluation, serial) must agree
    // bit-for-bit — full standing set and top-k alike.
    const cn::ContinualQuery fresh(db, keywords);
    ExpectSameResults(standing.results(), fresh.results());
    ExpectSameResults(standing.TopK(), fresh.TopK());
  }
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_GT(stats.inserts, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndThreads, ContinualQueryOracle,
    ::testing::Combine(::testing::Values<uint64_t>(42, 77, 123),
                       ::testing::Values<size_t>(1, 2, 4)));

TEST(ContinualQueryTest, MaskWideningBatchForcesWorkloadRebuild) {
  DblpDatabase dblp = MakeDblpDatabase(SmallDblp(42));
  relational::Database& db = *dblp.db;
  // "zzzunique" appears nowhere, so the author table's mask for it is 0
  // until the insert lands — the batch must widen the mask and trigger
  // CN re-enumeration.
  const std::vector<std::string> keywords = {dblp.vocabulary[0], "zzzunique"};
  cn::ContinualQuery standing(db, keywords);

  RowInsert ins;
  ins.table = dblp.author;
  ins.row = {relational::Value::Int(
                 static_cast<int64_t>(db.table(dblp.author).num_rows())),
             relational::Value::Text("zzzunique")};
  const Result<WriteReport> applied = db.ApplyInserts({ins});
  ASSERT_TRUE(applied.ok());
  cn::ContinualStats stats;
  ASSERT_TRUE(
      standing.OnInsertBatch(applied.value().inserted, {}, &stats).ok());
  EXPECT_EQ(stats.full_rebuilds, 1u);
  const cn::ContinualQuery fresh(db, keywords);
  ExpectSameResults(standing.results(), fresh.results());
}

// ---------------------------------------------------------------------------
// S1: deadlines through the incremental paths.

TEST(UpdateDeadlineTest, ExpiredDeadlineTruncatesTupleSetApply) {
  DblpDatabase dblp = MakeDblpDatabase(SmallDblp(42));
  relational::Database& db = *dblp.db;
  cn::TupleSets live(db, QueryKeywords(dblp));
  const Result<WriteReport> applied =
      db.ApplyInserts(MakeDblpInsertBatch(dblp, BatchOptions(7, 4)));
  ASSERT_TRUE(applied.ok());
  const Status s = live.ApplyInserts(db, applied.value().inserted,
                                     Deadline::AfterMicros(0));
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(live.truncated());
  // A truncated object refuses further incremental work.
  EXPECT_EQ(live.ApplyInserts(db, applied.value().inserted).code(),
            StatusCode::kFailedPrecondition);
}

TEST(UpdateDeadlineTest, StreamProbeHonorsDeadlineWithPartialEmission) {
  DblpDatabase dblp = MakeDblpDatabase(SmallDblp(42));
  relational::Database& db = *dblp.db;
  const std::vector<std::string> keywords = QueryKeywords(dblp);
  cn::TupleSets ts(db, keywords);
  cn::CnEnumOptions eo;
  std::vector<cn::CandidateNetwork> cns = cn::EnumerateCandidateNetworks(
      db, ts.table_masks(), ts.full_mask(), eo);
  ASSERT_FALSE(cns.empty());
  cn::StreamEvaluator eval(db, std::move(cns), std::move(ts));
  eval.MarkAllArrived();

  // Find a tuple whose unconstrained probe emits something, then probe it
  // again with an expired deadline: the status must report the cut and
  // the tuple must stay marked arrived.
  for (relational::RowId r = 0; r < db.table(dblp.paper).num_rows(); ++r) {
    const relational::TupleId tuple{dblp.paper, r};
    std::vector<cn::SearchResult> full;
    ASSERT_TRUE(eval.Probe(tuple, &full).ok());
    if (full.empty()) continue;
    std::vector<cn::SearchResult> cut;
    const Status s = eval.Probe(tuple, &cut, nullptr,
                                Deadline::AfterMicros(0));
    EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
    EXPECT_LE(cut.size(), full.size());
    return;
  }
  FAIL() << "no paper tuple completed any joined tree";
}

TEST(UpdateDeadlineTest, ContinualQueryTurnsStaleAndRebuildRecovers) {
  DblpDatabase dblp = MakeDblpDatabase(SmallDblp(42));
  relational::Database& db = *dblp.db;
  const std::vector<std::string> keywords = QueryKeywords(dblp);
  cn::ContinualQuery standing(db, keywords);

  const Result<WriteReport> applied =
      db.ApplyInserts(MakeDblpInsertBatch(dblp, BatchOptions(7, 6)));
  ASSERT_TRUE(applied.ok());
  const Status s = standing.OnInsertBatch(applied.value().inserted,
                                          Deadline::AfterMicros(0));
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(standing.stale());
  // Stale queries refuse propagation until rebuilt.
  EXPECT_EQ(standing.OnInsertBatch(applied.value().inserted).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(standing.Rebuild().ok());
  EXPECT_FALSE(standing.stale());
  const cn::ContinualQuery fresh(db, keywords);
  ExpectSameResults(standing.results(), fresh.results());
}

// ---------------------------------------------------------------------------
// S2: the result cache enforces its global budget exactly.

TEST(CacheBudgetTest, ResidentEntriesNeverExceedCapacity) {
  // (capacity, shards) combos where ceil-division used to overshoot —
  // 9 over 8 shards admitted 16 resident entries.
  const std::vector<std::pair<size_t, size_t>> combos = {
      {9, 8}, {7, 3}, {1, 8}, {5, 5}, {3, 16}, {16, 4}};
  for (const auto& [capacity, shards] : combos) {
    serve::ShardedResultCache cache(capacity, shards);
    EXPECT_EQ(cache.capacity(), capacity);
    for (int i = 0; i < 200; ++i) {
      serve::CachedResult entry;
      entry.relational = std::make_shared<engine::EngineResponse>();
      cache.Put("key-" + std::to_string(i), std::move(entry));
      ASSERT_LE(cache.size(), capacity)
          << "capacity " << capacity << " shards " << shards;
    }
    // With far more keys than slots every shard slice fills up, so the
    // cache holds exactly its configured budget.
    EXPECT_EQ(cache.size(), capacity)
        << "capacity " << capacity << " shards " << shards;
  }
}

// ---------------------------------------------------------------------------
// S3 + tentpole serve-layer invalidation.

TEST(ServeWriteTest, RelationalWithoutEngineFailsAndCachesNothing) {
  serve::ServeOptions so;
  so.num_workers = 0;
  serve::ServingEngine server(nullptr, nullptr, so);

  serve::QueryRequest req;
  req.query = "keyword search";
  EXPECT_EQ(server.CacheKey(req).rfind("e0|rel|", 0), 0u)
      << server.CacheKey(req);
  for (int i = 0; i < 2; ++i) {
    const serve::QueryOutcome out = server.Query(req);
    EXPECT_EQ(out.status.code(), StatusCode::kFailedPrecondition);
    EXPECT_FALSE(out.cache_hit);
    EXPECT_EQ(out.relational, nullptr);
  }
  const serve::CacheStats stats = server.cache_stats();
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST(ServeWriteTest, TupleSetCacheDropsExactlyTouchedTerms) {
  DblpDatabase dblp = MakeDblpDatabase(SmallDblp(42));
  cn::TupleSetCache cache(*dblp.db, 16);
  const std::string a = dblp.vocabulary[0];
  const std::string b = dblp.vocabulary[1];
  ASSERT_NE(cache.Get(a), nullptr);
  ASSERT_NE(cache.Get(b), nullptr);
  ASSERT_EQ(cache.size(), 2u);

  EXPECT_EQ(cache.Invalidate({a, "not-resident"}), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  // The untouched term is still a hit; the dropped one rebuilds.
  const uint64_t hits_before = cache.stats().hits;
  ASSERT_NE(cache.Get(b), nullptr);
  EXPECT_EQ(cache.stats().hits, hits_before + 1);
  const uint64_t misses_before = cache.stats().misses;
  ASSERT_NE(cache.Get(a), nullptr);
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
}

TEST(ServeWriteTest, NotifyWriteBumpsEpochAndDefeatsStaleHits) {
  DblpDatabase dblp = MakeDblpDatabase(SmallDblp(42));
  relational::Database& db = *dblp.db;
  const engine::KeywordSearchEngine engine(db);
  serve::ServeOptions so;
  so.num_workers = 0;  // synchronous Query path only
  serve::ServingEngine server(&engine, nullptr, so);

  serve::QueryRequest req;
  req.query = dblp.vocabulary[0] + " " + dblp.vocabulary[1];
  const serve::QueryOutcome cold = server.Query(req);
  ASSERT_TRUE(cold.status.ok());
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(server.Query(req).cache_hit);
  const std::string xml_key_before =
      server.CacheKey({/*query=*/req.query, serve::Pipeline::kXml});

  // The write: applied to the database first, then announced.
  const Result<WriteReport> applied =
      db.ApplyInserts(MakeDblpInsertBatch(dblp, BatchOptions(7, 5)));
  ASSERT_TRUE(applied.ok());
  server.NotifyWrite(applied.value());
  EXPECT_EQ(server.data_epoch(), 1u);

  // The pre-write entry is unreachable: the same request misses and is
  // answered fresh from the post-write database.
  const serve::QueryOutcome after = server.Query(req);
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.cache_hit);
  const engine::EngineResponse want = engine.Search(req.query);
  ASSERT_EQ(after.relational->results.size(), want.results.size());
  for (size_t i = 0; i < want.results.size(); ++i) {
    EXPECT_EQ(after.relational->results[i].score, want.results[i].score);
    EXPECT_EQ(after.relational->results[i].tuples, want.results[i].tuples);
  }
  // XML answers cannot depend on relational writes: their key space is
  // not epoch-tagged, so XML hits survive the bump.
  EXPECT_EQ(server.CacheKey({/*query=*/req.query, serve::Pipeline::kXml}),
            xml_key_before);
  EXPECT_EQ(
      server.telemetry().GetWindowedCounter("serve.writes.notified")->total(),
      1u);
}

TEST(ServeWriteTest, NotifyWriteInvalidatesTouchedTupleCacheTerms) {
  DblpDatabase dblp = MakeDblpDatabase(SmallDblp(42));
  relational::Database& db = *dblp.db;
  const engine::KeywordSearchEngine engine(db);
  serve::ServeOptions so;
  so.num_workers = 0;
  serve::ServingEngine server(&engine, nullptr, so);
  ASSERT_NE(server.tuple_cache(), nullptr);

  serve::QueryRequest req;
  req.query = dblp.vocabulary[0] + " " + dblp.vocabulary[1];
  ASSERT_TRUE(server.Query(req).status.ok());
  const size_t resident_before = server.tuple_cache()->size();
  ASSERT_GE(resident_before, 2u);

  const Result<WriteReport> applied =
      db.ApplyInserts(MakeDblpInsertBatch(dblp, BatchOptions(7, 5)));
  ASSERT_TRUE(applied.ok());
  const WriteReport& report = applied.value();
  // The Zipf-skewed titles all but surely touch the head vocabulary
  // terms; require it so the test actually exercises the drop.
  ASSERT_TRUE(std::binary_search(report.touched_terms.begin(),
                                 report.touched_terms.end(),
                                 dblp.vocabulary[0]));
  server.NotifyWrite(report);
  EXPECT_LT(server.tuple_cache()->size(), resident_before);
  EXPECT_GT(server.tuple_cache()->stats().invalidations, 0u);
  // Statusz reads the invalidation count straight from the cache stats.
  EXPECT_NE(server.Statusz().find(
                "\"tuple_entries_invalidated\":" +
                std::to_string(server.tuple_cache()->stats().invalidations) +
                "}"),
            std::string::npos);
}

TEST(ServeWriteTest, StandingQueryStaysCurrentAcrossWrites) {
  DblpDatabase dblp = MakeDblpDatabase(SmallDblp(42));
  relational::Database& db = *dblp.db;
  const engine::KeywordSearchEngine engine(db);
  serve::ServeOptions so;
  so.num_workers = 0;
  serve::ServingEngine server(&engine, nullptr, so);

  const std::string query = dblp.vocabulary[0] + " " + dblp.vocabulary[1];
  const Result<uint64_t> id = server.RegisterQuery(query, /*k=*/10);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_FALSE(server.StandingResults(99).ok());

  for (size_t b = 0; b < 2; ++b) {
    const Result<WriteReport> applied =
        db.ApplyInserts(MakeDblpInsertBatch(dblp, BatchOptions(50 + b, 5)));
    ASSERT_TRUE(applied.ok());
    server.NotifyWrite(applied.value());
    const Result<std::vector<cn::SearchResult>> got =
        server.StandingResults(id.value());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const cn::ContinualQuery fresh(db, engine.Normalize(query));
    ExpectSameResults(got.value(), fresh.TopK());
  }
}

TEST(ServeWriteTest, StandingQueryWithoutRelationalEngineFails) {
  serve::ServeOptions so;
  so.num_workers = 0;
  serve::ServingEngine server(nullptr, nullptr, so);
  const Result<uint64_t> id = server.RegisterQuery("anything");
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Concurrency: NotifyWrite racing reads (TSan-gated via ci.sh). The write
// itself is applied before the server takes traffic — the protocol
// requires quiescing searches around ApplyInserts — so this exercises the
// announcement (tuple-cache drop + standing-query refresh + epoch
// publish) against a live read load, which IS allowed to overlap.
TEST(ServeWriteTest, NotifyWriteIsSafeAgainstConcurrentQueries) {
  DblpDatabase dblp = MakeDblpDatabase(SmallDblp(42));
  relational::Database& db = *dblp.db;

  std::vector<WriteReport> reports;
  for (size_t b = 0; b < 3; ++b) {
    const Result<WriteReport> applied =
        db.ApplyInserts(MakeDblpInsertBatch(dblp, BatchOptions(30 + b, 4)));
    ASSERT_TRUE(applied.ok());
    reports.push_back(applied.value());
  }

  const engine::KeywordSearchEngine engine(db);
  serve::ServeOptions so;
  so.num_workers = 4;
  serve::ServingEngine server(&engine, nullptr, so);
  const std::string query = dblp.vocabulary[0] + " " + dblp.vocabulary[1];
  ASSERT_TRUE(server.RegisterQuery(query).ok());

  std::vector<std::future<serve::QueryOutcome>> futures;
  for (int i = 0; i < 24; ++i) {
    serve::QueryRequest req;
    req.query = query;
    req.k = 10;
    std::future<serve::QueryOutcome> f;
    if (server.Submit(std::move(req), &f).ok()) {
      futures.push_back(std::move(f));
      if (futures.size() % 8 == 4) server.NotifyWrite(reports[i / 8]);
    }
  }
  for (std::future<serve::QueryOutcome>& f : futures) {
    EXPECT_TRUE(f.get().status.ok());
  }
  EXPECT_EQ(server.data_epoch(), reports.back().epoch);
}

}  // namespace
}  // namespace kws
