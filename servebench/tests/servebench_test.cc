// Tests of the serving benchmark itself: the percentile helper, seeded
// input generation, the answer comparators, and the write/read exclusion
// of the closed loop.

#include <atomic>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "answers.h"
#include "stats.h"
#include "workload.h"

namespace servebench {
namespace {

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // descending on purpose
  return v;
}

TEST(PercentileTest, NearestRankOnKnownArrays) {
  EXPECT_EQ(Percentile({}, 0.5), 0);
  EXPECT_EQ(Percentile({7}, 0.95), 7);
  EXPECT_EQ(Median(Range(10)), 5);
  EXPECT_EQ(Percentile(Range(10), 0.95), 10);
  EXPECT_EQ(Percentile(Range(10), 1.0), 10);
  EXPECT_EQ(Percentile(Range(100), 0.95), 95);
  EXPECT_EQ(Percentile(Range(200), 0.95), 190);
  EXPECT_EQ(Percentile(Range(201), 0.95), 191);
  EXPECT_EQ(Median(Range(9)), 5);
  EXPECT_EQ(Percentile({3, 1, 2}, 0.5), 2);
}

TEST(PercentileTest, TenBeyondRule) {
  EXPECT_EQ(SamplesBeyond(200, 0.95), 10u);
  EXPECT_EQ(SamplesBeyond(199, 0.95), 9u);
  EXPECT_EQ(SamplesBeyond(0, 0.95), 0u);
  EXPECT_EQ(HighestSupportedPercentile(200), 0.95);
  EXPECT_EQ(HighestSupportedPercentile(999), 0.95);
  EXPECT_EQ(HighestSupportedPercentile(199), 0.9);
  EXPECT_EQ(HighestSupportedPercentile(1000), 0.99);
  EXPECT_EQ(HighestSupportedPercentile(10000), 0.999);
  EXPECT_EQ(HighestSupportedPercentile(5), 0);
  // Every selected percentile keeps at least ten samples beyond it.
  for (size_t n = 1; n <= 3000; ++n) {
    const double q = HighestSupportedPercentile(n);
    if (q > 0) {
      EXPECT_GE(SamplesBeyond(n, q), 10u) << n;
    }
  }
}

TEST(SequenceTest, SameSeedSameRequestsAndWrites) {
  const std::string a = DescribeSequence(Workload::kRelHotWrites, 7, 2000, 3);
  const std::string b = DescribeSequence(Workload::kRelHotWrites, 7, 2000, 3);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("W3 "), std::string::npos);
  EXPECT_NE(a, DescribeSequence(Workload::kRelHotWrites, 8, 2000, 3));
  // The write batches alone also depend on the seed.
  const std::string wa = DescribeSequence(Workload::kRelHotWrites, 7, 0, 2);
  const std::string wb = DescribeSequence(Workload::kRelHotWrites, 8, 0, 2);
  EXPECT_FALSE(wa.empty());
  EXPECT_NE(wa, wb);
}

TEST(SequenceTest, FiniteStreamsAreSeededAndDistinct) {
  for (Workload w : {Workload::kRelCold, Workload::kRelSharded,
                     Workload::kXml}) {
    EXPECT_EQ(DescribeSequence(w, 3, 500, 0), DescribeSequence(w, 3, 500, 0))
        << WorkloadName(w);
    EXPECT_NE(DescribeSequence(w, 3, 500, 0), DescribeSequence(w, 4, 500, 0))
        << WorkloadName(w);
  }
  const Inputs cold(Workload::kRelCold, 5);
  std::set<uint32_t> seen;
  for (size_t i = 0; i < cold.length(); ++i) {
    EXPECT_TRUE(seen.insert(cold.QueryAt(i)).second) << "repeat at " << i;
  }
  EXPECT_EQ(seen.size(), cold.queries().size());
}

TEST(SequenceTest, XmlStreamKeepsTheRootAnchoredShareEverywhere) {
  kws::xml::BibOptions bo;
  bo.num_venues = Shape::kXmlVenues;
  bo.papers_per_venue = Shape::kXmlPapersPerVenue;
  const kws::xml::BibDocument bib = kws::xml::MakeBibDocument(bo);
  const Inputs xml(Workload::kXml, 9);
  constexpr size_t kBlock = 400;
  std::set<uint32_t> seen;
  for (size_t begin = 0; begin < 10 * kBlock; begin += kBlock) {
    size_t root_anchored = 0;
    for (size_t i = begin; i < begin + kBlock; ++i) {
      EXPECT_TRUE(seen.insert(xml.QueryAt(i)).second) << "repeat at " << i;
      if (XmlCostClass(bib.tree, xml.TextAt(i)) == 2) ++root_anchored;
    }
    EXPECT_NEAR(static_cast<double>(root_anchored),
                static_cast<double>(kBlock) * Shape::kXmlRootShare, 2)
        << "requests " << begin << ".." << begin + kBlock;
  }
}

kws::engine::EngineResponse SampleResponse() {
  kws::engine::EngineResponse r;
  r.cleaned_query = {"data", "mining"};
  for (int i = 0; i < 3; ++i) {
    kws::engine::EngineResult e;
    e.score = 1.5 - 0.25 * i;
    e.tuples = {{2, static_cast<kws::relational::RowId>(10 + i)},
                {3, static_cast<kws::relational::RowId>(20 + i)}};
    e.description = "row " + std::to_string(i);
    r.results.push_back(e);
  }
  r.suggestions = {"query", "graph"};
  return r;
}

std::string DiffEngineResponsesOrXml(const kws::engine::EngineResponse& a,
                                     const kws::engine::EngineResponse& b) {
  return DiffEngineResponses(a, b);
}
std::string DiffEngineResponsesOrXml(const kws::engine::XmlResponse& a,
                                     const kws::engine::XmlResponse& b) {
  return DiffXmlResponses(a, b);
}

/// Both the comparator and the fingerprint the timed loop keeps must tell
/// `got` from `want`.
template <typename Response>
void ExpectRejected(const Response& got, const Response& want) {
  EXPECT_NE(DiffEngineResponsesOrXml(got, want), "");
  EXPECT_NE(Fingerprint(got), Fingerprint(want));
}

TEST(AnswerTest, RelationalComparatorRejectsPerturbations) {
  const kws::engine::EngineResponse want = SampleResponse();
  EXPECT_EQ(DiffEngineResponses(want, want), "");
  EXPECT_EQ(Fingerprint(want), Fingerprint(SampleResponse()));

  kws::engine::EngineResponse score = want;
  score.results[1].score = std::nextafter(score.results[1].score, 0.0);
  ExpectRejected(score, want);

  kws::engine::EngineResponse order = want;
  std::swap(order.results[0].tuples[0], order.results[0].tuples[1]);
  ExpectRejected(order, want);

  kws::engine::EngineResponse ranks = want;
  std::swap(ranks.results[0], ranks.results[2]);
  ExpectRejected(ranks, want);

  kws::engine::EngineResponse suggestion = want;
  suggestion.suggestions[1] = "graphs";
  ExpectRejected(suggestion, want);

  kws::engine::EngineResponse cleaned = want;
  cleaned.cleaned_query[0] = "date";
  ExpectRejected(cleaned, want);
}

TEST(AnswerTest, SearchResultAndXmlComparatorsRejectPerturbations) {
  std::vector<kws::cn::SearchResult> want(2);
  want[0] = {0, {{1, 4}, {2, 9}}, 2.0};
  want[1] = {3, {{1, 5}}, 1.0};
  EXPECT_EQ(DiffSearchResults(want, want), "");
  std::vector<kws::cn::SearchResult> score = want;
  score[1].score = 1.0000001;
  EXPECT_NE(DiffSearchResults(score, want), "");
  std::vector<kws::cn::SearchResult> order = want;
  std::swap(order[0].tuples[0], order[0].tuples[1]);
  EXPECT_NE(DiffSearchResults(order, want), "");

  kws::engine::XmlResponse x;
  x.results.push_back({5, 4, 0.75, "title: data"});
  x.results.push_back({9, 8, 0.5, "title: mining"});
  x.clusters.push_back({"bib/conference", {5, 9}, 1.0});
  EXPECT_EQ(DiffXmlResponses(x, x), "");
  kws::engine::XmlResponse xs = x;
  xs.results[0].score = 0.7500001;
  ExpectRejected(xs, x);
  kws::engine::XmlResponse xo = x;
  std::swap(xo.results[0], xo.results[1]);
  ExpectRejected(xo, x);
}

TEST(AnswerTest, RealResponsesMatchThemselvesOnly) {
  const Inputs inputs(Workload::kRelCold, 11);
  const std::unique_ptr<Deployment> d = BuildDeployment(inputs, 0);
  size_t compared = 0;
  for (size_t i = 0; i < inputs.length() && compared < 3; ++i) {
    kws::engine::EngineResponse r = d->engine->Search(inputs.TextAt(i));
    if (r.results.size() < 2 || r.suggestions.empty()) continue;
    ++compared;
    EXPECT_EQ(DiffEngineResponses(r, d->engine->Search(inputs.TextAt(i))),
              "");
    kws::engine::EngineResponse bumped = r;
    bumped.results.back().score *= 1.0 + 1e-12;
    ExpectRejected(bumped, r);
    kws::engine::EngineResponse reordered = r;
    std::swap(reordered.results.front(), reordered.results.back());
    if (reordered.results.front().tuples != r.results.front().tuples) {
      ExpectRejected(reordered, r);
    }
    kws::engine::EngineResponse suggested = r;
    suggested.suggestions.front() += "x";
    ExpectRejected(suggested, r);
  }
  EXPECT_EQ(compared, 3u);
}

TEST(WriteGateTest, WritersNeverOverlapReaders) {
  WriteGate gate;
  std::atomic<int> readers{0};
  std::atomic<bool> writing{false};
  std::atomic<int> violations{0};
  std::atomic<int> writes{0};
  std::atomic<bool> stop{false};
  {
    std::vector<std::jthread> threads;
    for (int r = 0; r < 3; ++r) {
      threads.emplace_back([&] {
        while (!stop.load()) {
          gate.LockShared();
          readers.fetch_add(1);
          if (writing.load()) violations.fetch_add(1);
          std::this_thread::yield();
          readers.fetch_sub(1);
          gate.UnlockShared();
        }
      });
    }
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        gate.Lock();
        writing.store(true);
        if (readers.load() != 0) violations.fetch_add(1);
        std::this_thread::yield();
        writing.store(false);
        gate.Unlock();
        writes.fetch_add(1);
      }
      stop.store(true);
    });
  }
  EXPECT_EQ(writes.load(), 200);  // the writer was never starved
  EXPECT_EQ(violations.load(), 0);
}

TEST(WriteGateTest, ClosedLoopWritesNeverOverlapInFlightReads) {
  const Inputs inputs(Workload::kRelHotWrites, 2);
  const std::unique_ptr<Deployment> d =
      BuildDeployment(inputs, Shape::kWorkers);
  LoopOptions o;
  o.begin = inputs.warmup_length();
  o.end = o.begin + 200;
  o.reads_per_write = 40;
  const LoopResult run = RunLoop(*d, inputs, o);
  ASSERT_EQ(run.reads.size(), 200u);
  ASSERT_EQ(run.writes.size(), 5u);
  EXPECT_EQ(run.overlaps, 0u);
  for (size_t b = 0; b < run.writes.size(); ++b) {
    EXPECT_TRUE(run.writes[b].ok);
    EXPECT_EQ(run.writes[b].batch, b + 1);
    EXPECT_EQ(run.writes[b].epoch, b + 1);
  }
  // Every read was served at exactly one published epoch.
  for (const ReadSample& s : run.reads) {
    EXPECT_TRUE(s.ok);
    EXPECT_LE(s.epoch, run.writes.size());
  }
}

}  // namespace
}  // namespace servebench
