#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/topk.h"

namespace kws {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("no such table");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "no such table");
  EXPECT_EQ(s.ToString(), "NotFound: no such table");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("x").code(), Status::NotFound("x").code(),
      Status::AlreadyExists("x").code(),   Status::OutOfRange("x").code(),
      Status::FailedPrecondition("x").code(),
      Status::Unimplemented("x").code(),   Status::Internal("x").code(),
      Status::DeadlineExceeded("x").code(),
      Status::ResourceExhausted("x").code()};
  EXPECT_EQ(codes.size(), 9u);
}

TEST(StatusTest, ServingCodesRenderByName) {
  EXPECT_EQ(Status::DeadlineExceeded("late").ToString(),
            "DeadlineExceeded: late");
  EXPECT_EQ(Status::ResourceExhausted("full").ToString(),
            "ResourceExhausted: full");
}

Status FailsThenPropagates() {
  KWS_RETURN_IF_ERROR(Status::Internal("inner"));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  Status s = FailsThenPropagates();
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
  EXPECT_EQ(r.value_or(-1), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("bad"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.Next() == b.Next());
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Uniform(10), 10u);
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(5);
  EXPECT_FALSE(rng.Chance(0.0));
  EXPECT_TRUE(rng.Chance(1.0));
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(11);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(ZipfTest, RankZeroMostFrequent) {
  Rng rng(42);
  ZipfSampler zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[50]);
  // Zipf(1.0): rank 0 should get roughly 1/H(100) ~ 19% of the mass.
  EXPECT_GT(counts[0], 20000 / 10);
}

TEST(ZipfTest, ThetaZeroIsUniform) {
  Rng rng(42);
  ZipfSampler zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.Sample(rng)];
  for (int c : counts) {
    EXPECT_GT(c, 4000);
    EXPECT_LT(c, 6000);
  }
}

TEST(SplitSeedTest, DeterministicAndDecorrelated) {
  EXPECT_EQ(SplitSeed(42, 0), SplitSeed(42, 0));
  std::set<uint64_t> children;
  for (uint64_t stream = 0; stream < 64; ++stream) {
    children.insert(SplitSeed(42, stream));
  }
  EXPECT_EQ(children.size(), 64u);       // distinct per stream
  EXPECT_EQ(children.count(42), 0u);     // distinct from the parent
  EXPECT_NE(SplitSeed(1, 0), SplitSeed(2, 0));
  // Child streams do not collide with each other as Rng sequences either.
  Rng a(SplitSeed(42, 0)), b(SplitSeed(42, 1));
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.Next() == b.Next());
  EXPECT_LT(equal, 5);
}

TEST(DeadlineTest, DefaultIsInfinite) {
  Deadline d;
  EXPECT_TRUE(d.is_infinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_TRUE(std::isinf(d.RemainingMicros()));
  EXPECT_FALSE(Deadline::Infinite().Expired());
}

TEST(DeadlineTest, ZeroBudgetExpiresImmediately) {
  Deadline d = Deadline::AfterMicros(0);
  EXPECT_FALSE(d.is_infinite());
  EXPECT_TRUE(d.Expired());
  EXPECT_LE(d.RemainingMicros(), 0.0);
}

TEST(DeadlineTest, GenerousBudgetNotYetExpired) {
  Deadline d = Deadline::AfterMillis(60000);
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingMicros(), 0.0);
}

TEST(DeadlineCheckerTest, FirstCallChecksClock) {
  // A zero budget must trip at the very first cancellation point even
  // with a large stride.
  DeadlineChecker checker(Deadline::AfterMicros(0), /*stride=*/1024);
  EXPECT_TRUE(checker.Expired());
  EXPECT_TRUE(checker.Expired());  // latched
}

TEST(DeadlineCheckerTest, InfiniteNeverExpires) {
  DeadlineChecker checker(Deadline::Infinite());
  for (int i = 0; i < 10000; ++i) EXPECT_FALSE(checker.Expired());
}

TEST(LatencyHistogramTest, CountsMeanAndSum) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.MeanMicros(), 0.0);
  EXPECT_DOUBLE_EQ(h.PercentileMicros(0.5), 0.0);
  h.Record(100);
  h.Record(200);
  h.Record(300);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_NEAR(h.sum_micros(), 600.0, 1e-6);
  EXPECT_NEAR(h.MeanMicros(), 200.0, 1e-6);
}

TEST(LatencyHistogramTest, PercentilesBracketTheData) {
  LatencyHistogram h;
  for (int i = 0; i < 99; ++i) h.Record(10);   // bucket [8, 16)
  h.Record(5000);                              // one tail outlier
  const double p50 = h.PercentileMicros(0.50);
  EXPECT_GE(p50, 8.0);
  EXPECT_LT(p50, 16.0);
  // The p99+ tail must land in the outlier's power-of-two bucket.
  EXPECT_GE(h.PercentileMicros(0.999), 4096.0);
  EXPECT_LE(h.PercentileMicros(0.999), 8192.0);
}

TEST(MetricsThreadingTest, ConcurrentRecordingLosesNothing) {
  // Exercised under TSan by ci.sh: a histogram must be safe to record
  // into from many threads, and no observation may be lost.
  LatencyHistogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;  // stresses raw contention on purpose -- kwslint: allow(raw-thread)
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<double>(t * 100 + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads * kPerThread));
  // Whole-microsecond values sum exactly: 5000 * (1 + 101 + 201 + 301).
  EXPECT_DOUBLE_EQ(h.sum_micros(), 3'020'000.0);
}

TEST(LatencyHistogramTest, PercentileEdgeCases) {
  // Empty: every percentile is 0.
  LatencyHistogram empty;
  EXPECT_DOUBLE_EQ(empty.PercentileMicros(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.PercentileMicros(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.PercentileMicros(1.0), 0.0);

  // Single occupied bucket: percentiles interpolate inside [lo, hi) and
  // never leave it.
  LatencyHistogram single;
  single.Record(100);  // bucket 6 = [64, 128)
  for (double p : {0.0, 0.25, 0.5, 0.75, 0.99, 1.0}) {
    const double v = single.PercentileMicros(p);
    EXPECT_GE(v, 64.0) << p;
    EXPECT_LE(v, 128.0) << p;
  }
  EXPECT_LT(single.PercentileMicros(0.25), single.PercentileMicros(0.75));

  // Bucket 0 covers [0, 2): sub-microsecond and zero observations land
  // there and interpolate from a lower edge of 0.
  LatencyHistogram tiny;
  tiny.Record(0);
  tiny.Record(0.5);
  const double p50 = tiny.PercentileMicros(0.5);
  EXPECT_GE(p50, 0.0);
  EXPECT_LT(p50, 2.0);
  EXPECT_DOUBLE_EQ(LatencyHistogram::BucketLowerMicros(0), 0.0);
  EXPECT_DOUBLE_EQ(LatencyHistogram::BucketUpperMicros(0), 2.0);
  EXPECT_EQ(LatencyHistogram::BucketIndexFor(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketIndexFor(1.99), 0u);
  EXPECT_EQ(LatencyHistogram::BucketIndexFor(2.0), 1u);

  // The static bucket-array form agrees with the instance method.
  std::array<uint64_t, LatencyHistogram::kNumBuckets> counts{};
  counts[6] = 1;
  EXPECT_DOUBLE_EQ(LatencyHistogram::PercentileOfBuckets(counts, 0.5),
                   single.PercentileMicros(0.5));
  std::array<uint64_t, LatencyHistogram::kNumBuckets> none{};
  EXPECT_DOUBLE_EQ(LatencyHistogram::PercentileOfBuckets(none, 0.99), 0.0);
}

TEST(StringsTest, ToLower) {
  EXPECT_EQ(ToLower("SIGMOD Paper"), "sigmod paper");
  EXPECT_EQ(ToLower(""), "");
}

TEST(StringsTest, SplitDropsEmptyPieces) {
  EXPECT_EQ(Split("a,,b,c", ","), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("  x  y ", " "), (std::vector<std::string>{"x", "y"}));
  EXPECT_TRUE(Split("", ",").empty());
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("database", "data"));
  EXPECT_FALSE(StartsWith("data", "database"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
}

struct IntOrder {
  bool operator()(int a, int b) const { return a > b; }
};

TEST(OrderedTopKTest, KeepsBestK) {
  OrderedTopK<int, IntOrder> top(3);
  for (int i = 0; i < 10; ++i) top.Offer(i);
  EXPECT_EQ(top.TakeSorted(), (std::vector<int>{9, 8, 7}));
  EXPECT_EQ(top.size(), 0u);  // TakeSorted empties the collector
}

TEST(OrderedTopKTest, RetainedSetIsOfferOrderIndependent) {
  const std::vector<int> forward = {5, 1, 9, 3, 9, 7, 1, 8};
  std::vector<int> backward(forward.rbegin(), forward.rend());
  OrderedTopK<int, IntOrder> a(4), b(4);
  for (int v : forward) a.Offer(v);
  for (int v : backward) b.Offer(v);
  EXPECT_EQ(a.TakeSorted(), b.TakeSorted());
}

TEST(OrderedTopKTest, WouldRejectIsExactlyOfferFailure) {
  OrderedTopK<int, IntOrder> top(3);
  EXPECT_FALSE(top.WouldReject(0));  // not yet full
  for (int v : {10, 20, 30, 25}) top.Offer(v);
  // Retained: {30, 25, 20}; worst is 20.
  EXPECT_EQ(top.Worst(), 20);
  EXPECT_TRUE(top.WouldReject(20));  // equal does not rank above
  EXPECT_TRUE(top.WouldReject(5));
  EXPECT_FALSE(top.WouldReject(21));
  EXPECT_FALSE(top.Offer(20));
  EXPECT_TRUE(top.Offer(21));
  EXPECT_EQ(top.Worst(), 21);
}

TEST(OrderedTopKTest, ZeroKRejectsEveryOfferAndProbe) {
  OrderedTopK<int, IntOrder> top(0);
  EXPECT_TRUE(top.Full());
  EXPECT_TRUE(top.WouldReject(5));
  EXPECT_FALSE(top.Offer(5));
  EXPECT_FALSE(top.Offer(-5));
  EXPECT_EQ(top.size(), 0u);
  EXPECT_TRUE(top.TakeSorted().empty());
}

/// (score, id) under score descending, then id ascending.
using ScoredId = std::pair<double, int>;
struct ScoredIdOrder {
  bool operator()(const ScoredId& a, const ScoredId& b) const {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  }
};

TEST(OrderedTopKTest, EqualScoresBreakByKeyNotOfferOrder) {
  OrderedTopK<ScoredId, ScoredIdOrder> top(2);
  for (int id : {3, 1, 2}) top.Offer({1.0, id});
  EXPECT_EQ(top.TakeSorted(),
            (std::vector<ScoredId>{{1.0, 1}, {1.0, 2}}));
}

// Property sweep: for any k and any input size, TakeSorted returns the
// first k items of the fully sorted input, whatever the offer order.
class OrderedTopKPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(OrderedTopKPropertyTest, MatchesSortReference) {
  const int k = std::get<0>(GetParam());
  const int n = std::get<1>(GetParam());
  Rng rng(static_cast<uint64_t>(k * 1000 + n));
  std::vector<ScoredId> items;
  for (int i = 0; i < n; ++i) {
    items.emplace_back(static_cast<double>(rng.Uniform(50)), i);
  }
  OrderedTopK<ScoredId, ScoredIdOrder> forward(static_cast<size_t>(k));
  OrderedTopK<ScoredId, ScoredIdOrder> backward(static_cast<size_t>(k));
  for (const ScoredId& item : items) forward.Offer(item);
  for (auto it = items.rbegin(); it != items.rend(); ++it) backward.Offer(*it);
  std::sort(items.begin(), items.end(), ScoredIdOrder());
  items.resize(std::min<size_t>(k, n));
  EXPECT_EQ(forward.TakeSorted(), items);
  EXPECT_EQ(backward.TakeSorted(), items);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OrderedTopKPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 5, 16),
                       ::testing::Values(0, 1, 10, 100, 1000)));

TEST(ThreadPoolTest, RunOnAllCoversEveryWorkerIndexOnce) {
  ThreadPool pool(4);
  ASSERT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(4);
  pool.RunOnAll([&](size_t w) { hits[w].fetch_add(1); });
  for (size_t w = 0; w < 4; ++w) EXPECT_EQ(hits[w].load(), 1);
}

TEST(ThreadPoolTest, RegionsAreRepeatableAndBlockUntilDone) {
  ThreadPool pool(3);
  std::atomic<int> sum{0};
  for (int region = 0; region < 50; ++region) {
    pool.RunOnAll([&](size_t w) { sum.fetch_add(static_cast<int>(w) + 1); });
  }
  // Each region adds 1 + 2 + 3; RunOnAll returning proves completion.
  EXPECT_EQ(sum.load(), 50 * 6);
}

TEST(ThreadPoolTest, StaticStridingPartitionsAllItems) {
  ThreadPool pool(4);
  const size_t n = 103;
  std::vector<std::atomic<int>> seen(n);
  pool.RunOnAll([&](size_t w) {
    for (size_t i = w; i < n; i += pool.size()) seen[i].fetch_add(1);
  });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(seen[i].load(), 1) << "item " << i;
}

TEST(ThreadPoolTest, EmptyPoolRunOnAllIsANoOp) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  bool ran = false;
  pool.RunOnAll([&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

}  // namespace
}  // namespace kws
