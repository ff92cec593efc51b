// Tests for the kws::obs operational-telemetry layer: deterministic
// window advance under a ManualClock (byte-stable goldens), agreement
// of the windowed and lifetime readings with LatencyHistogram's
// bucketing, the TelemetryRegistry render, the ServingEngine::Statusz
// golden, and a concurrent-writers sweep that rides the ci.sh TSan gate.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/engine/engine.h"
#include "obs/clock.h"
#include "obs/telemetry.h"
#include "obs/windowed.h"
#include "relational/dblp.h"
#include "serve/server.h"

namespace kws::obs {
namespace {

// ---------------------------------------------------------------------------
// Clocks.

TEST(ManualClockTest, AdvancesOnlyWhenTold) {
  ManualClock clock;
  EXPECT_EQ(clock.NowMicros(), 0u);
  clock.AdvanceMicros(250);
  EXPECT_EQ(clock.NowMicros(), 250u);
  clock.AdvanceMicros(0);
  EXPECT_EQ(clock.NowMicros(), 250u);
  ManualClock seeded(1'000'000);
  EXPECT_EQ(seeded.NowMicros(), 1'000'000u);
}

TEST(SteadyClockTest, IsMonotone) {
  const SteadyClock clock;
  const uint64_t a = clock.NowMicros();
  const uint64_t b = clock.NowMicros();
  EXPECT_LE(a, b);
  EXPECT_EQ(DefaultClock(), DefaultClock());
}

// ---------------------------------------------------------------------------
// WindowedCounter under a ManualClock: every reading is exact.

TEST(WindowedCounterTest, WindowAdvanceIsDeterministic) {
  ManualClock clock;
  WindowOptions w;
  w.window_micros = 1000;
  w.num_windows = 4;
  WindowedCounter c(&clock, w);
  // Snapshot is always num_windows entries, zeros before any traffic.
  EXPECT_EQ(c.WindowSnapshot(), (std::vector<uint64_t>{0, 0, 0, 0}));

  c.Add(2);  // window 0
  clock.AdvanceMicros(1000);
  c.Add(3);  // window 1
  clock.AdvanceMicros(999);  // still window 1
  c.Add();
  EXPECT_EQ(c.total(), 6u);
  EXPECT_EQ(c.TotalInWindows(), 6u);
  // Oldest retained window first, current (partial) window last; windows
  // before the clock origin render as zeros.
  EXPECT_EQ(c.WindowSnapshot(), (std::vector<uint64_t>{0, 0, 2, 4}));

  clock.AdvanceMicros(1);  // window 2 begins
  EXPECT_EQ(c.WindowSnapshot(), (std::vector<uint64_t>{0, 2, 4, 0}));
  EXPECT_EQ(c.TotalInWindows(), 6u);
}

TEST(WindowedCounterTest, OldWindowsExpireButTotalNeverDecays) {
  ManualClock clock;
  WindowOptions w;
  w.window_micros = 1000;
  w.num_windows = 2;
  WindowedCounter c(&clock, w);
  c.Add(5);
  EXPECT_EQ(c.TotalInWindows(), 5u);
  clock.AdvanceMicros(1000);
  EXPECT_EQ(c.TotalInWindows(), 5u);  // window 0 still retained
  clock.AdvanceMicros(1000);
  EXPECT_EQ(c.TotalInWindows(), 0u);  // rotated out
  EXPECT_EQ(c.WindowSnapshot(), (std::vector<uint64_t>{0, 0}));
  EXPECT_EQ(c.total(), 5u);  // the lifetime total never decays
}

TEST(WindowedCounterTest, RatePerSecondIsExactUnderManualClock) {
  ManualClock clock;
  WindowOptions w;
  w.window_micros = 500'000;  // 0.5 s
  w.num_windows = 4;          // 2 s retained span
  WindowedCounter c(&clock, w);
  c.Add(10);
  clock.AdvanceMicros(500'000);
  c.Add(30);
  EXPECT_DOUBLE_EQ(c.RatePerSecond(), 40.0 / 2.0);
  // Rates decay to zero when traffic stops — a lifetime total cannot
  // say this.
  clock.AdvanceMicros(4 * 500'000);
  EXPECT_DOUBLE_EQ(c.RatePerSecond(), 0.0);
}

TEST(WindowedCounterTest, RingRecyclesSlotsExactly) {
  ManualClock clock;
  WindowOptions w;
  w.window_micros = 10;
  w.num_windows = 3;
  WindowedCounter c(&clock, w);
  // Drive many full rotations; every window sees its own exact count.
  for (uint64_t i = 0; i < 50; ++i) {
    c.Add(i + 1);
    clock.AdvanceMicros(10);
  }
  // Now at window 50 (empty); retained: 49, 48 (+ current 50).
  EXPECT_EQ(c.WindowSnapshot(), (std::vector<uint64_t>{49, 50, 0}));
  EXPECT_EQ(c.TotalInWindows(), 99u);
  EXPECT_EQ(c.total(), 50u * 51u / 2u);
}

// ---------------------------------------------------------------------------
// WindowedHistogram: windowed percentiles, identical bucketing.

TEST(WindowedHistogramTest, WindowedReadingsAreExact) {
  ManualClock clock;
  WindowOptions w;
  w.window_micros = 1000;
  w.num_windows = 2;
  WindowedHistogram h(&clock, w);
  EXPECT_EQ(h.CountInWindows(), 0u);
  EXPECT_DOUBLE_EQ(h.MeanMicros(), 0.0);
  EXPECT_DOUBLE_EQ(h.PercentileMicros(0.99), 0.0);

  h.Record(100);  // window 0
  h.Record(300);
  clock.AdvanceMicros(1000);
  h.Record(500);  // window 1
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.CountInWindows(), 3u);
  EXPECT_DOUBLE_EQ(h.MeanMicros(), 300.0);

  // Window 0 (with the 100 and 300 us samples) rotates out: the recent
  // view sharpens to the one 500 us observation.
  clock.AdvanceMicros(1000);
  EXPECT_EQ(h.CountInWindows(), 1u);
  EXPECT_DOUBLE_EQ(h.MeanMicros(), 500.0);
  EXPECT_EQ(h.count(), 3u);
}

TEST(WindowedHistogramTest, BucketsIdenticallyToLatencyHistogram) {
  // Same recordings, all within live windows: the windowed percentile
  // must equal the plain histogram's exactly (shared bucketing + shared
  // interpolation), and so must the lifetime side, before and after the
  // windows age out.
  ManualClock clock;
  WindowOptions w;
  w.window_micros = 1'000'000;
  w.num_windows = 8;
  WindowedHistogram windowed(&clock, w);
  LatencyHistogram cumulative;
  const double samples[] = {0.5, 1, 3, 10, 100, 1000, 5000, 100000};
  for (double s : samples) {
    windowed.Record(s);
    cumulative.Record(s);
  }
  for (double p : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(windowed.PercentileMicros(p),
                     cumulative.PercentileMicros(p))
        << p;
  }
  EXPECT_DOUBLE_EQ(windowed.MeanMicros(), cumulative.MeanMicros());

  const auto expect_lifetime_matches = [&] {
    const LatencyHistogram& total = windowed.total();
    EXPECT_EQ(total.count(), cumulative.count());
    EXPECT_EQ(windowed.count(), cumulative.count());
    EXPECT_DOUBLE_EQ(total.MeanMicros(), cumulative.MeanMicros());
    for (double p : {0.50, 0.95, 0.99}) {
      EXPECT_DOUBLE_EQ(total.PercentileMicros(p),
                       cumulative.PercentileMicros(p))
          << p;
    }
  };
  expect_lifetime_matches();
  // Past the whole ring the windows are empty; lifetime readings never
  // decay.
  clock.AdvanceMicros((w.num_windows + 1) * w.window_micros);
  EXPECT_EQ(windowed.CountInWindows(), 0u);
  expect_lifetime_matches();
}

// ---------------------------------------------------------------------------
// TelemetryRegistry: stable pointers, byte-stable render.

TEST(TelemetryRegistryTest, InstrumentPointersAreStable) {
  TelemetryRegistry reg;
  WindowedCounter* c = reg.GetWindowedCounter("serve.submitted");
  EXPECT_EQ(reg.GetWindowedCounter("serve.submitted"), c);
  EXPECT_NE(reg.GetWindowedCounter("serve.completed"), c);
  WindowedHistogram* h = reg.GetWindowedHistogram("serve.latency_micros");
  EXPECT_EQ(reg.GetWindowedHistogram("serve.latency_micros"), h);
}

TEST(TelemetryRegistryTest, RenderJsonGoldenBytes) {
  ManualClock clock;
  WindowOptions w;
  w.window_micros = 1000;
  w.num_windows = 4;
  TelemetryRegistry reg(&clock, w);
  WindowedCounter* wc = reg.GetWindowedCounter("serve.hits");
  wc->Add(2);
  clock.AdvanceMicros(1000);
  wc->Add(3);
  WindowedHistogram* wh = reg.GetWindowedHistogram("serve.latency_micros");
  wh->Record(100);
  wh->Record(100);
  EXPECT_EQ(
      reg.RenderJson(),
      "{\"window_micros\":1000,\"num_windows\":4,"
      "\"counters\":{\"serve.hits\":{\"total\":5,\"in_windows\":5,"
      "\"rate_per_sec\":1250.000,\"windows\":[0,0,2,3]}},"
      "\"histograms\":{\"serve.latency_micros\":{\"count\":2,"
      "\"mean_micros\":100.000,\"p50_micros\":96.000,"
      "\"p95_micros\":124.800,\"p99_micros\":127.360,"
      "\"recent\":{\"count\":2,\"mean_micros\":100.000,"
      "\"p50_micros\":96.000,\"p95_micros\":124.800,"
      "\"p99_micros\":127.360}}}}");
  // Rendering twice at the same instant is byte-identical.
  EXPECT_EQ(reg.RenderJson(), reg.RenderJson());
}

// ---------------------------------------------------------------------------
// Concurrency: relaxed bumps + mutex rotation must lose nothing from the
// lifetime side and stay TSan-clean while the clock advances under the
// writers' feet. On the ci.sh TSan gate.

class ObsConcurrencyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ObsConcurrencyTest, ConcurrentWritersLoseNothingCumulative) {
  const size_t threads = GetParam();
  ManualClock clock;
  WindowOptions w;
  w.window_micros = 50;
  w.num_windows = 4;
  TelemetryRegistry reg(&clock, w);
  WindowedCounter* counter = reg.GetWindowedCounter("sweep.events");
  WindowedHistogram* hist = reg.GetWindowedHistogram("sweep.latency_micros");
  constexpr uint64_t kPerThread = 2000;
  ThreadPool pool(threads);
  pool.RunOnAll([&](size_t worker) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      counter->Add();
      hist->Record(static_cast<double>(worker * 10 + i % 7));
      if (worker == 0 && i % 64 == 0) {
        // One writer doubles as the clock: rotation races real traffic.
        clock.AdvanceMicros(25);
      }
      if (i % 128 == 0) {
        // Readers race the writers; values are approximate, access must
        // be clean.
        (void)counter->TotalInWindows();
        (void)hist->PercentileMicros(0.99);
        (void)reg.RenderJson();
      }
    }
  });
  // The lifetime side is exact no matter how rotation raced; the
  // windowed side never exceeds it.
  EXPECT_EQ(counter->total(), threads * kPerThread);
  EXPECT_EQ(hist->count(), threads * kPerThread);
  EXPECT_EQ(hist->total().count(), threads * kPerThread);
  EXPECT_LE(counter->TotalInWindows(), counter->total());
  EXPECT_LE(hist->CountInWindows(), hist->count());
}

INSTANTIATE_TEST_SUITE_P(Sweep, ObsConcurrencyTest,
                         ::testing::Values(2, 4, 8));

// ---------------------------------------------------------------------------
// ServingEngine::Statusz under a ManualClock: the full document golden.

TEST(ServingStatuszTest, FreshServerGoldenBytes) {
  relational::DblpOptions opts;
  opts.num_authors = 20;
  opts.num_papers = 40;
  opts.num_conferences = 4;
  const relational::DblpDatabase dblp = MakeDblpDatabase(opts);
  engine::KeywordSearchEngine engine(*dblp.db);

  ManualClock clock;
  serve::ServeOptions so;
  so.num_workers = 0;  // nothing executes: the document is exact
  so.queue_capacity = 8;
  so.cache_capacity = 4;
  so.cache_shards = 2;
  so.tuple_cache_capacity = 0;
  so.slow_query_log_capacity = 4;
  so.clock = &clock;
  serve::ServingEngine server(&engine, /*xml=*/nullptr, so);

  const std::string expected =
      "{\"uptime_micros\":0,"
      "\"queue\":{\"depth\":0,\"capacity\":8,\"workers\":0,\"inflight\":0},"
      "\"requests\":{\"submitted\":0,\"completed\":0,\"ok\":0,"
      "\"rejected\":0,\"deadline_exceeded\":0,\"errors\":0,"
      "\"rejection_rate\":0.000,\"deadline_rate\":0.000,"
      "\"recent\":{\"submitted\":0,\"completed\":0,\"qps\":0.000,"
      "\"rejection_rate\":0.000,\"deadline_rate\":0.000}},"
      "\"latency\":{\"count\":0,\"mean_micros\":0.000,"
      "\"p50_micros\":0.000,\"p95_micros\":0.000,\"p99_micros\":0.000,"
      "\"recent\":{\"count\":0,\"p50_micros\":0.000,\"p99_micros\":0.000}},"
      "\"result_cache\":{\"capacity\":4,\"size\":0,\"hits\":0,"
      "\"misses\":0,\"hit_rate\":0.000,\"insertions\":0,\"evictions\":0,"
      "\"recent_hit_rate\":0.000,"
      "\"shards\":[{\"capacity\":2,\"size\":0,\"hits\":0,\"misses\":0,"
      "\"hit_rate\":0.000},"
      "{\"capacity\":2,\"size\":0,\"hits\":0,\"misses\":0,"
      "\"hit_rate\":0.000}]},"
      "\"tuple_cache\":{\"configured\":false},"
      "\"epochs\":{\"published\":0,\"last_write\":0,\"lag\":0,"
      "\"writes_notified\":0,\"tuple_entries_invalidated\":0},"
      "\"standing_queries\":0,"
      "\"slow_queries\":{\"capacity\":4,\"entries\":0,"
      "\"threshold_micros\":0,\"sampled\":0,\"deadline_exceeded\":0,"
      "\"max_latency_micros\":0.000,\"last_sequence\":0}}";
  EXPECT_EQ(server.Statusz(), expected);
  // The document is a pure function of state + clock: advancing time
  // moves only the uptime field.
  clock.AdvanceMicros(1234);
  std::string aged = expected;
  const std::string from = "\"uptime_micros\":0,";
  const std::string to = "\"uptime_micros\":1234,";
  aged.replace(aged.find(from), from.size(), to);
  EXPECT_EQ(server.Statusz(), aged);
}

TEST(ServingStatuszTest, TracksTrafficAndWindowedRates) {
  relational::DblpOptions opts;
  opts.num_authors = 20;
  opts.num_papers = 40;
  opts.num_conferences = 4;
  const relational::DblpDatabase dblp = MakeDblpDatabase(opts);
  engine::KeywordSearchEngine engine(*dblp.db);

  ManualClock clock;
  serve::ServeOptions so;
  so.num_workers = 1;
  so.clock = &clock;
  serve::ServingEngine server(&engine, /*xml=*/nullptr, so);
  serve::QueryRequest req;
  req.query = "keyword search";
  (void)server.Query(req);
  (void)server.Query(req);  // result-cache hit

  const std::string doc = server.Statusz();
  EXPECT_NE(doc.find("\"submitted\":2"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"completed\":2"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"hits\":1"), std::string::npos) << doc;
  // The windowed side saw the same two queries (the clock never moved,
  // so they are all in the current window).
  EXPECT_NE(doc.find("\"recent\":{\"submitted\":2,\"completed\":2"),
            std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"recent_hit_rate\":0.500"), std::string::npos) << doc;

  // Windowed rates decay once the traffic ages out of the ring; the
  // cumulative side keeps the totals.
  clock.AdvanceMicros((obs::WindowOptions{}.num_windows + 1) *
                      obs::WindowOptions{}.window_micros);
  const std::string later = server.Statusz();
  EXPECT_NE(later.find("\"recent\":{\"submitted\":0,\"completed\":0"),
            std::string::npos)
      << later;
  EXPECT_NE(later.find("\"submitted\":2"), std::string::npos) << later;
}

}  // namespace
}  // namespace kws::obs
