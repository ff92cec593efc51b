// E25: operational-telemetry costs — what the kws::obs windowed
// instruments cost per bump on the serve hot path, and the price of
// rendering a Statusz document.
//
// Series:
//   E25.1 instrument micro-costs: ns/op for a plain
//         LatencyHistogram::Record vs the windowed instruments the serve
//         and shard layers bump (same-window bumps; rotation is amortized
//         across windows), plus the worst case of a rotation on every
//         bump.
//   E25.3 snapshot cost: Statusz() and TelemetryRegistry::RenderJson()
//         document size and render time on a warmed server.
//
// (The E25.2 id stays unused; EXPERIMENTS.md says why.)
//
// `--smoke` shrinks the sweep to a <5 s run (the ci.sh gate); absolute
// numbers are then meaningless but every code path still executes.
//
// Expected shape: a windowed bump is one clock read + relaxed
// fetch_adds into the current window and the lifetime total, tens of
// ns — noise against a served query.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "core/engine/engine.h"
#include "obs/clock.h"
#include "obs/telemetry.h"
#include "obs/windowed.h"
#include "relational/dblp.h"
#include "serve/server.h"

namespace kws::bench {
namespace {

bool g_smoke = false;

struct Workload {
  relational::DblpDatabase dblp;
  std::vector<std::string> queries;
};

Workload MakeWorkload() {
  relational::DblpOptions opts;
  opts.num_authors = 24;
  opts.num_papers = 48;
  opts.num_conferences = 6;
  Workload w{relational::MakeDblpDatabase(opts), {}};
  w.queries = {"keyword search database", "query data index",
               "data mining system",      "xml query processing",
               "search index database",   "query optimization system"};
  if (g_smoke) w.queries.resize(3);
  return w;
}

// --------------------------------------------------------------- E25.1

void MicroSeries() {
  Banner("E25.1", "instrument micro-costs (ns per operation)");
  const uint64_t ops = g_smoke ? 200'000 : 2'000'000;
  TablePrinter table({"instrument", "ops", "ns_per_op"});
  const auto time_ns = [&](auto&& body) {
    Stopwatch watch;
    for (uint64_t i = 0; i < ops; ++i) body(i);
    return watch.ElapsedMicros() * 1000.0 / static_cast<double>(ops);
  };

  LatencyHistogram hist;
  table.Row({"histogram.record", Fmt(ops),
             Fmt(time_ns([&](uint64_t i) {
               hist.Record(static_cast<double>(i % 1000));
             }))});

  obs::WindowedCounter wcounter(nullptr, {});
  table.Row({"windowed_counter.add", Fmt(ops),
             Fmt(time_ns([&](uint64_t) { wcounter.Add(); }))});

  obs::WindowedHistogram whist(nullptr, {});
  table.Row({"windowed_histogram.record", Fmt(ops),
             Fmt(time_ns([&](uint64_t i) {
               whist.Record(static_cast<double>(i % 1000));
             }))});

  // Rotation cost: every add lands in a fresh window (worst case — the
  // mutex path on every bump).
  obs::ManualClock clock;
  obs::WindowOptions wo;
  wo.window_micros = 1;
  obs::WindowedCounter rotating(&clock, wo);
  table.Row({"windowed_counter.rotating", Fmt(ops),
             Fmt(time_ns([&](uint64_t) {
               clock.AdvanceMicros(1);
               rotating.Add();
             }))});
}

// --------------------------------------------------------------- E25.3

void SnapshotSeries(const Workload& w) {
  Banner("E25.3", "statusz and telemetry render cost");
  engine::KeywordSearchEngine rel(*w.dblp.db);
  serve::ServeOptions so;
  so.num_workers = 0;
  serve::ServingEngine server(&rel, nullptr, so);
  for (const std::string& q : w.queries) {
    serve::QueryRequest req;
    req.query = q;
    server.Query(req);
  }
  const size_t reps = g_smoke ? 20 : 200;
  double statusz_us = 1e300;
  double render_us = 1e300;
  std::string statusz;
  std::string telemetry;
  for (size_t rep = 0; rep < reps; ++rep) {
    Stopwatch watch;
    statusz = server.Statusz();
    statusz_us = std::min(statusz_us, watch.ElapsedMicros());
    watch.Reset();
    telemetry = server.telemetry().RenderJson();
    render_us = std::min(render_us, watch.ElapsedMicros());
  }
  TablePrinter table({"document", "bytes", "best_us"});
  table.Row({"statusz", Fmt(static_cast<uint64_t>(statusz.size())),
             Fmt(statusz_us)});
  table.Row({"telemetry_json", Fmt(static_cast<uint64_t>(telemetry.size())),
             Fmt(render_us)});
}

void RunExperiment() {
  std::printf("E25: operational-telemetry costs%s\n",
              g_smoke ? " (smoke)" : "");
  Workload w = MakeWorkload();
  MicroSeries();
  SnapshotSeries(w);
}

}  // namespace
}  // namespace kws::bench

int main(int argc, char** argv) {
  kws::bench::ParseJsonFlag(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) kws::bench::g_smoke = true;
  }
  kws::bench::RunExperiment();
  return kws::bench::FlushJson() ? 0 : 1;
}
