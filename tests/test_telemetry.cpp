// Telemetry layer: histogram bucket math, metric atomicity under
// concurrency, trace-event JSON goldens, RepairReport export, and the
// end-to-end check that a testbed run's per-round report matches the
// (cr, cm) structure Algorithm 2 planned.
//
// TraceLog::append is unconditional (only spans gate on the build
// flag), so the golden tests run identically with telemetry compiled
// out; value-producing mutations are #if-gated to the matching
// expectation instead.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "agent/testbed.h"
#include "executed_rounds.h"
#include "core/repair_plan.h"
#include "ec/rs_code.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/repair_report.h"
#include "telemetry/trace.h"
#include "util/units.h"

namespace fastpr {
namespace {

using telemetry::Counter;
using telemetry::Gauge;
using telemetry::Histogram;
using telemetry::LinkBandwidth;
using telemetry::links_to_json;
using telemetry::MetricsRegistry;
using telemetry::RepairReport;
using telemetry::RepairRoundStats;
using telemetry::StfRepairStats;
using telemetry::TraceEvent;
using telemetry::TraceLog;

// ---------------------------------------------------------------------------
// Histogram bucket math (pure functions — identical in both build modes).

TEST(Histogram, BucketIndexBoundaries) {
  EXPECT_EQ(Histogram::bucket_index(-5), 0);
  EXPECT_EQ(Histogram::bucket_index(0), 0);
  EXPECT_EQ(Histogram::bucket_index(1), 1);
  EXPECT_EQ(Histogram::bucket_index(2), 2);
  EXPECT_EQ(Histogram::bucket_index(3), 2);
  EXPECT_EQ(Histogram::bucket_index(4), 3);
  EXPECT_EQ(Histogram::bucket_index(7), 3);
  EXPECT_EQ(Histogram::bucket_index(8), 4);
  EXPECT_EQ(Histogram::bucket_index(1023), 10);
  EXPECT_EQ(Histogram::bucket_index(1024), 11);
  EXPECT_EQ(Histogram::bucket_index(INT64_MAX), Histogram::kNumBuckets - 1);
}

TEST(Histogram, BucketUpperBounds) {
  EXPECT_EQ(Histogram::bucket_upper_bound(0), 0);
  EXPECT_EQ(Histogram::bucket_upper_bound(1), 1);
  EXPECT_EQ(Histogram::bucket_upper_bound(2), 3);
  EXPECT_EQ(Histogram::bucket_upper_bound(3), 7);
  EXPECT_EQ(Histogram::bucket_upper_bound(10), 1023);
  EXPECT_EQ(Histogram::bucket_upper_bound(62), (int64_t{1} << 62) - 1);
  EXPECT_EQ(Histogram::bucket_upper_bound(63), INT64_MAX);
}

TEST(Histogram, EveryValueFitsItsBucket) {
  for (int64_t v : {int64_t{1}, int64_t{2}, int64_t{3}, int64_t{100},
                    int64_t{4095}, int64_t{4096}, int64_t{1} << 40,
                    INT64_MAX}) {
    const int b = Histogram::bucket_index(v);
    EXPECT_LE(v, Histogram::bucket_upper_bound(b)) << "v=" << v;
    if (b > 1) {
      EXPECT_GT(v, Histogram::bucket_upper_bound(b - 1)) << "v=" << v;
    }
  }
}

TEST(Histogram, SnapshotPercentileNearestRank) {
  Histogram::Snapshot snap;  // hand-filled: independent of observe()
  EXPECT_EQ(snap.percentile(0.5), 0);
  EXPECT_DOUBLE_EQ(snap.mean(), 0.0);

  snap.buckets[1] = 3;  // three samples of value 1
  snap.buckets[3] = 1;  // one sample in [4, 7]
  snap.count = 4;
  snap.sum = 3 + 5;
  EXPECT_EQ(snap.percentile(0.0), 1);
  EXPECT_EQ(snap.percentile(0.5), 1);
  EXPECT_EQ(snap.percentile(1.0), 7);
  // Out-of-range p clamps rather than crashing.
  EXPECT_EQ(snap.percentile(-1.0), 1);
  EXPECT_EQ(snap.percentile(2.0), 7);
  EXPECT_DOUBLE_EQ(snap.mean(), 2.0);
}

#if FASTPR_TELEMETRY_ENABLED

TEST(Histogram, ObserveFillsLogScaleBuckets) {
  Histogram h;
  for (int64_t v : {0, 1, 2, 3, 4}) h.observe(v);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 5);
  EXPECT_EQ(snap.sum, 10);
  EXPECT_EQ(snap.buckets[0], 1);
  EXPECT_EQ(snap.buckets[1], 1);
  EXPECT_EQ(snap.buckets[2], 2);
  EXPECT_EQ(snap.buckets[3], 1);
  EXPECT_EQ(snap.percentile(1.0), 7);
  h.reset();
  EXPECT_EQ(h.snapshot().count, 0);
  EXPECT_EQ(h.snapshot().sum, 0);
}

TEST(Metrics, ConcurrentCounterIncrementsAreExact) {
  // The relaxed-atomic hot path must not lose updates; this is also the
  // data-race probe for the tsan preset.
  Counter c;
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add(1);
        h.observe(i % 1024);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), int64_t{kThreads} * kPerThread);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, int64_t{kThreads} * kPerThread);
  int64_t per_thread_sum = 0;
  for (int i = 0; i < kPerThread; ++i) per_thread_sum += i % 1024;
  EXPECT_EQ(snap.sum, kThreads * per_thread_sum);
}

#else  // !FASTPR_TELEMETRY_ENABLED

TEST(Metrics, DisabledBuildMutationsAreNoOps) {
  Counter c;
  c.add(5);
  EXPECT_EQ(c.value(), 0);
  Gauge g;
  g.set(7);
  g.add(3);
  EXPECT_EQ(g.value(), 0);
  Histogram h;
  h.observe(42);
  EXPECT_EQ(h.snapshot().count, 0);
}

#endif  // FASTPR_TELEMETRY_ENABLED

// ---------------------------------------------------------------------------
// Registry: reference stability and export shape.

TEST(MetricsRegistry, SameNameReturnsSameMetric) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x.a");
  EXPECT_EQ(&a, &reg.counter("x.a"));
  EXPECT_NE(&a, &reg.counter("x.b"));
  Histogram& h = reg.histogram("x.h");
  EXPECT_EQ(&h, &reg.histogram("x.h"));
  // reset() zeroes but never invalidates references.
  a.add(1);
  reg.reset();
  EXPECT_EQ(a.value(), 0);
  a.add(1);  // still wired to the registry
  EXPECT_EQ(reg.snapshot().counters[0].first, "x.a");
}

TEST(MetricsRegistry, SnapshotJsonAndCsvGolden) {
  MetricsRegistry reg;
  reg.counter("b.x").add(1);
  reg.counter("a.y").add(2);
  reg.gauge("g").set(7);
  reg.histogram("h").observe(3);
  reg.histogram("h").observe(500);
#if FASTPR_TELEMETRY_ENABLED
  EXPECT_EQ(reg.snapshot().to_json(),
            "{\"counters\":{\"a.y\":2,\"b.x\":1},\"gauges\":{\"g\":7},"
            "\"histograms\":{\"h\":{\"count\":2,\"sum\":503,\"mean\":251.5,"
            "\"p50\":511,\"p99\":511,\"buckets\":[{\"le\":3,\"count\":1},"
            "{\"le\":511,\"count\":1}]}}}");
  EXPECT_EQ(reg.snapshot().to_csv(),
            "kind,name,count,sum,value\n"
            "counter,a.y,,,2\n"
            "counter,b.x,,,1\n"
            "gauge,g,,,7\n"
            "histogram,h,2,503,\n");
#else
  // Compiled out: same structure (name-sorted keys), all values zero.
  EXPECT_EQ(reg.snapshot().to_json(),
            "{\"counters\":{\"a.y\":0,\"b.x\":0},\"gauges\":{\"g\":0},"
            "\"histograms\":{\"h\":{\"count\":0,\"sum\":0,\"mean\":0,"
            "\"p50\":0,\"p99\":0,\"buckets\":[]}}}");
  EXPECT_EQ(reg.snapshot().to_csv(),
            "kind,name,count,sum,value\n"
            "counter,a.y,,,0\n"
            "counter,b.x,,,0\n"
            "gauge,g,,,0\n"
            "histogram,h,0,0,\n");
#endif
}

TEST(MetricsRegistry, PrometheusGolden) {
  MetricsRegistry reg;
  reg.counter("b.x").add(1);
  reg.counter("a.y").add(2);
  reg.gauge("g").set(7);
  reg.histogram("h").observe(3);
  reg.histogram("h").observe(500);
#if FASTPR_TELEMETRY_ENABLED
  EXPECT_EQ(reg.snapshot().to_prometheus(),
            "# TYPE a_y counter\na_y 2\n"
            "# TYPE b_x counter\nb_x 1\n"
            "# TYPE g gauge\ng 7\n"
            "# TYPE h histogram\n"
            "h_bucket{le=\"3\"} 1\n"
            "h_bucket{le=\"511\"} 2\n"
            "h_bucket{le=\"+Inf\"} 2\n"
            "h_sum 503\n"
            "h_count 2\n");
#else
  EXPECT_EQ(reg.snapshot().to_prometheus(),
            "# TYPE a_y counter\na_y 0\n"
            "# TYPE b_x counter\nb_x 0\n"
            "# TYPE g gauge\ng 0\n"
            "# TYPE h histogram\n"
            "h_bucket{le=\"+Inf\"} 0\n"
            "h_sum 0\n"
            "h_count 0\n");
#endif
}

TEST(Json, EscapingAndNumbers) {
  EXPECT_EQ(telemetry::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(telemetry::json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(telemetry::json_str("hi"), "\"hi\"");
  EXPECT_EQ(telemetry::json_num(0.5), "0.5");
  EXPECT_EQ(telemetry::json_num(0.0), "0");
  EXPECT_EQ(telemetry::json_num(1.0 / 0.0), "null");
  EXPECT_EQ(telemetry::json_num(int64_t{42}), "42");
}

// ---------------------------------------------------------------------------
// Trace log: golden Chrome trace_event output from injected events.
// append() is unconditional by design, so these run in both modes.

TEST(TraceLog, ChromeJsonGolden) {
  TraceLog log;
  TraceEvent later;
  later.name = "b.second";
  later.category = "x";
  later.start_us = 200;
  later.duration_us = 50;
  later.tid = 2;
  TraceEvent earlier;
  earlier.name = "a.first";
  earlier.category = "x";
  earlier.start_us = 100;
  earlier.duration_us = 25;
  earlier.tid = 1;
  earlier.arg = 7;
  earlier.arg_name = "round";
  // Appended out of order: snapshot() sorts by start time.
  log.append(later);
  log.append(earlier);
  EXPECT_EQ(log.to_chrome_json(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
            "{\"name\":\"a.first\",\"cat\":\"x\",\"ph\":\"X\",\"ts\":100,"
            "\"dur\":25,\"pid\":1,\"tid\":1,\"args\":{\"round\":7}},"
            "{\"name\":\"b.second\",\"cat\":\"x\",\"ph\":\"X\",\"ts\":200,"
            "\"dur\":50,\"pid\":1,\"tid\":2}]}");
  EXPECT_EQ(log.dropped(), 0);
  log.clear();
  EXPECT_EQ(log.to_chrome_json(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
}

TEST(TraceLog, SnapshotDrainsAndAccumulates) {
  TraceLog log;
  TraceEvent ev;
  ev.name = "e";
  ev.category = "x";
  log.append(ev);
  EXPECT_EQ(log.snapshot().size(), 1u);
  // Drained events stay in the log; new appends accumulate on top.
  log.append(ev);
  EXPECT_EQ(log.snapshot().size(), 2u);
  log.clear();
  EXPECT_TRUE(log.snapshot().empty());
}

TEST(TraceLog, OffsetCorrectedCausalJson) {
  TraceEvent ev;
  ev.name = "agent.handle";
  ev.category = "agent";
  ev.start_us = 1000;
  ev.duration_us = 10;
  ev.tid = 1;
  ev.node = 3;
  ev.trace_id = 9;
  // Golden fixture built by hand, not a forged product span.
  // fastpr-lint: allow(trace-context)
  ev.span_id = 11;
  ev.parent_span_id = 10;
  // Node 3's clock runs 250µs ahead of the exporter's: its events
  // shift earlier by the estimated offset; pid = node + 2.
  EXPECT_EQ(
      telemetry::events_to_chrome_json({ev}, {{3, 250}}),
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"name\":\"agent.handle\",\"cat\":\"agent\",\"ph\":\"X\","
      "\"ts\":750,\"dur\":10,\"pid\":5,\"tid\":1,"
      "\"args\":{\"trace\":9,\"span\":11,\"parent\":10}}]}");
  // An unlisted node keeps its raw timestamps.
  EXPECT_NE(telemetry::events_to_chrome_json({ev}, {{4, 250}})
                .find("\"ts\":1000"),
            std::string::npos);
}

// The regression the per-thread buffers were designed against: a span
// recorded by a short-lived worker must survive the worker's exit (its
// buffer flushes into the central log and deregisters).
TEST(TraceLog, ThreadExitFlushesBuffer) {
  TraceLog log;
  TraceEvent ev;
  ev.name = "worker.event";
  ev.category = "test";
  std::thread([&] { log.append(ev); }).join();
  EXPECT_EQ(log.thread_buffer_count(), 0u);
  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "worker.event");
  EXPECT_EQ(log.dropped(), 0);
}

TEST(Trace, ThreadIdsAreStablePerThread) {
  const uint32_t mine = telemetry::this_thread_id();
  EXPECT_EQ(telemetry::this_thread_id(), mine);
  EXPECT_GE(mine, 1u);
  uint32_t other = 0;
  std::thread([&] { other = telemetry::this_thread_id(); }).join();
  EXPECT_NE(other, mine);
}

TEST(TraceSpan, RecordsIntoGlobalLogWhenEnabled) {
#if FASTPR_TELEMETRY_ENABLED
  auto& log = TraceLog::global();
  log.clear();

  // Disarmed: a span leaves no event.
  { FASTPR_TRACE_SPAN("test.disarmed", "test"); }
  for (const auto& ev : log.snapshot()) {
    EXPECT_STRNE(ev.name, "test.disarmed");
  }

  log.set_enabled(true);
  { FASTPR_TRACE_SPAN("test.span", "test", 42, "round"); }
  log.set_enabled(false);
  bool found = false;
  for (const auto& ev : log.snapshot()) {
    if (std::string(ev.name) != "test.span") continue;
    found = true;
    EXPECT_STREQ(ev.category, "test");
    EXPECT_EQ(ev.arg, 42);
    EXPECT_STREQ(ev.arg_name, "round");
    EXPECT_GE(ev.duration_us, 0);
    EXPECT_EQ(ev.tid, telemetry::this_thread_id());
  }
  EXPECT_TRUE(found);
  log.clear();
#else
  GTEST_SKIP() << "telemetry compiled out: spans are no-op stubs";
#endif
}

// ---------------------------------------------------------------------------
// RepairReport export goldens.

TEST(RepairReport, TotalsAndJsonGolden) {
  RepairReport report;
  report.total_seconds = 0.75;
  RepairRoundStats r1;
  r1.round = 1;
  r1.cr = 2;
  r1.cm = 3;
  r1.fallbacks = 1;
  r1.retries = 2;
  r1.bytes_reconstructed = 2048;
  r1.bytes_migrated = 3072;
  r1.duration_seconds = 0.5;
  r1.stf_bw_utilization = 0.75;
  r1.tr_seconds = 0.3;
  r1.tm_seconds = 0.5;
  RepairRoundStats r2;
  r2.round = 2;
  r2.cr = 1;
  r2.bytes_reconstructed = 1024;
  r2.duration_seconds = 0.25;
  report.rounds = {r1, r2};
  report.predicted = {{2, 3, 0.4, 0.25, 0.4}, {1, 0, 0.2}};
  report.degraded_at_round = 2;
  // A single-STF execution fills its one per_stf entry; the JSON keeps
  // per_stf for batches of two or more only.
  StfRepairStats member;
  member.stf = 4;
  member.planned = 6;
  member.migrated = 3;
  member.reconstructed = 3;
  member.died_at_round = 2;
  report.per_stf = {member};

  EXPECT_EQ(report.total_cr(), 3);
  EXPECT_EQ(report.total_cm(), 3);
  EXPECT_EQ(
      report.to_json(),
      "{\"total_seconds\":0.75,\"total_cr\":3,\"total_cm\":3,"
      "\"degraded_at_round\":2,\"rounds\":["
      "{\"round\":1,\"cr\":2,\"cm\":3,\"fallbacks\":1,\"retries\":2,"
      "\"bytes_reconstructed\":2048,\"bytes_migrated\":3072,"
      "\"duration_seconds\":0.5,\"stf_bw_utilization\":0.75,"
      "\"tr_seconds\":0.3,\"tm_seconds\":0.5,"
      "\"predicted\":{\"cr\":2,\"cm\":3,\"duration_seconds\":0.4,"
      "\"tr_seconds\":0.25,\"tm_seconds\":0.4},"
      "\"drift\":{\"round_time_error_seconds\":0.1,"
      "\"round_time_ratio\":1.25,\"tr_ratio\":1.2,\"tm_ratio\":1.25}},"
      "{\"round\":2,\"cr\":1,\"cm\":0,\"fallbacks\":0,\"retries\":0,"
      "\"bytes_reconstructed\":1024,\"bytes_migrated\":0,"
      "\"duration_seconds\":0.25,\"stf_bw_utilization\":0,"
      "\"predicted\":{\"cr\":1,\"cm\":0,\"duration_seconds\":0.2},"
      "\"drift\":{\"round_time_error_seconds\":0.05,"
      "\"round_time_ratio\":1.25}}]}");
  EXPECT_EQ(report.to_csv(),
            "round,cr,cm,fallbacks,retries,bytes_reconstructed,"
            "bytes_migrated,duration_seconds,stf_bw_utilization\n"
            "1,2,3,1,2,2048,3072,0.5,0.75\n"
            "2,1,0,0,0,1024,0,0.25,0\n");
}

TEST(RepairReport, JsonOmitsPredictionsWhenAbsent) {
  RepairReport report;
  RepairRoundStats r;
  r.round = 1;
  r.cr = 1;
  report.rounds = {r};
  EXPECT_EQ(report.to_json().find("predicted"), std::string::npos);
  EXPECT_EQ(report.to_json().find("drift"), std::string::npos);
  EXPECT_EQ(report.to_json().find("links"), std::string::npos);
}

TEST(RepairReport, PredictionsPairWithTheirRoundNumber) {
  // Pulled migrations can empty a planned round, which then never runs:
  // three predictions for executed rounds 1 and 3 pair by round number,
  // and round 2's prediction stays unpaired.
  RepairReport report;
  RepairRoundStats r1;
  r1.round = 1;
  r1.duration_seconds = 0.5;
  RepairRoundStats r3;
  r3.round = 3;
  r3.duration_seconds = 0.3;
  report.rounds = {r1, r3};
  report.predicted = {{1, 1, 0.25}, {1, 0, 7.0}, {1, 0, 0.15}};
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"round\":1,"), std::string::npos);
  EXPECT_EQ(json.find("\"duration_seconds\":7"), std::string::npos);
  EXPECT_NE(json.find("\"round\":3,"), std::string::npos);
  // 0.5 / 0.25 for round 1 and 0.3 / 0.15 for round 3.
  size_t ratios = 0;
  for (size_t at = json.find("\"round_time_ratio\":2");
       at != std::string::npos;
       at = json.find("\"round_time_ratio\":2", at + 1)) {
    ++ratios;
  }
  EXPECT_EQ(ratios, 2u);
}

TEST(RepairReport, LinksJsonGolden) {
  LinkBandwidth l;
  l.src = 3;
  l.dst = 7;
  l.tx_bytes = 4096;
  l.rx_bytes = 4096;
  l.ewma_bytes_per_sec = 1.5e6;
  l.expected_bytes_per_sec = 4e6;
  l.injected_delay_us = 250;
  l.straggler = true;
  EXPECT_EQ(links_to_json({l}),
            "[{\"src\":3,\"dst\":7,\"tx_bytes\":4096,\"rx_bytes\":4096,"
            "\"ewma_bytes_per_sec\":1.5e+06,"
            "\"expected_bytes_per_sec\":4e+06,"
            "\"injected_delay_us\":250,\"straggler\":true}]");

  RepairReport report;
  RepairRoundStats r;
  r.round = 1;
  report.rounds = {r};
  report.links = {l};
  EXPECT_NE(report.to_json().find("\"links\":[{\"src\":3"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// End to end: an executed testbed plan's measured round structure must
// match what Algorithm 2 scheduled, and the predictions align by index.

TEST(RepairReport, TestbedRoundsMatchScheduledPlan) {
  ec::RsCode code(6, 4);
  agent::TestbedOptions opts;
  opts.num_storage = 12;
  opts.num_standby = 2;
  opts.chunk_bytes = 64 * kKiB;
  opts.packet_bytes = 16 * kKiB;
  opts.num_stripes = 30;
  opts.seed = 7;

  // Reconstruction-only and migration-only plans execute round for
  // round as scheduled: nothing runs beside a reconstruction-only
  // round's barrier, and a migration-only round has no reconstruction
  // for a pulled migration to overlap.
  for (const bool reconstruction : {true, false}) {
    agent::Testbed tb(opts, code);
    tb.flag_stf();
    auto planner = tb.make_planner(core::Scenario::kScattered);
    const auto plan = reconstruction ? planner.plan_reconstruction_only()
                                     : planner.plan_migration_only();
    const auto report = tb.execute(plan);
    EXPECT_TRUE(report.success && tb.verify(report, plan));
    fastpr::test_rounds::expect_rounds_as_planned(report, plan);
  }

  agent::Testbed tb(opts, code);
  tb.flag_stf();
  auto planner = tb.make_planner(core::Scenario::kScattered);
  const auto plan = planner.plan_fastpr();
  ASSERT_FALSE(plan.rounds.empty());

#if FASTPR_TELEMETRY_ENABLED
  telemetry::TraceLog::global().clear();
  telemetry::TraceLog::global().set_enabled(true);
#endif
  auto report = tb.execute(plan);
#if FASTPR_TELEMETRY_ENABLED
  telemetry::TraceLog::global().set_enabled(false);
#endif
  ASSERT_TRUE(report.success) << (report.errors.empty()
                                      ? ""
                                      : report.errors.front());
  EXPECT_TRUE(report.success && tb.verify(report, plan));

  // A FastPR plan may pull migrations forward: each round runs what the
  // plan left in it, and no chunk runs after its planned round.
  const auto& repair = report.repair;
  fastpr::test_rounds::expect_rounds_within_plan(report, plan);
  double round_sum = 0;
  for (const auto& measured : repair.rounds) {
    EXPECT_EQ(measured.fallbacks, 0);
    EXPECT_GT(measured.duration_seconds, 0.0);
    EXPECT_EQ(measured.bytes_reconstructed,
              static_cast<int64_t>(measured.cr) *
                  static_cast<int64_t>(opts.chunk_bytes));
    EXPECT_EQ(measured.bytes_migrated,
              static_cast<int64_t>(measured.cm) *
                  static_cast<int64_t>(opts.chunk_bytes));
    round_sum += measured.duration_seconds;
  }
  EXPECT_EQ(repair.total_cr() + repair.total_cm(), plan.total_repaired());
  EXPECT_LE(round_sum, repair.total_seconds + 1e-9);

  // Cost-model predictions line up round for round with the schedule.
  const auto predicted = tb.predict_rounds(plan, core::Scenario::kScattered);
  ASSERT_EQ(predicted.size(), plan.rounds.size());
  for (size_t i = 0; i < predicted.size(); ++i) {
    EXPECT_EQ(predicted[i].cr,
              static_cast<int>(plan.rounds[i].reconstructions.size()));
    EXPECT_EQ(predicted[i].cm,
              static_cast<int>(plan.rounds[i].migrations.size()));
    EXPECT_GT(predicted[i].duration_seconds, 0.0);
  }

#if FASTPR_TELEMETRY_ENABLED
  // The run left a usable timeline behind: per-round coordinator spans
  // and per-chunk streaming spans, exported as Chrome trace JSON.
  const std::string trace = telemetry::TraceLog::global().to_chrome_json();
  EXPECT_NE(trace.find("\"coordinator.round\""), std::string::npos);
  EXPECT_NE(trace.find("\"agent.stream_chunk\""), std::string::npos);
  EXPECT_NE(trace.find("\"coordinator.execute\""), std::string::npos);
  telemetry::TraceLog::global().clear();
#endif
}

}  // namespace
}  // namespace fastpr
