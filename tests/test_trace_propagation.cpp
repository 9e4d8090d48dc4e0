// Cross-node causal tracing, end to end (DESIGN.md §5c): a testbed
// execute() must produce ONE causally-linked trace — every agent-side
// span reaches the coordinator's root span by climbing parent links,
// across commands, data packets, chain hops, and retried attempts.
//
// The acceptance bar is >= 95% of agent-category spans linked to the
// root (a handful of late flushes from agent worker threads may land
// after the snapshot); in practice the linked fraction here is 1.0.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "agent/testbed.h"
#include "core/repair_plan.h"
#include "ec/rs_code.h"
#include "net/fault_plan.h"
#include "telemetry/trace.h"
#include "util/units.h"

namespace fastpr::agent {
namespace {

using telemetry::TraceEvent;
using telemetry::TraceLog;

#if FASTPR_TELEMETRY_ENABLED

TestbedOptions small_options(uint64_t seed) {
  TestbedOptions opts;
  opts.num_storage = 12;
  opts.num_standby = 2;
  opts.disk_bytes_per_sec = 0;
  opts.net_bytes_per_sec = 0;
  opts.chunk_bytes = 64 * kKiB;
  opts.packet_bytes = 16 * kKiB;
  opts.num_stripes = 20;
  opts.seed = seed;
  return opts;
}

/// The coordinator.execute root span: parent 0 inside a nonzero trace.
const TraceEvent* find_root(const std::vector<TraceEvent>& events) {
  const TraceEvent* root = nullptr;
  for (const auto& ev : events) {
    if (std::string(ev.name) == "coordinator.execute" &&
        ev.trace_id != 0 && ev.parent_span_id == 0) {
      EXPECT_EQ(root, nullptr) << "more than one root execute span";
      root = &ev;
    }
  }
  return root;
}

/// True when climbing `ev`'s parent chain reaches `root_span`.
bool reaches(const TraceEvent& ev,
             const std::map<uint64_t, const TraceEvent*>& by_span,
             uint64_t root_span) {
  uint64_t cur = ev.parent_span_id;
  for (int depth = 0; depth < 64 && cur != 0; ++depth) {
    if (cur == root_span) return true;
    const auto it = by_span.find(cur);
    if (it == by_span.end()) return false;
    cur = it->second->parent_span_id;
  }
  return false;
}

/// Fraction of `category` events that are causal descendants of the
/// root span (and members of its trace). Returns -1 when the category
/// recorded nothing.
double linked_fraction(const std::vector<TraceEvent>& events,
                       const std::string& category,
                       const TraceEvent& root) {
  std::map<uint64_t, const TraceEvent*> by_span;
  for (const auto& ev : events) {
    if (ev.span_id != 0) by_span[ev.span_id] = &ev;
  }
  int total = 0;
  int linked = 0;
  for (const auto& ev : events) {
    if (category != ev.category) continue;
    ++total;
    const bool is_root = ev.span_id == root.span_id;
    if (ev.trace_id == root.trace_id &&
        (is_root || reaches(ev, by_span, root.span_id))) {
      ++linked;
    }
  }
  if (total == 0) return -1;
  return static_cast<double>(linked) / total;
}

/// Snapshot once span appends have quiesced. execute() returning only
/// guarantees the coordinator saw every ack — agent handler scopes
/// append their span on exit, AFTER acking, so under parallel test
/// load a parent span can land a few ms behind its children. Bounded
/// poll; typically zero or one extra iteration.
std::vector<TraceEvent> quiesced_snapshot() {
  auto events = TraceLog::global().snapshot();
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    auto cur = TraceLog::global().snapshot();
    const bool stable = cur.size() == events.size();
    events = std::move(cur);
    if (stable) break;
  }
  return events;
}

/// Runs `plan` on `tb` with tracing armed and returns the drained
/// events. Asserts the execution succeeded and byte-verified.
std::vector<TraceEvent> traced_execute(Testbed& tb,
                                       const core::RepairPlan& plan) {
  TraceLog::global().clear();
  TraceLog::global().set_enabled(true);
  const auto report = tb.execute(plan);
  auto events = quiesced_snapshot();
  TraceLog::global().set_enabled(false);
  TraceLog::global().clear();
  EXPECT_TRUE(report.success)
      << (report.errors.empty() ? "" : report.errors.front());
  EXPECT_TRUE(tb.verify(report, plan));
  return events;
}

TEST(TracePropagation, InprocAgentSpansDescendFromCoordinatorRoot) {
  ec::RsCode code(6, 4);
  auto opts = small_options(7);
  Testbed tb(opts, code);
  tb.flag_stf();
  const auto plan =
      tb.make_planner(core::Scenario::kScattered).plan_fastpr();
  ASSERT_FALSE(plan.rounds.empty());

  const auto events = traced_execute(tb, plan);
  const TraceEvent* root = find_root(events);
  ASSERT_NE(root, nullptr);

  const double agent_linked = linked_fraction(events, "agent", *root);
  ASSERT_GE(agent_linked, 0) << "no agent spans recorded";
  EXPECT_GE(agent_linked, 0.95);

  // Store I/O under the handlers links too, and the per-round
  // coordinator spans are direct children of the root.
  EXPECT_GE(linked_fraction(events, "store", *root), 0.95);
  EXPECT_GE(linked_fraction(events, "coordinator", *root), 0.95);

  // One execute == one trace: no agent span invented its own trace id.
  std::set<uint64_t> trace_ids;
  for (const auto& ev : events) {
    if (std::string(ev.category) == "agent" && ev.trace_id != 0) {
      trace_ids.insert(ev.trace_id);
    }
  }
  EXPECT_EQ(trace_ids.size(), 1u);
}

TEST(TracePropagation, ChainHopsStayInTheCommandTrace) {
  ec::RsCode code(6, 4);
  auto opts = small_options(9);
  opts.repair_strategy = core::StrategyChoice::kChain;
  Testbed tb(opts, code);
  tb.flag_stf();
  const auto plan =
      tb.make_planner(core::Scenario::kScattered).plan_fastpr();
  ASSERT_FALSE(plan.rounds.empty());
  ASSERT_EQ(plan.rounds[0].strategy, core::RepairStrategy::kChain);

  const auto events = traced_execute(tb, plan);
  const TraceEvent* root = find_root(events);
  ASSERT_NE(root, nullptr);

  // The chain actually ran: head streams and mid-chain forwards both
  // recorded, and every hop's span links back through the repair
  // command to the coordinator root. A head streams like any hop-0
  // source, so its span is agent.stream_chunk on a chain head's node.
  std::set<int32_t> heads;
  for (const auto& round : plan.rounds) {
    for (const auto& task : round.reconstructions) {
      heads.insert(static_cast<int32_t>(task.sources.front().node));
    }
  }
  bool saw_head = false;
  bool saw_forward = false;
  for (const auto& ev : events) {
    if (std::string(ev.name) == "agent.stream_chunk" &&
        heads.count(ev.node) != 0) {
      saw_head = true;
    }
    if (std::string(ev.name) == "agent.chain_forward") saw_forward = true;
  }
  EXPECT_TRUE(saw_head);
  EXPECT_TRUE(saw_forward);
  EXPECT_GE(linked_fraction(events, "agent", *root), 0.95);
}

TEST(TracePropagation, RetriedAttemptIsChildSpanNotNewTrace) {
  ec::RsCode code(6, 4);
  auto opts = small_options(3);
  // Chaos-style short timeouts so the crash is probed out quickly.
  opts.round_timeout = std::chrono::milliseconds(400);
  opts.probe_timeout = std::chrono::milliseconds(150);
  opts.retry_backoff = std::chrono::milliseconds(10);
  opts.max_attempts = 6;
  opts.max_round_extensions = 5;

  // Scout the deterministic plan to pick a helper that will crash
  // mid-stream (same recipe as test_chaos).
  core::RepairPlan scouted;
  {
    Testbed scout(opts, code);
    scout.flag_stf();
    scouted = scout.make_planner(core::Scenario::kScattered).plan_fastpr();
  }
  ASSERT_FALSE(scouted.rounds.empty());
  ASSERT_FALSE(scouted.rounds[0].reconstructions.empty());
  const auto victim = scouted.rounds[0].reconstructions[0].sources[0].node;
  opts.fault_plan = net::FaultPlan::parse(
      "crash node=" + std::to_string(victim) + " after_packets=2\n");

  Testbed tb(opts, code);
  tb.flag_stf();
  const auto plan =
      tb.make_planner(core::Scenario::kScattered).plan_fastpr();

  TraceLog::global().clear();
  TraceLog::global().set_enabled(true);
  const auto report = tb.execute(plan);
  auto events = quiesced_snapshot();
  TraceLog::global().set_enabled(false);
  TraceLog::global().clear();
  EXPECT_TRUE(report.success)
      << (report.errors.empty() ? "" : report.errors.front());
  EXPECT_TRUE(tb.verify(report, plan));
  ASSERT_GT(report.retries, 0);

  const TraceEvent* root = find_root(events);
  ASSERT_NE(root, nullptr);

  // The retried attempt's spans are children inside the SAME trace —
  // a reissue must not mint a fresh root.
  std::set<uint64_t> trace_ids;
  for (const auto& ev : events) {
    if (std::string(ev.category) == "agent" && ev.trace_id != 0) {
      trace_ids.insert(ev.trace_id);
    }
  }
  EXPECT_EQ(trace_ids.size(), 1u);
  EXPECT_EQ(*trace_ids.begin(), root->trace_id);
  EXPECT_GE(linked_fraction(events, "agent", *root), 0.95);

  // Detection ran probes, so the coordinator now holds clock-offset
  // estimates for the nodes that ponged.
  EXPECT_FALSE(tb.clock_offsets().empty());
}

TEST(TracePropagation, TcpExecuteYieldsMergedOffsetCorrectedTrace) {
  ec::RsCode code(6, 4);
  auto opts = small_options(11);
  opts.use_tcp = true;
  opts.num_stripes = 10;
  Testbed tb(opts, code);
  tb.flag_stf();
  const auto plan =
      tb.make_planner(core::Scenario::kScattered).plan_fastpr();
  ASSERT_FALSE(plan.rounds.empty());

  const auto events = traced_execute(tb, plan);
  const TraceEvent* root = find_root(events);
  ASSERT_NE(root, nullptr);
  EXPECT_GE(linked_fraction(events, "agent", *root), 0.95);

  // The merged export applies whatever offsets the coordinator's probe
  // traffic estimated (possibly none on a healthy run) and stays a
  // well-formed Chrome trace with node-attributed lanes.
  const std::string merged =
      telemetry::events_to_chrome_json(events, tb.clock_offsets());
  EXPECT_EQ(merged.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  EXPECT_NE(merged.find("\"coordinator.execute\""), std::string::npos);
  EXPECT_NE(merged.find("\"agent.stream_chunk\""), std::string::npos);
  EXPECT_NE(merged.find("\"trace\":"), std::string::npos);
}

#else  // !FASTPR_TELEMETRY_ENABLED

TEST(TracePropagation, SkippedWhenTelemetryCompiledOut) {
  GTEST_SKIP() << "telemetry compiled out: no spans to propagate";
}

#endif  // FASTPR_TELEMETRY_ENABLED

}  // namespace
}  // namespace fastpr::agent
