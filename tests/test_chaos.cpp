// Chaos suite: scripted fault injection (DESIGN.md §7) across many
// seeds. Every scenario runs kNumSeeds seeds starting at
// $FASTPR_CHAOS_SEED_BASE (default 1; CI runs a disjoint base), and
// each run must uphold the repair invariant: as long as every stripe
// retains >= k live chunks, the repair completes with every chunk
// byte-verified at its final destination; otherwise the report
// enumerates exactly the unrepairable chunks. These tests exercise
// wall-clock timeout/probe paths — timings are meaningless here and
// are never reported (EXPERIMENTS.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "agent/testbed.h"
#include "core/repair_plan.h"
#include "core/repair_throttler.h"
#include "ec/rs_code.h"
#include "load/foreground.h"
#include "net/fault_plan.h"
#include "net/topology.h"
#include "telemetry/metrics.h"
#include "util/units.h"

namespace fastpr::agent {
namespace {

constexpr int kNumSeeds = 10;

uint64_t seed_base() {
  const char* env = std::getenv("FASTPR_CHAOS_SEED_BASE");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1;
}

/// Small unthrottled testbed with short fault-tolerance timeouts so a
/// stalled round is probed in ~half a second instead of two minutes.
TestbedOptions chaos_options(uint64_t seed) {
  TestbedOptions opts;
  opts.num_storage = 12;
  opts.num_standby = 2;
  opts.disk_bytes_per_sec = 0;  // unthrottled: chaos checks bytes, not time
  opts.net_bytes_per_sec = 0;
  opts.chunk_bytes = 64 * kKiB;
  opts.packet_bytes = 16 * kKiB;
  opts.num_stripes = 20;
  opts.seed = seed;
  opts.round_timeout = std::chrono::milliseconds(400);
  opts.probe_timeout = std::chrono::milliseconds(150);
  opts.retry_backoff = std::chrono::milliseconds(10);
  opts.max_attempts = 6;
  opts.max_round_extensions = 5;
  return opts;
}

/// Testbed construction is deterministic in (options, code), so a
/// fault-free scout run exposes the exact plan a faulty run of the same
/// seed will execute — lets a schedule target plan-dependent nodes.
core::RepairPlan scout_plan(const TestbedOptions& opts,
                            const ec::ErasureCode& code,
                            core::Scenario scenario) {
  Testbed scout(opts, code);
  scout.flag_stf();
  return scout.make_planner(scenario).plan_fastpr();
}

void expect_full_recovery(const Testbed& tb, const core::RepairPlan& plan,
                          const ExecutionReport& report) {
  EXPECT_TRUE(report.success)
      << (report.errors.empty() ? "" : report.errors.front());
  EXPECT_TRUE(report.unrepaired.empty());
  EXPECT_TRUE(tb.verify(report, plan));
}

bool contains_node(const std::vector<cluster::NodeId>& nodes,
                   cluster::NodeId node) {
  return std::find(nodes.begin(), nodes.end(), node) != nodes.end();
}

/// True when some round of `plan` reconstructs through chains — the
/// chain variants below must really exercise the hop protocol.
bool runs_chains(const core::RepairPlan& plan) {
  return std::any_of(plan.rounds.begin(), plan.rounds.end(),
                     [](const core::RepairRound& round) {
                       return round.strategy == core::RepairStrategy::kChain &&
                              !round.reconstructions.empty();
                     });
}

// The scenarios below run once per reconstruction strategy: fan-in
// (the paper's) and partial-sum chains.

void helper_crash_mid_stream_recovers(core::StrategyChoice strategy) {
  ec::RsCode code(6, 4);
  for (int i = 0; i < kNumSeeds; ++i) {
    const uint64_t seed = seed_base() + static_cast<uint64_t>(i);
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto opts = chaos_options(seed);
    opts.repair_strategy = strategy;

    const auto scouted =
        scout_plan(opts, code, core::Scenario::kScattered);
    ASSERT_FALSE(scouted.rounds.empty());
    ASSERT_FALSE(scouted.rounds[0].reconstructions.empty());
    // A fan-in helper, or the head of a chain.
    const auto victim = scouted.rounds[0].reconstructions[0].sources[0].node;

    // The helper dies two data packets into its very first stream.
    opts.fault_plan = net::FaultPlan::parse(
        "crash node=" + std::to_string(victim) + " after_packets=2\n");
    Testbed tb(opts, code);
    tb.flag_stf();
    const auto plan = tb.make_planner(core::Scenario::kScattered).plan_fastpr();
    EXPECT_EQ(runs_chains(plan), strategy == core::StrategyChoice::kChain);

#if FASTPR_TELEMETRY_ENABLED
    const int64_t retries_before = telemetry::MetricsRegistry::global()
                                       .counter("coordinator.retries")
                                       .value();
#endif
    const auto report = tb.execute(plan);
    expect_full_recovery(tb, plan, report);
    EXPECT_GT(report.retries, 0);
    EXPECT_TRUE(contains_node(report.failed_nodes, victim));
#if FASTPR_TELEMETRY_ENABLED
    EXPECT_GT(telemetry::MetricsRegistry::global()
                  .counter("coordinator.retries")
                  .value(),
              retries_before);
#endif
  }
}

TEST(Chaos, HelperCrashMidStreamRecovers) {
  helper_crash_mid_stream_recovers(core::StrategyChoice::kFanIn);
}

TEST(Chaos, HelperCrashMidStreamRecoversOnChain) {
  helper_crash_mid_stream_recovers(core::StrategyChoice::kChain);
}

TEST(Chaos, MidChainHopCrashRecovers) {
  // Chain strategy: a MIDDLE hop of a partial-sum chain dies two
  // packets into its forwarding. The running sum it held dies with it;
  // the probe exposes the dead node, and the reissued attempt re-picks
  // a helper chain without it (no global replan) — the repair still
  // completes byte-verified.
  ec::RsCode code(6, 4);
  for (int i = 0; i < kNumSeeds; ++i) {
    const uint64_t seed = seed_base() + static_cast<uint64_t>(i);
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto opts = chaos_options(seed);
    opts.repair_strategy = core::StrategyChoice::kChain;

    const auto scouted =
        scout_plan(opts, code, core::Scenario::kScattered);
    ASSERT_FALSE(scouted.rounds.empty());
    ASSERT_FALSE(scouted.rounds[0].reconstructions.empty());
    const auto& first = scouted.rounds[0].reconstructions[0];
    ASSERT_GE(first.sources.size(), 2u);
    // Hop 1: receives hop 0's stream AND forwards — a true mid-chain
    // position whose crash severs the pipeline, not just one source.
    const auto victim = first.sources[1].node;

    opts.fault_plan = net::FaultPlan::parse(
        "crash node=" + std::to_string(victim) + " after_packets=2\n");
    Testbed tb(opts, code);
    tb.flag_stf();
    const auto plan =
        tb.make_planner(core::Scenario::kScattered).plan_fastpr();
    ASSERT_EQ(plan.rounds[0].strategy, core::RepairStrategy::kChain);

#if FASTPR_TELEMETRY_ENABLED
    const int64_t stale_before = telemetry::MetricsRegistry::global()
                                     .counter("agent.stale_packets")
                                     .value();
#endif
    const auto report = tb.execute(plan);
    expect_full_recovery(tb, plan, report);
    EXPECT_GT(report.retries, 0);
    EXPECT_EQ(report.replans, 0);
    EXPECT_TRUE(contains_node(report.failed_nodes, victim));
#if FASTPR_TELEMETRY_ENABLED
    // Leftover packets of cancelled chain attempts must be discarded as
    // stale/dup, never folded into a newer attempt's sum (the byte
    // verification above would catch such corruption).
    EXPECT_GE(telemetry::MetricsRegistry::global()
                  .counter("agent.stale_packets")
                  .value(),
              stale_before);
#endif
  }
}

void destination_crash_recovers_onto_alternate(
    core::StrategyChoice strategy) {
  ec::RsCode code(6, 4);
  for (int i = 0; i < kNumSeeds; ++i) {
    const uint64_t seed = seed_base() + static_cast<uint64_t>(i);
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto opts = chaos_options(seed);
    opts.repair_strategy = strategy;

    const auto scouted =
        scout_plan(opts, code, core::Scenario::kHotStandby);
    ASSERT_FALSE(scouted.rounds.empty());
    const auto& first = scouted.rounds[0];
    const auto victim = first.reconstructions.empty()
                            ? first.migrations[0].dst
                            : first.reconstructions[0].dst;

    // Dead from the start: both thresholds zero.
    opts.fault_plan = net::FaultPlan::parse(
        "crash node=" + std::to_string(victim) + "\n");
    Testbed tb(opts, code);
    tb.flag_stf();
    const auto plan =
        tb.make_planner(core::Scenario::kHotStandby).plan_fastpr();
    EXPECT_EQ(runs_chains(plan), strategy == core::StrategyChoice::kChain);

    const auto report = tb.execute(plan);
    expect_full_recovery(tb, plan, report);
    EXPECT_GT(report.retries, 0);
    EXPECT_GT(report.round_extensions, 0);
    EXPECT_TRUE(contains_node(report.failed_nodes, victim));
    for (const auto& done : report.completions) {
      EXPECT_NE(done.dst, victim);
    }
  }
}

TEST(Chaos, DestinationCrashRecoversOntoAlternate) {
  destination_crash_recovers_onto_alternate(core::StrategyChoice::kFanIn);
}

TEST(Chaos, DestinationCrashRecoversOntoAlternateOnChain) {
  destination_crash_recovers_onto_alternate(core::StrategyChoice::kChain);
}

void stf_crash_mid_repair_degrades_to_reactive(
    core::StrategyChoice strategy) {
  ec::RsCode code(6, 4);
  for (int i = 0; i < kNumSeeds; ++i) {
    const uint64_t seed = seed_base() + static_cast<uint64_t>(i);
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto opts = chaos_options(seed);
    opts.repair_strategy = strategy;

    // The STF node goes silent 1.5 chunks into its migration traffic;
    // the stalled round's probe detects the death and the rest of the
    // repair replans as pure reactive reconstruction. An armed
    // bandwidth trigger must be disarmed by the death: the reactive
    // tail is not the plan its drift ratios price.
    opts.fault_plan =
        net::FaultPlan::parse("crash node=stf after_bytes=98304\n");
    opts.bandwidth_replan.enabled = true;
    opts.bandwidth_replan.min_breach_rounds = 1;
    Testbed tb(opts, code);
    const auto stf = tb.flag_stf();
    const auto plan =
        tb.make_planner(core::Scenario::kScattered).plan_fastpr();
    ASSERT_GE(plan.total_migrated(), 2);  // the crash threshold must trip
    EXPECT_EQ(runs_chains(plan), strategy == core::StrategyChoice::kChain);

    const auto report = tb.execute(plan);
    expect_full_recovery(tb, plan, report);
    EXPECT_TRUE(report.degraded_to_reactive);
    EXPECT_GE(report.repair.degraded_at_round, 1);
    EXPECT_EQ(report.replans, 1);
    EXPECT_EQ(report.bandwidth_replans, 0);
    EXPECT_FALSE(tb.bandwidth_trigger()->enabled());
    EXPECT_GT(report.round_extensions, 0);
    EXPECT_TRUE(contains_node(report.failed_nodes, stf));
  }
}

TEST(Chaos, StfCrashMidRepairDegradesToReactive) {
  stf_crash_mid_repair_degrades_to_reactive(core::StrategyChoice::kFanIn);
}

TEST(Chaos, StfCrashMidRepairDegradesToReactiveOnChain) {
  stf_crash_mid_repair_degrades_to_reactive(core::StrategyChoice::kChain);
}

TEST(Chaos, StfReadErrorsDegradeToReactive) {
  ec::RsCode code(6, 4);
  for (int i = 0; i < kNumSeeds; ++i) {
    const uint64_t seed = seed_base() + static_cast<uint64_t>(i);
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto opts = chaos_options(seed);
    // Every chunk on the STF node hits a latent sector error, so each
    // migration fails fast and converts; the failure threshold then
    // declares the node dead without waiting for any timeout.
    opts.stf_failure_threshold = 2;
    opts.fault_plan = net::FaultPlan::parse("read_error node=stf\n");
    Testbed tb(opts, code);
    tb.flag_stf();
    const auto plan =
        tb.make_planner(core::Scenario::kScattered).plan_migration_only();
    ASSERT_GE(plan.total_migrated(), 2);

#if FASTPR_TELEMETRY_ENABLED
    const int64_t degraded_before = telemetry::MetricsRegistry::global()
                                        .counter("coordinator.degraded_executions")
                                        .value();
#endif
    const auto report = tb.execute(plan);
    expect_full_recovery(tb, plan, report);
    EXPECT_TRUE(report.degraded_to_reactive);
    EXPECT_EQ(report.replans, 1);
    EXPECT_GT(report.retries, 0);
    EXPECT_GT(report.fallback_reconstructions, 0);
#if FASTPR_TELEMETRY_ENABLED
    EXPECT_GT(telemetry::MetricsRegistry::global()
                  .counter("coordinator.degraded_executions")
                  .value(),
              degraded_before);
#endif
  }
}

void flaky_network_stays_live_within_budgets(
    core::StrategyChoice strategy) {
  ec::RsCode code(6, 4);
  for (int i = 0; i < kNumSeeds; ++i) {
    const uint64_t seed = seed_base() + static_cast<uint64_t>(i);
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto opts = chaos_options(seed);
    opts.repair_strategy = strategy;
    // Bounded budgets keep liveness provable: at most 3 drops, and the
    // coordinator has 5 extensions per round plus 6 attempts per task —
    // strictly more salvage capacity than the faults can consume.
    opts.fault_plan = net::FaultPlan::parse(
        "seed " + std::to_string(seed) +
        "\n"
        "flaky node=any drop=0.04 max_drops=3 dup=0.04 max_dups=8 "
        "delay=0.1 delay_ms=2 max_delays=50\n");
    Testbed tb(opts, code);
    tb.flag_stf();
    const auto plan =
        tb.make_planner(core::Scenario::kScattered).plan_fastpr();
    EXPECT_EQ(runs_chains(plan), strategy == core::StrategyChoice::kChain);

    const auto report = tb.execute(plan);
    expect_full_recovery(tb, plan, report);
  }
}

TEST(Chaos, FlakyNetworkStaysLiveWithinBudgets) {
  flaky_network_stays_live_within_budgets(core::StrategyChoice::kFanIn);
}

TEST(Chaos, FlakyNetworkStaysLiveWithinBudgetsOnChain) {
  flaky_network_stays_live_within_budgets(core::StrategyChoice::kChain);
}

TEST(Chaos, InjectedDelaysDoNotFlagPhantomStragglers) {
#if FASTPR_TELEMETRY_ENABLED
  // Flow-accounting property (DESIGN.md §5c): FaultyTransport charges
  // every injected delay to the FlowMonitor, which excludes it from the
  // link's active window — so a link that is slow ONLY because the
  // chaos plan slept on it must NOT be reported as a straggler.
  ec::RsCode code(6, 4);
  const uint64_t seed = seed_base();
  auto opts = chaos_options(seed);
  // Shaped net so the monitor has an expected per-stream rate to judge
  // stragglers against; generous round timeout so the injected delays
  // don't trip retries and muddy the link set.
  opts.net_bytes_per_sec = MBps(2);
  opts.round_timeout = std::chrono::milliseconds(5000);

  const auto scouted = scout_plan(opts, code, core::Scenario::kScattered);
  ASSERT_FALSE(scouted.rounds.empty());
  ASSERT_FALSE(scouted.rounds[0].reconstructions.empty());
  const auto victim = scouted.rounds[0].reconstructions[0].sources[0].node;

  // Every data packet the victim sends sleeps 100 ms — a massive
  // slowdown that, uncredited, would read as a fraction of the plan
  // rate and flag the link.
  opts.fault_plan = net::FaultPlan::parse(
      "seed " + std::to_string(seed) + "\nflaky node=" +
      std::to_string(victim) + " delay=1 delay_ms=100 max_delays=200\n");
  Testbed tb(opts, code);
  tb.flag_stf();
  const auto plan =
      tb.make_planner(core::Scenario::kScattered).plan_fastpr();

  const auto report = tb.execute(plan);
  expect_full_recovery(tb, plan, report);

  ASSERT_FALSE(report.repair.links.empty());
  bool saw_delayed_victim_link = false;
  for (const auto& l : report.repair.links) {
    if (l.injected_delay_us > 0) {
      // With the credit in place the victim's stream has near-zero
      // GENUINE active time (the sleeps pace it below the NIC rate),
      // so its EWMA stays 0 and it cannot be flagged. If the credit
      // ever regresses, the sleeps count as active time, the window
      // folds at a fraction of the plan rate, and this fires.
      EXPECT_FALSE(l.straggler)
          << "link " << l.src << "->" << l.dst
          << " slowed only by injected delay was flagged straggler";
      if (l.src == victim) saw_delayed_victim_link = true;
    }
  }
  // Non-vacuous: the victim's links really carry the injected-delay
  // attribution in the report.
  EXPECT_TRUE(saw_delayed_victim_link);
#else
  GTEST_SKIP() << "telemetry compiled out: no flow monitor";
#endif
}

TEST(Chaos, MultiStfMemberDeathDegradesOnlyItsChunks) {
  // Batch of two STF nodes repaired jointly (DESIGN.md §8); the FIRST
  // member dies 1.5 chunks into its migration traffic. Only its chunks
  // may convert to reactive fallback — the surviving member's repair
  // must finish predictively, with no global replan, and the per-member
  // breakdown must attribute the death correctly. Fresh seed window
  // (base + 50) so the schedule does not simply replay the single-STF
  // scenarios above.
  ec::RsCode code(6, 4);
  int executed = 0;
  for (int i = 0; i < kNumSeeds; ++i) {
    const uint64_t seed = seed_base() + 50 + static_cast<uint64_t>(i);
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto opts = chaos_options(seed);

    // Scout the joint plan: the crash threshold only trips if the dying
    // member ships at least two migration chunks.
    int victim_migrations = 0;
    {
      Testbed scout(opts, code);
      const auto batch = scout.flag_stf_batch(2);
      const auto plan =
          scout.make_planner(core::Scenario::kScattered).plan_fastpr();
      for (const auto& round : plan.rounds) {
        for (const auto& task : round.migrations) {
          victim_migrations += task.src == batch.front() ? 1 : 0;
        }
      }
    }
    if (victim_migrations < 2) continue;
    ++executed;

    // node=stf resolves to the first batch member at flag_stf_batch().
    opts.fault_plan =
        net::FaultPlan::parse("crash node=stf after_bytes=98304\n");
    Testbed tb(opts, code);
    const auto batch = tb.flag_stf_batch(2);
    const auto plan =
        tb.make_planner(core::Scenario::kScattered).plan_fastpr();

    const auto report = tb.execute(plan);
    expect_full_recovery(tb, plan, report);
    EXPECT_TRUE(report.degraded_to_reactive);
    EXPECT_GE(report.repair.degraded_at_round, 1);
    // One member's death never triggers the global replan hook in a
    // batch execution — the others' rounds keep running as planned.
    EXPECT_EQ(report.replans, 0);
    EXPECT_TRUE(contains_node(report.failed_nodes, batch[0]));
    EXPECT_FALSE(contains_node(report.failed_nodes, batch[1]));

    // per_stf follows plan order (ascending node id), which need not
    // match flag order (load-descending) — locate members by id.
    ASSERT_EQ(report.repair.per_stf.size(), 2u);
    const size_t dead_idx =
        report.repair.per_stf[0].stf == batch.front() ? 0 : 1;
    const auto& dead = report.repair.per_stf[dead_idx];
    const auto& survivor = report.repair.per_stf[1 - dead_idx];
    ASSERT_EQ(dead.stf, batch.front());
    EXPECT_GE(dead.died_at_round, 1);
    EXPECT_EQ(dead.unrepaired, 0);
    EXPECT_EQ(dead.migrated + dead.reconstructed, dead.planned);
    EXPECT_EQ(survivor.died_at_round, 0);
    EXPECT_EQ(survivor.unrepaired, 0);
    EXPECT_EQ(survivor.migrated + survivor.reconstructed, survivor.planned);
  }
  // The window must contain at least one seed whose plan migrates >= 2
  // chunks off the first member; otherwise the scenario tested nothing.
  EXPECT_GT(executed, 0);
}

TEST(Chaos, UnrepairableChunksAreEnumeratedExactly) {
  ec::RsCode code(6, 4);
  for (int i = 0; i < kNumSeeds; ++i) {
    const uint64_t seed = seed_base() + static_cast<uint64_t>(i);
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto opts = chaos_options(seed);

    // Target one stripe: its STF chunk loses the migration path (STF
    // read error) and two of its five helpers (read errors), leaving
    // 3 < k = 4 live helper chunks — provably unrepairable. Everything
    // else must still complete.
    cluster::ChunkRef doomed;
    cluster::NodeId h1 = cluster::kNoNode;
    cluster::NodeId h2 = cluster::kNoNode;
    {
      Testbed scout(opts, code);
      const auto stf = scout.flag_stf();
      doomed = scout.layout().chunks_on(stf)[0];
      for (const auto node : scout.layout().stripe_nodes(doomed.stripe)) {
        if (node == stf) continue;
        if (h1 == cluster::kNoNode) {
          h1 = node;
        } else if (h2 == cluster::kNoNode) {
          h2 = node;
        }
      }
    }
    const std::string stripe = std::to_string(doomed.stripe);
    opts.fault_plan = net::FaultPlan::parse(
        "read_error node=stf stripe=" + stripe + "\n" +
        "read_error node=" + std::to_string(h1) + " stripe=" + stripe +
        "\n" +
        "read_error node=" + std::to_string(h2) + " stripe=" + stripe +
        "\n");
    Testbed tb(opts, code);
    tb.flag_stf();
    const auto plan =
        tb.make_planner(core::Scenario::kScattered).plan_fastpr();

    const auto report = tb.execute(plan);
    EXPECT_FALSE(report.success);
    ASSERT_EQ(report.unrepaired.size(), 1u);
    EXPECT_EQ(report.unrepaired[0], doomed);
    // Accounting stays exact: completions ∪ unrepaired covers the plan,
    // and every completed chunk byte-verifies at its final destination.
    EXPECT_TRUE(tb.verify(report, plan));
    bool reported = false;
    for (const auto& err : report.errors) {
      reported |= err.find("unrepaired") != std::string::npos;
    }
    EXPECT_TRUE(reported);
  }
}

TEST(Chaos, SlowHelperStretchesTransfersButRepairCompletes) {
  // `slow` verb behavior (DESIGN.md §7): once the victim crosses its
  // byte threshold, every later data packet it sends really takes
  // factor× the nominal transmit time — and unlike flaky delays the
  // extra time is NOT credited as injected, because a genuinely slow
  // NIC is exactly the signal the adaptive throttler and the straggler
  // detector are supposed to see.
  ec::RsCode code(6, 4);
  const uint64_t seed = seed_base();
  auto opts = chaos_options(seed);
  // Generous round timeout: the stretched transfers must complete, not
  // trip retries (liveness under a crash is the other scenarios' job).
  opts.round_timeout = std::chrono::milliseconds(5000);

  const auto scouted = scout_plan(opts, code, core::Scenario::kScattered);
  ASSERT_FALSE(scouted.rounds.empty());
  ASSERT_FALSE(scouted.rounds[0].reconstructions.empty());
  const auto victim = scouted.rounds[0].reconstructions[0].sources[0].node;

  // Arm after one chunk of sends, then every data packet pays 8× the
  // nominal wire time (unthrottled testbed → 1 Gbps nominal, so a
  // 16 KiB packet sleeps ~0.9 ms extra — measurable, wall-clock safe).
  opts.fault_plan = net::FaultPlan::parse(
      "slow node=" + std::to_string(victim) +
      " factor=8 after_bytes=65536\n");
  Testbed tb(opts, code);
  tb.flag_stf();
  const auto plan =
      tb.make_planner(core::Scenario::kScattered).plan_fastpr();

#if FASTPR_TELEMETRY_ENABLED
  const int64_t slowed_before = telemetry::MetricsRegistry::global()
                                    .counter("net.fault.slowed")
                                    .value();
#endif
  const auto report = tb.execute(plan);
  expect_full_recovery(tb, plan, report);
  // A slow node is degraded, not dead: no retries, no failed nodes.
  EXPECT_FALSE(contains_node(report.failed_nodes, victim));
#if FASTPR_TELEMETRY_ENABLED
  EXPECT_GT(telemetry::MetricsRegistry::global()
                .counter("net.fault.slowed")
                .value(),
            slowed_before);
#endif
  // The slow time is deliberately uncredited: no link of the victim may
  // carry injected-delay attribution (that channel is flaky-only).
  for (const auto& l : report.repair.links) {
    if (l.src == victim) {
      EXPECT_EQ(l.injected_delay_us, 0);
    }
  }
}

TEST(Chaos, ForegroundSurvivesThrottledRepairUnderCompoundFaults) {
  // The tentpole robustness scenario: SLO-aware adaptive throttling,
  // live foreground traffic (with degraded reads off the STF node), a
  // flaky network AND a mid-repair helper crash — all at once. The
  // repair must still complete byte-verified, the foreground mix must
  // keep a recorded p99 through the fault window with zero decode
  // mismatches, and the lease machinery must have actually run.
  ec::RsCode code(6, 4);
  const uint64_t seed = seed_base() + 100;  // fresh schedule window
  auto opts = chaos_options(seed);
  // Mild shaping so foreground ops queue behind real buckets; small
  // data volume keeps the wall clock bounded.
  opts.disk_bytes_per_sec = MBps(200);
  opts.net_bytes_per_sec = MBps(100);
  opts.round_timeout = std::chrono::milliseconds(2000);

  const auto scouted = scout_plan(opts, code, core::Scenario::kScattered);
  ASSERT_FALSE(scouted.rounds.empty());
  ASSERT_FALSE(scouted.rounds[0].reconstructions.empty());
  const auto victim = scouted.rounds[0].reconstructions[0].sources[0].node;

  opts.fault_plan = net::FaultPlan::parse(
      "seed " + std::to_string(seed) + "\n" +
      "crash node=" + std::to_string(victim) +
      " after_packets=2\n"
      "flaky node=any drop=0.03 max_drops=3 delay=0.1 delay_ms=2 "
      "max_delays=40\n");
  core::ThrottlerOptions throttle;
  throttle.total_bytes_per_sec = MBps(40);
  throttle.slo_p99_seconds = 0.050;
  throttle.adaptive = true;
  opts.throttle = throttle;

  Testbed tb(opts, code);
  const auto stf = tb.flag_stf();
  const auto plan =
      tb.make_planner(core::Scenario::kScattered).plan_fastpr();

  load::WorkloadOptions wopts;
  wopts.ops_per_sec = 400;
  wopts.threads = 2;
  wopts.op_bytes = 16 * kKiB;
  wopts.seed = seed;
  wopts.verify_degraded = true;
  load::ForegroundWorkload fg(tb, code, wopts);
  fg.set_degraded(stf);
  tb.set_pressure_source(&fg);
  fg.start();
  const auto report = tb.execute(plan);
  fg.stop();

  expect_full_recovery(tb, plan, report);
  EXPECT_GT(report.retries, 0);
  EXPECT_TRUE(contains_node(report.failed_nodes, victim));

  // Foreground kept flowing through the fault window, its degraded
  // reads decoded byte-exactly, and its tail latency was recorded —
  // LatencyWindow works with telemetry compiled out too.
  const auto stats = fg.stats();
  EXPECT_GT(stats.reads + stats.degraded_reads + stats.writes, 0);
  EXPECT_GT(stats.degraded_reads, 0);
  EXPECT_EQ(stats.verify_failures, 0);
  EXPECT_GT(stats.p99_seconds, 0);

  // The lease machinery really ran under the faults.
  ASSERT_NE(tb.throttler(), nullptr);
  const auto tstats = tb.throttler()->stats();
  EXPECT_GT(tstats.leases_granted, 0);
  EXPECT_GT(tstats.budget_bytes_per_sec, 0);
}

TEST(Chaos, BandwidthDriftTriggersReplanAndStillVerifies) {
  // Mid-repair bandwidth replanning end to end (DESIGN.md §11): on a
  // 12x2-racked, bandwidth-shaped testbed the two most-loaded helper
  // nodes are slowed 96x from the first byte. The drift trigger
  // (FlowMonitor EWMA vs plan rate) must fire exactly once, the
  // replanned tail must still byte-verify, and the control run with
  // the trigger disabled must not replan. Unlike the rest of this
  // suite the scenario is bandwidth-SHAPED, not unthrottled — the
  // drift signal is measured/expected, so an expectation must exist —
  // and runs one pinned seed: two multi-second executions, not a
  // sweep (bench_topology carries the timing claim; this pins the
  // control flow). The 96x factor overcomes the 4 sender workers
  // whose overlapping sleeps dilute the slow verb ~4x.
  ec::RsCode code(9, 6);
  const auto make_options = [](bool replanning) {
    TestbedOptions opts;
    opts.num_storage = 24;
    opts.num_standby = 3;
    opts.disk_bytes_per_sec = MBps(142) / 4;
    opts.net_bytes_per_sec = Gbps(5) / 4;
    opts.chunk_bytes = 256 * kKiB;
    opts.packet_bytes = 128 * kKiB;
    opts.num_stripes = 80;
    opts.seed = 11;
    opts.round_timeout = std::chrono::minutes(10);
    opts.topology = net::Topology(12, 2, net::Oversub(2.0));
    if (replanning) {
      opts.bandwidth_replan.enabled = true;
      opts.bandwidth_replan.min_breach_rounds = 1;
      opts.bandwidth_replan.max_replans = 1;
    }
    return opts;
  };

  // Aim the slow verbs via a fault-free scout: the two most-loaded
  // non-STF nodes are the helpers nearly every round reads from.
  auto scout_opts = make_options(false);
  Testbed scout(scout_opts, code);
  const auto stf = scout.flag_stf();
  std::vector<cluster::NodeId> by_load;
  for (cluster::NodeId node = 0; node < scout_opts.num_storage; ++node) {
    if (node != stf) by_load.push_back(node);
  }
  std::stable_sort(by_load.begin(), by_load.end(),
                   [&](cluster::NodeId a, cluster::NodeId b) {
                     return scout.layout().load(a) > scout.layout().load(b);
                   });
  const std::vector<cluster::NodeId> slowed{by_load[0], by_load[1]};
  net::FaultPlan faults;
  faults.slow.push_back({slowed[0], 96.0, 0});
  faults.slow.push_back({slowed[1], 96.0, 0});

  const auto run = [&](bool replanning) {
    auto opts = make_options(replanning);
    opts.fault_plan = faults;
    Testbed tb(opts, code);
    tb.flag_stf();
    const auto plan =
        tb.make_planner(core::Scenario::kScattered).plan_fastpr();
    const auto report = tb.execute(plan);
    expect_full_recovery(tb, plan, report);
    // Slowness is not death: the probes must never declare the slowed
    // helpers failed.
    EXPECT_FALSE(contains_node(report.failed_nodes, slowed[0]));
    EXPECT_FALSE(contains_node(report.failed_nodes, slowed[1]));
    EXPECT_FALSE(report.degraded_to_reactive);
    return report;
  };

  const auto treated = run(/*replanning=*/true);
  const auto control = run(/*replanning=*/false);
#if FASTPR_TELEMETRY_ENABLED
  // The drift signal needs flow telemetry; with it compiled out both
  // arms run the original plan to completion (verified above).
  EXPECT_EQ(treated.bandwidth_replans, 1);
  EXPECT_EQ(control.bandwidth_replans, 0);
#ifdef FASTPR_SANITIZERS_ENABLED
  // Sanitizer compute inflation makes most links measure slow, so the
  // replan deprioritizes half the cluster and the plan-quality win
  // evaporates; both arms still ran byte-verified with the replan
  // counts pinned above. Only the timing claim is void (the release
  // gap is ~3x; bench_topology carries the asserted number).
  GTEST_SKIP() << "wall-clock comparison is meaningless under sanitizers "
               << "(treated=" << treated.repair.total_seconds
               << "s control=" << control.repair.total_seconds << "s)";
#else
  // The replanned tail routes around the slowed helpers while the
  // control keeps paying the 96x sleeps — ~3x apart in release.
  EXPECT_LT(treated.repair.total_seconds, control.repair.total_seconds);
#endif
#endif
}

}  // namespace
}  // namespace fastpr::agent
