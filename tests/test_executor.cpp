// The work-conserving executor (DESIGN.md §7): migrations pulled forward
// across the round barrier keep the STF disk busy, a dead member stops
// pulling, and every chunk the coordinator moves off its planned
// destination keeps §IV-A placement.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "agent/coordinator.h"
#include "agent/testbed.h"
#include "core/repair_plan.h"
#include "ec/rs_code.h"
#include "executed_rounds.h"
#include "net/fault_plan.h"
#include "net/topology.h"
#include "util/units.h"

namespace fastpr::agent {
namespace {

using cluster::ChunkRef;
using cluster::NodeId;

/// The paper's shaped testbed (repair benchmark scale: disk 35.5 MB/s,
/// NIC 1.25 Gb/s, 21 storage nodes + 3 spares, RS(9,6)) at `stripes`
/// stripes: a migration takes about half a round of reconstructions.
TestbedOptions shaped_options(uint64_t seed, uint64_t chunk_bytes,
                              int stripes) {
  TestbedOptions opts;
  opts.num_storage = 21;
  opts.num_standby = 3;
  opts.disk_bytes_per_sec = MBps(142) / 4;
  opts.net_bytes_per_sec = Gbps(5) / 4;
  opts.chunk_bytes = chunk_bytes;
  opts.packet_bytes = 256 * kKiB;
  opts.num_stripes = stripes;
  opts.seed = seed;
  opts.round_timeout = std::chrono::minutes(10);
  return opts;
}

/// Started ahead of its planned round, i.e. pulled forward.
bool pulled(const CompletedRepair& done) {
  return done.executed_round < done.planned_round;
}

/// Every chunk of `stf` except those `plan` migrates in its first round
/// fails to read, so the member's first later migration — a pulled one
/// while reconstructions run — fails.
void break_reads_after_round_one(Testbed& tb, const core::RepairPlan& plan,
                                 NodeId stf) {
  std::set<ChunkRef> first;
  for (const auto& mig : plan.rounds.front().migrations) first.insert(mig.chunk);
  for (ChunkRef chunk : tb.layout().chunks_on(stf)) {
    if (first.count(chunk) == 0) tb.store(stf).inject_read_error(chunk);
  }
}

TEST(Executor, FastPrPullsMigrationsAndDropsRounds) {
  // The repair benchmark's loaded evacuation at its smoke size. Round
  // quotas of ⌊tr/tm⌋ = 1 leave the STF disk idle half of every round;
  // the executor fills that time with the next migration, then with
  // chunks the last rounds would reconstruct, so rounds disappear.
  ec::RsCode code(9, 6);
  Testbed tb(shaped_options(1, static_cast<uint64_t>(MB(4)), 30), code);
  tb.flag_stf();
  const auto plan =
      tb.make_planner(core::Scenario::kScattered).plan_fastpr();
  const auto report = tb.execute(plan);
  ASSERT_TRUE(report.success && tb.verify(report, plan))
      << (report.errors.empty() ? "" : report.errors.front());
  EXPECT_GT(report.migrated, plan.total_migrated());
  EXPECT_LT(report.repair.rounds.size(), plan.rounds.size());
  fastpr::test_rounds::expect_rounds_within_plan(report, plan);

  double util = 0;
  for (const auto& round : report.repair.rounds) {
    util += round.stf_bw_utilization;
  }
  util /= static_cast<double>(report.repair.rounds.size());
#ifdef FASTPR_SANITIZERS_ENABLED
  GTEST_SKIP() << "STF disk utilization is a timing claim (measured "
               << util << ")";
#else
  EXPECT_GE(util, 0.85);
#endif
}

TEST(Executor, ReconstructionOnlyPlanNeverMigrates) {
  // Only members the plan migrates from pull: the reconstruction-only
  // baseline of Figs 11–14 stays reconstruction-only.
  ec::RsCode code(9, 6);
  Testbed tb(shaped_options(2, 1 * kMiB, 30), code);
  tb.flag_stf();
  const auto plan = tb.make_planner(core::Scenario::kScattered)
                        .plan_reconstruction_only();
  const auto report = tb.execute(plan);
  ASSERT_TRUE(report.success && tb.verify(report, plan));
  EXPECT_EQ(report.migrated, 0);
  fastpr::test_rounds::expect_rounds_as_planned(report, plan);
}

TEST(Executor, StfDeathTurnsPulledMigrationIntoFallback) {
  // The STF's first pulled migration fails to read and trips the
  // failure threshold: that migration becomes a fallback reconstruction
  // through rebuild_task, the reactive replan counts it as handled
  // whether or not it has finished, and no chunk completes twice. The
  // replan's planning is not repair time: a hook that takes 0.3 s adds
  // none of it to total_seconds.
  ec::RsCode code(9, 6);
  auto opts = shaped_options(3, 1 * kMiB, 40);
  Testbed tb(opts, code);
  const NodeId stf = tb.flag_stf();
  const auto plan =
      tb.make_planner(core::Scenario::kScattered).plan_fastpr();
  ASSERT_GE(plan.rounds.size(), 3u);
  ASSERT_FALSE(plan.rounds.front().migrations.empty());
  break_reads_after_round_one(tb, plan, stf);

  // A coordinator of our own on the testbed's wires, to see the replan
  // request the testbed's hook would get.
  CoordinatorOptions copts;
  copts.chunk_bytes = opts.chunk_bytes;
  copts.packet_bytes = opts.packet_bytes;
  copts.round_timeout = opts.round_timeout;
  copts.stf_failure_threshold = 1;
  for (NodeId node = 0; node < tb.coordinator_id(); ++node) {
    copts.dest_candidates.push_back(node);
  }
  Coordinator coordinator(tb.coordinator_id(), tb.transport(), code,
                          tb.layout(), copts);
  std::vector<ReplanRequest> requests;
  constexpr double kPlanningSeconds = 0.3;
  const auto start = std::chrono::steady_clock::now();
  const auto report =
      coordinator.execute(plan, [&](const ReplanRequest& request) {
        requests.push_back(request);
        std::this_thread::sleep_for(
            std::chrono::duration<double>(kPlanningSeconds));
        return tb.make_planner(core::Scenario::kScattered)
            .plan_reactive(request.handled, request.failed_nodes);
      });
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();

  ASSERT_TRUE(report.success && tb.verify(report, plan))
      << (report.errors.empty() ? "" : report.errors.front());
  EXPECT_TRUE(report.degraded_to_reactive);
  ASSERT_EQ(requests.size(), 1u);
  // Rounds run one after another inside execute(), so its wall time
  // exceeds their summed durations by at least the planning time (less
  // a millisecond of slack for rounding).
  EXPECT_GE(wall - report.repair.total_seconds, kPlanningSeconds - 1e-3);
  std::vector<CompletedRepair> pulled_fallbacks;
  std::map<ChunkRef, int> completions;
  for (const auto& done : report.completions) {
    ++completions[done.chunk];
    if (pulled(done)) {
      EXPECT_FALSE(done.migrated) << "the dead STF served a pulled read";
      pulled_fallbacks.push_back(done);
    }
  }
  for (const auto& [chunk, count] : completions) EXPECT_EQ(count, 1);
  // One pull failed; a dead member pulls no more.
  ASSERT_EQ(pulled_fallbacks.size(), 1u)
      << "the STF's first later migration was not pulled forward";
  const auto& handled = requests.front().handled;
  EXPECT_NE(std::find(handled.begin(), handled.end(),
                      pulled_fallbacks.front().chunk),
            handled.end());
  EXPECT_GE(report.fallback_reconstructions, 1);
}

TEST(Executor, BatchSurvivorKeepsPullingAfterMemberDies) {
  // Both members of a batch pull while they live. Once the first dies
  // on its first pulled read, only the survivor pulls.
  ec::RsCode code(9, 6);
  auto opts = shaped_options(4, 1 * kMiB, 60);
  opts.stf_failure_threshold = 1;
  Testbed tb(opts, code);
  tb.flag_stf_batch(2);
  const auto plan =
      tb.make_planner(core::Scenario::kScattered).plan_fastpr();
  ASSERT_EQ(plan.stf_nodes.size(), 2u);
  const NodeId doomed = plan.stf_nodes[0];
  const NodeId survivor = plan.stf_nodes[1];
  for (NodeId member : plan.stf_nodes) {
    int migrations = 0;
    for (const auto& round : plan.rounds) {
      for (const auto& mig : round.migrations) migrations += mig.src == member;
    }
    ASSERT_GT(migrations, 0) << "member " << member << " never migrates";
  }
  break_reads_after_round_one(tb, plan, doomed);

  const auto report = tb.execute(plan);
  ASSERT_TRUE(report.success && tb.verify(report, plan))
      << (report.errors.empty() ? "" : report.errors.front());
  ASSERT_EQ(report.repair.per_stf.size(), 2u);
  const int died = report.repair.per_stf[0].died_at_round;
  EXPECT_GT(died, 0);
  EXPECT_EQ(report.repair.per_stf[1].died_at_round, 0);

  int doomed_pulls = 0;
  int survivor_pulls_after_death = 0;
  for (const auto& done : report.completions) {
    if (!pulled(done)) continue;
    const NodeId owner = tb.layout().node_of(done.chunk);
    if (owner == doomed) {
      ++doomed_pulls;
      EXPECT_FALSE(done.migrated);
    } else {
      EXPECT_EQ(owner, survivor);
      survivor_pulls_after_death += done.migrated && done.executed_round >= died;
    }
  }
  EXPECT_EQ(doomed_pulls, 1);
  EXPECT_GT(survivor_pulls_after_death, 0);
}

/// The §IV-A checks of the executed placement, stated on the layout and
/// the topology alone: no destination holds a chunk of its stripe or a
/// second repaired one, and with `topology` no rack ends up with two.
void expect_executed_placement(Testbed& tb, const ExecutionReport& report,
                               const std::vector<NodeId>& batch,
                               const net::Topology* topology) {
  const auto& layout = tb.layout();
  std::map<cluster::StripeId, std::vector<NodeId>> landed;
  for (const auto& done : report.completions) {
    const auto stripe = done.chunk.stripe;
    EXPECT_FALSE(layout.stripe_uses_node(stripe, done.dst))
        << "chunk of stripe " << stripe << " on node " << done.dst;
    for (NodeId other : landed[stripe]) {
      EXPECT_NE(other, done.dst) << "stripe " << stripe;
      if (topology != nullptr) {
        EXPECT_NE(topology->rack_of(other), topology->rack_of(done.dst))
            << "stripe " << stripe;
      }
    }
    landed[stripe].push_back(done.dst);
    if (topology == nullptr) continue;
    for (NodeId holder : layout.stripe_nodes(stripe)) {
      if (std::find(batch.begin(), batch.end(), holder) != batch.end()) {
        continue;
      }
      EXPECT_NE(topology->rack_of(holder), topology->rack_of(done.dst))
          << "chunk of stripe " << stripe << " on node " << done.dst
          << " shares a rack with node " << holder;
    }
  }
}

TEST(Executor, RetargetedChunkAvoidsRacksHoldingItsStripe) {
  // 12 racks of two nodes, no spares: a retried chunk's replacement
  // destination must sit in a rack that holds no surviving chunk of its
  // stripe, not just on a node that holds none.
  ec::RsCode code(6, 4);
  TestbedOptions opts;
  opts.num_storage = 24;
  opts.num_standby = 0;
  opts.chunk_bytes = 64 * kKiB;
  opts.packet_bytes = 16 * kKiB;
  opts.num_stripes = 40;
  opts.seed = 21;
  opts.round_timeout = std::chrono::milliseconds(500);
  opts.probe_timeout = std::chrono::milliseconds(200);
  opts.topology = net::Topology(12, 2, net::Oversub(2.0));
  opts.fault_plan = net::FaultPlan{};
  Testbed tb(opts, code);
  tb.flag_stf();
  const auto plan = tb.make_planner(core::Scenario::kScattered)
                        .plan_reconstruction_only();
  // Its chunk moves off the crashed node through the chooser.
  tb.faulty()->crash(plan.rounds.front().reconstructions.front().dst);

  const auto report = tb.execute(plan);
  ASSERT_TRUE(report.success && tb.verify(report, plan))
      << (report.errors.empty() ? "" : report.errors.front());
  EXPECT_GT(report.retries, 0);
  expect_executed_placement(tb, report, plan.stf_nodes, tb.topology());
}

TEST(Executor, RetargetedBatchChunkAvoidsSiblingDestination) {
  // A batch of two on a small cluster: a stripe that loses chunks on
  // both members has few nodes left for them, and a chunk moved off a
  // crashed destination must not land where its sibling went or is
  // planned to go.
  ec::RsCode code(9, 6);
  TestbedOptions opts;
  opts.num_storage = 12;
  opts.num_standby = 0;
  opts.chunk_bytes = 64 * kKiB;
  opts.packet_bytes = 16 * kKiB;
  opts.num_stripes = 12;
  opts.seed = 1;
  opts.round_timeout = std::chrono::milliseconds(500);
  opts.probe_timeout = std::chrono::milliseconds(200);
  opts.fault_plan = net::FaultPlan{};
  Testbed tb(opts, code);
  tb.flag_stf_batch(2);
  const auto plan =
      tb.make_planner(core::Scenario::kScattered).plan_fastpr();
  // Crash the first-round destination of a stripe both members hold.
  const auto shared = [&](cluster::StripeId stripe) {
    return tb.layout().stripe_uses_node(stripe, plan.stf_nodes[0]) &&
           tb.layout().stripe_uses_node(stripe, plan.stf_nodes[1]);
  };
  NodeId victim = cluster::kNoNode;
  for (const auto& t : plan.rounds.front().reconstructions) {
    if (victim == cluster::kNoNode && shared(t.chunk.stripe)) victim = t.dst;
  }
  for (const auto& t : plan.rounds.front().migrations) {
    if (victim == cluster::kNoNode && shared(t.chunk.stripe)) victim = t.dst;
  }
  ASSERT_NE(victim, cluster::kNoNode);
  tb.faulty()->crash(victim);

  const auto report = tb.execute(plan);
  ASSERT_TRUE(report.success && tb.verify(report, plan))
      << (report.errors.empty() ? "" : report.errors.front());
  EXPECT_GT(report.retries, 0);
  expect_executed_placement(tb, report, plan.stf_nodes, nullptr);
}

}  // namespace
}  // namespace fastpr::agent
