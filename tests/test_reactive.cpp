// Reactive multi-failure repair (FastPrPlanner::plan_reactive): coverage,
// survivor-only sourcing, degraded LRC paths, unrecoverable detection,
// and destination distinctness across rounds.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "core/fastpr.h"
#include "ec/lrc_code.h"
#include "ec/rs_code.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/units.h"

namespace fastpr::core {
namespace {

using cluster::ClusterState;
using cluster::NodeId;
using cluster::StripeLayout;

struct World {
  StripeLayout layout;
  ClusterState state;
};

World make_world(int nodes, int n, int stripes, uint64_t seed) {
  Rng rng(seed);
  return World{StripeLayout::random(nodes, n, stripes, rng),
               ClusterState(nodes, 2,
                            cluster::BandwidthProfile{MBps(100), Gbps(1)})};
}

PlannerOptions rs_options(int k) {
  PlannerOptions opts;
  opts.k_repair = k;
  opts.chunk_bytes = static_cast<double>(MB(64));
  return opts;
}

/// The lost nodes form the batch; plan_reactive treats it as dead.
void fail_nodes(World& w, const std::vector<NodeId>& failed) {
  for (NodeId n : failed) {
    w.state.set_health(n, cluster::NodeHealth::kSoonToFail);
  }
}

ReactiveResult plan_reactive(const StripeLayout& layout,
                             const ClusterState& state,
                             const PlannerOptions& options) {
  FastPrPlanner planner(layout, state, options);
  return planner.plan_reactive({}, {});
}

/// Checks a reactive plan: every recoverable lost chunk (on the
/// `failed` nodes) repaired exactly once from surviving nodes, no node
/// reading twice in a round, and — as in validate_plan — no destination
/// receiving two repaired chunks of one stripe anywhere in the plan.
/// Throws CheckFailure on a violation.
void validate_reactive_plan(const ReactiveResult& result,
                            const StripeLayout& layout,
                            const ClusterState& cluster,
                            const std::vector<NodeId>& failed) {
  using cluster::ChunkRef;
  const std::unordered_set<NodeId> failed_set(failed.begin(), failed.end());

  std::unordered_set<ChunkRef, cluster::ChunkRefHash> expected;
  for (NodeId node : failed) {
    for (ChunkRef c : layout.chunks_on(node)) expected.insert(c);
  }
  for (ChunkRef c : result.unrepairable) {
    FASTPR_CHECK_MSG(expected.erase(c) == 1,
                     "unrepairable chunk was not actually lost");
  }

  std::unordered_set<ChunkRef, cluster::ChunkRefHash> seen;
  std::unordered_map<cluster::StripeId, std::unordered_set<NodeId>> landed;
  for (const auto& round : result.plan.rounds) {
    FASTPR_CHECK_MSG(round.migrations.empty(),
                     "reactive repair cannot migrate from dead nodes");
    std::unordered_set<NodeId> round_sources;
    std::unordered_set<NodeId> round_dests;
    for (const auto& task : round.reconstructions) {
      FASTPR_CHECK_MSG(failed_set.count(layout.node_of(task.chunk)) == 1,
                       "repaired chunk was not lost");
      FASTPR_CHECK_MSG(seen.insert(task.chunk).second,
                       "chunk repaired twice");
      FASTPR_CHECK(!task.sources.empty());
      for (const auto& src : task.sources) {
        FASTPR_CHECK_MSG(failed_set.count(src.node) == 0,
                         "helper read from a failed node");
        FASTPR_CHECK(cluster.health(src.node) ==
                     cluster::NodeHealth::kHealthy);
        FASTPR_CHECK(src.chunk.stripe == task.chunk.stripe);
        FASTPR_CHECK(src.chunk.index != task.chunk.index);
        FASTPR_CHECK(layout.node_of(src.chunk) == src.node);
        FASTPR_CHECK_MSG(round_sources.insert(src.node).second,
                         "node reads twice in one round");
      }
      FASTPR_CHECK(task.dst != cluster::kNoNode);
      FASTPR_CHECK(failed_set.count(task.dst) == 0);
      FASTPR_CHECK_MSG(landed[task.chunk.stripe].insert(task.dst).second,
                       "two repaired chunks of stripe "
                           << task.chunk.stripe << " land on node "
                           << task.dst);
      if (!cluster.is_hot_standby(task.dst)) {
        FASTPR_CHECK_MSG(
            !layout.stripe_uses_node(task.chunk.stripe, task.dst),
            "destination breaks stripe distinctness");
        FASTPR_CHECK_MSG(round_dests.insert(task.dst).second,
                         "scattered destination reused in round");
      }
    }
  }
  FASTPR_CHECK_MSG(seen.size() == expected.size(),
                   "plan repairs " << seen.size() << " of "
                                   << expected.size()
                                   << " recoverable chunks");
}

/// Stripes with two repaired chunks on one destination (§IV-A).
int colocated_stripes(const RepairPlan& plan) {
  std::map<cluster::StripeId, std::set<NodeId>> landed;
  std::set<cluster::StripeId> colocated;
  for (const auto& round : plan.rounds) {
    for (const auto& task : round.reconstructions) {
      if (!landed[task.chunk.stripe].insert(task.dst).second) {
        colocated.insert(task.chunk.stripe);
      }
    }
  }
  return static_cast<int>(colocated.size());
}

TEST(ReactivePlanner, SingleFailureFullCover) {
  auto w = make_world(30, 9, 300, 1);
  fail_nodes(w, {4});
  const auto result = plan_reactive(w.layout, w.state, rs_options(6));
  EXPECT_TRUE(result.unrepairable.empty());
  EXPECT_EQ(result.plan.total_migrated(), 0);
  EXPECT_EQ(result.plan.total_reconstructed(), w.layout.load(4));
  validate_reactive_plan(result, w.layout, w.state, {4});
}

TEST(ReactivePlanner, DoubleFailureSharedStripes) {
  auto w = make_world(25, 9, 300, 2);
  fail_nodes(w, {1, 2});
  const auto result = plan_reactive(w.layout, w.state, rs_options(6));
  // RS(9,6) tolerates 3 losses: everything is recoverable.
  EXPECT_TRUE(result.unrepairable.empty());
  EXPECT_EQ(result.plan.total_reconstructed(),
            w.layout.load(1) + w.layout.load(2));
  validate_reactive_plan(result, w.layout, w.state, {1, 2});
}

TEST(ReactivePlanner, DoubleFailureKeepsStripeDestinationsDistinct) {
  // A stripe that lost chunks on both nodes is repaired in two rounds;
  // §IV-A forbids its two rebuilt chunks from landing on one node, which
  // only a cross-round record of earlier destinations can prevent.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    for (auto scenario : {Scenario::kScattered, Scenario::kHotStandby}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " " +
                   to_string(scenario));
      auto w = make_world(25, 9, 300, seed);
      fail_nodes(w, {1, 2});
      PlannerOptions opts = rs_options(6);
      opts.scenario = scenario;
      const auto result = plan_reactive(w.layout, w.state, opts);
      EXPECT_EQ(colocated_stripes(result.plan), 0);
      validate_reactive_plan(result, w.layout, w.state, {1, 2});
    }
  }
}

TEST(ReactivePlanner, BeyondToleranceReportsUnrecoverable) {
  // n=3, k=2 tolerates one loss; kill two nodes that share stripes.
  StripeLayout layout(6, 3);
  layout.add_stripe({0, 1, 2});  // loses 2 chunks → unrecoverable
  layout.add_stripe({0, 3, 4});  // loses 1 → recoverable
  layout.add_stripe({3, 4, 5});  // untouched
  ClusterState state(6, 0, cluster::BandwidthProfile{MBps(100), Gbps(1)});
  state.set_health(0, cluster::NodeHealth::kSoonToFail);
  state.set_health(1, cluster::NodeHealth::kSoonToFail);

  const auto result = plan_reactive(layout, state, rs_options(2));
  EXPECT_EQ(result.unrepairable.size(), 2u);  // both chunks of stripe 0
  for (const auto& c : result.unrepairable) EXPECT_EQ(c.stripe, 0);
  EXPECT_EQ(result.plan.total_reconstructed(), 1);
  validate_reactive_plan(result, layout, state, {0, 1});
}

TEST(ReactivePlanner, LrcDegradedGroupUsesGlobalParity) {
  // LRC(4,2,2): losing a data chunk AND its local parity forces the
  // degraded path through the global parities.
  ec::LrcCode code(4, 2, 2);  // n = 8
  StripeLayout layout(10, 8);
  layout.add_stripe({0, 2, 3, 4, 1, 5, 6, 7});  // index 0 on node0,
                                                // local parity (idx 4) on node1
  ClusterState state(10, 0, cluster::BandwidthProfile{MBps(100), Gbps(1)});
  state.set_health(0, cluster::NodeHealth::kSoonToFail);
  state.set_health(1, cluster::NodeHealth::kSoonToFail);

  PlannerOptions opts;
  opts.k_repair = 2;
  opts.chunk_bytes = static_cast<double>(MB(64));
  opts.code = &code;
  const auto result = plan_reactive(layout, state, opts);
  EXPECT_TRUE(result.unrepairable.empty());
  EXPECT_EQ(result.plan.total_reconstructed(), 2);
  EXPECT_GE(result.degraded_repairs, 1);
  validate_reactive_plan(result, layout, state, {0, 1});
}

TEST(ReactivePlanner, HotStandbyDestinations) {
  auto w = make_world(20, 6, 150, 3);
  fail_nodes(w, {7});
  PlannerOptions opts = rs_options(4);
  opts.scenario = Scenario::kHotStandby;
  const auto result = plan_reactive(w.layout, w.state, opts);
  validate_reactive_plan(result, w.layout, w.state, {7});
  for (const auto& round : result.plan.rounds) {
    for (const auto& task : round.reconstructions) {
      EXPECT_TRUE(w.state.is_hot_standby(task.dst));
    }
  }
}

TEST(ReactivePlanner, SimulatedTimeMatchesReconstructionOnly) {
  // A reactive plan for node X equals a predictive reconstruction-only
  // plan in simulated cost (same rounds structure, same traffic).
  auto w = make_world(40, 9, 400, 4);
  const NodeId victim = 11;

  sim::SimParams sp;
  sp.chunk_bytes = static_cast<double>(MB(64));
  sp.disk_bw = MBps(100);
  sp.net_bw = Gbps(1);
  sp.k_repair = 6;

  // Reactive.
  auto w1 = w;
  fail_nodes(w1, {victim});
  const auto r = plan_reactive(w1.layout, w1.state, rs_options(6));
  const auto reactive_time = sim::simulate(r.plan, sp);

  // Predictive reconstruction-only on the same layout.
  auto w2 = w;
  w2.state.set_health(victim, cluster::NodeHealth::kSoonToFail);
  PlannerOptions popts;
  popts.k_repair = 6;
  popts.chunk_bytes = sp.chunk_bytes;
  FastPrPlanner predictive(w2.layout, w2.state, popts);
  const auto p_time =
      sim::simulate(predictive.plan_reconstruction_only(), sp);

  EXPECT_EQ(reactive_time.repair_traffic_chunks,
            p_time.repair_traffic_chunks);
  EXPECT_NEAR(reactive_time.total_time, p_time.total_time,
              p_time.total_time * 0.25);
}

}  // namespace
}  // namespace fastpr::core
