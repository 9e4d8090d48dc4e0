// Planner facade: all three strategies produce structurally valid plans
// in both scenarios across random clusters (validate_plan enforces the
// §IV invariants), plus FastPR-specific shape checks.
#include "core/fastpr.h"

#include <gtest/gtest.h>

#include "core/repair_plan.h"
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
  NodeId stf;
};

World make_world(int nodes, int n, int stripes, Scenario scenario,
                 uint64_t seed, int standby = 3) {
  Rng rng(seed);
  World w{StripeLayout::random(nodes, n, stripes, rng),
          ClusterState(nodes, standby,
                       cluster::BandwidthProfile{MBps(100), Gbps(1)}),
          0};
  (void)scenario;
  for (NodeId node = 1; node < nodes; ++node) {
    if (w.layout.load(node) > w.layout.load(w.stf)) w.stf = node;
  }
  w.state.set_health(w.stf, cluster::NodeHealth::kSoonToFail);
  return w;
}

PlannerOptions options_for(Scenario scenario, int k) {
  PlannerOptions opts;
  opts.scenario = scenario;
  opts.k_repair = k;
  opts.chunk_bytes = static_cast<double>(MB(64));
  return opts;
}

struct PlanParam {
  Scenario scenario;
  int nodes;
  int n;
  int k;
  uint64_t seed;
};

class PlannerValidityTest : public ::testing::TestWithParam<PlanParam> {};

TEST_P(PlannerValidityTest, AllStrategiesValid) {
  const auto p = GetParam();
  auto w = make_world(p.nodes, p.n, 300, p.scenario, p.seed);
  FastPrPlanner planner(w.layout, w.state, options_for(p.scenario, p.k));

  const auto fastpr = planner.plan_fastpr();
  validate_plan(fastpr, w.layout, w.state, p.k);

  const auto recon = planner.plan_reconstruction_only();
  validate_plan(recon, w.layout, w.state, p.k);
  EXPECT_EQ(recon.total_migrated(), 0);

  const auto migr = planner.plan_migration_only();
  validate_plan(migr, w.layout, w.state, p.k);
  EXPECT_EQ(migr.total_reconstructed(), 0);

  const int u = static_cast<int>(w.layout.chunks_on(w.stf).size());
  EXPECT_EQ(fastpr.total_repaired(), u);
  EXPECT_EQ(recon.total_repaired(), u);
  EXPECT_EQ(migr.total_repaired(), u);
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, PlannerValidityTest,
    ::testing::Values(
        PlanParam{Scenario::kScattered, 40, 9, 6, 1},
        PlanParam{Scenario::kScattered, 100, 9, 6, 2},
        PlanParam{Scenario::kScattered, 30, 16, 12, 3},
        PlanParam{Scenario::kScattered, 25, 5, 3, 4},
        PlanParam{Scenario::kHotStandby, 40, 9, 6, 5},
        PlanParam{Scenario::kHotStandby, 100, 14, 10, 6},
        PlanParam{Scenario::kHotStandby, 25, 5, 3, 7}),
    [](const auto& info) {
      return std::string(info.param.scenario == Scenario::kScattered
                             ? "scattered"
                             : "hotstandby") +
             "_M" + std::to_string(info.param.nodes) + "_n" +
             std::to_string(info.param.n) + "_k" +
             std::to_string(info.param.k);
    });

TEST(FastPrPlanner, CouplesBothMethods) {
  auto w = make_world(50, 9, 400, Scenario::kScattered, 11);
  FastPrPlanner planner(w.layout, w.state,
                        options_for(Scenario::kScattered, 6));
  const auto plan = planner.plan_fastpr();
  EXPECT_GT(plan.total_migrated(), 0);
  EXPECT_GT(plan.total_reconstructed(), 0);
}

TEST(FastPrPlanner, FewerRoundsThanReconstructionOnly) {
  auto w = make_world(60, 9, 500, Scenario::kScattered, 12);
  FastPrPlanner planner(w.layout, w.state,
                        options_for(Scenario::kScattered, 6));
  const auto fastpr = planner.plan_fastpr();
  const auto recon = planner.plan_reconstruction_only();
  EXPECT_LT(fastpr.rounds.size(), recon.rounds.size());
}

TEST(FastPrPlanner, RequiresStfFlag) {
  Rng rng(13);
  auto layout = StripeLayout::random(20, 5, 50, rng);
  ClusterState state(20, 3, cluster::BandwidthProfile{MBps(100), Gbps(1)});
  EXPECT_THROW(
      FastPrPlanner(layout, state, options_for(Scenario::kScattered, 3)),
      CheckFailure);
}

TEST(FastPrPlanner, HotStandbyRequiresSpares) {
  auto w = make_world(20, 5, 50, Scenario::kHotStandby, 14, /*standby=*/0);
  EXPECT_THROW(FastPrPlanner(w.layout, w.state,
                             options_for(Scenario::kHotStandby, 3)),
               CheckFailure);
}

TEST(FastPrPlanner, TinyClusterRejectedForScattered) {
  // M == n: no destination can take a repaired chunk without
  // co-locating.
  Rng rng(15);
  auto layout = StripeLayout::random(5, 5, 20, rng);
  ClusterState state(5, 0, cluster::BandwidthProfile{MBps(100), Gbps(1)});
  state.set_health(0, cluster::NodeHealth::kSoonToFail);
  FastPrPlanner planner(layout, state, options_for(Scenario::kScattered, 3));
  EXPECT_THROW(planner.plan_fastpr(), CheckFailure);
}

TEST(FastPrPlanner, ReconStatsPopulated) {
  auto w = make_world(40, 9, 300, Scenario::kScattered, 16);
  FastPrPlanner planner(w.layout, w.state,
                        options_for(Scenario::kScattered, 6));
  (void)planner.plan_fastpr();
  const ReconSetStats full = planner.recon_stats();
  EXPECT_GT(full.match_calls, 0);
  EXPECT_GT(full.pruned, 0);
  EXPECT_LE(full.pruned, full.match_calls);

  // A replan with nothing handled and no straggler repeats the same
  // search over the same chunks, and publishes its counters too.
  FastPrPlanner replanner(w.layout, w.state,
                          options_for(Scenario::kScattered, 6));
  (void)replanner.plan_fastpr_remaining({}, {});
  EXPECT_EQ(replanner.recon_stats().match_calls, full.match_calls);
  EXPECT_EQ(replanner.recon_stats().pruned, full.pruned);
  EXPECT_EQ(replanner.recon_stats().swaps, full.swaps);
}

TEST(FastPrPlanner, CostModelReflectsCluster) {
  auto w = make_world(40, 9, 300, Scenario::kScattered, 17);
  FastPrPlanner planner(w.layout, w.state,
                        options_for(Scenario::kScattered, 6));
  const auto model = planner.cost_model();
  EXPECT_EQ(model.params().num_nodes, 40);
  EXPECT_EQ(model.params().stf_chunks,
            static_cast<int>(w.layout.chunks_on(w.stf).size()));
}

TEST(FastPrPlanner, PlanAppliesCleanlyToLayout) {
  // Applying every task's move keeps the layout invariants intact and
  // empties the STF node (scattered case).
  auto w = make_world(40, 9, 300, Scenario::kScattered, 18);
  FastPrPlanner planner(w.layout, w.state,
                        options_for(Scenario::kScattered, 6));
  const auto plan = planner.plan_fastpr();
  for (const auto& round : plan.rounds) {
    for (const auto& t : round.migrations) {
      w.layout.move_chunk(t.chunk, t.dst);
    }
    for (const auto& t : round.reconstructions) {
      w.layout.move_chunk(t.chunk, t.dst);
    }
  }
  w.layout.check_invariants();
  EXPECT_EQ(w.layout.load(w.stf), 0);
}

}  // namespace
}  // namespace fastpr::core
