// Batch planning (DESIGN.md §8): the sim-vs-cost-model differential
// sweep (every simulated round must hit round_time on its busiest
// migration stream exactly under the paper timing model), the forced-
// migration path, and a real-testbed batch execution whose round count
// matches the Algorithm-2 plan. A batch of one reproducing the paper's
// single-STF plan is pinned by tests/test_recon_golden.cpp.
//
// The differential sweep's seed window widens via
// FASTPR_PROPERTY_SEED_BASE/_COUNT (same knobs as test_properties, so
// nightly CI randomizes both together).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include "agent/testbed.h"
#include "cluster/cluster_state.h"
#include "cluster/stripe_layout.h"
#include "core/fastpr.h"
#include "core/repair_plan.h"
#include "ec/rs_code.h"
#include "sim/simulator.h"
#include "sim/strategies.h"
#include "util/rng.h"
#include "util/units.h"

namespace fastpr {
namespace {

using cluster::NodeId;

uint64_t env_u64(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

uint64_t seed_base() { return env_u64("FASTPR_PROPERTY_SEED_BASE", 1); }
int seed_count() {
  return static_cast<int>(env_u64("FASTPR_PROPERTY_SEED_COUNT", 4));
}

/// The `count` most-loaded nodes, most-loaded first, ties to lower id
/// (the pick Testbed::flag_stf_batch makes).
std::vector<NodeId> most_loaded(const cluster::StripeLayout& layout,
                                int count) {
  std::vector<NodeId> nodes;
  for (NodeId node = 0; node < layout.num_nodes(); ++node) {
    nodes.push_back(node);
  }
  std::stable_sort(nodes.begin(), nodes.end(),
                   [&layout](NodeId a, NodeId b) {
                     return layout.load(a) > layout.load(b);
                   });
  nodes.resize(static_cast<size_t>(count));
  return nodes;
}

/// Per-chunk repair times for a batch of STF nodes repaired together.
/// No paper baseline exists for batch > 1; `sequential` — each member
/// planned alone, plans executed back to back — is the in-repo
/// reference the joint planner must beat.
struct MultiStrategyTimes {
  double joint = 0;         // FastPrPlanner::plan_fastpr
  double sequential = 0;    // FastPrPlanner::plan_sequential
  double optimum = 0;       // Eq. (2) generalized, batch cost model
  int total_chunks = 0;     // U = union of all members' chunks
  int joint_rounds = 0;
  int sequential_rounds = 0;
};

/// Builds a random layout from `config.seed`, flags the `stf_batch`
/// most-loaded nodes as one STF batch, and simulates the joint plan
/// against the sequential baseline.
MultiStrategyTimes run_multi_experiment(const sim::ExperimentConfig& config,
                                        int stf_batch) {
  Rng rng(config.seed);
  const auto layout = cluster::StripeLayout::random(
      config.num_nodes, config.n, config.num_stripes, rng);
  cluster::ClusterState state(
      config.num_nodes, config.hot_standby,
      cluster::BandwidthProfile{config.disk_bw, config.net_bw});
  for (NodeId stf : most_loaded(layout, stf_batch)) {
    state.set_health(stf, cluster::NodeHealth::kSoonToFail);
  }

  core::PlannerOptions options;
  options.scenario = config.scenario;
  options.k_repair = config.k;
  options.chunk_bytes = config.chunk_bytes;
  core::FastPrPlanner planner(layout, state, options);

  sim::SimParams sp;
  sp.chunk_bytes = config.chunk_bytes;
  sp.disk_bw = config.disk_bw;
  sp.net_bw = config.net_bw;
  sp.k_repair = config.k;
  sp.hot_standby = config.hot_standby;
  sp.scenario = config.scenario;
  sp.model = config.model;

  MultiStrategyTimes out;
  for (NodeId stf : planner.batch()) {
    out.total_chunks += static_cast<int>(layout.chunks_on(stf).size());
  }
  const auto joint_plan = planner.plan_fastpr();
  out.joint = sim::simulate(joint_plan, sp).per_chunk();
  out.joint_rounds = static_cast<int>(joint_plan.rounds.size());
  const auto sequential_plan = planner.plan_sequential();
  out.sequential = sim::simulate(sequential_plan, sp).per_chunk();
  out.sequential_rounds = static_cast<int>(sequential_plan.rounds.size());
  out.optimum = planner.cost_model().predictive_time_per_chunk();
  return out;
}

TEST(MultiStfPlanner, BatchStarvedStripesFallBackToMigration) {
  // Stripe 0 lives on {0..5}; flagging {0,1,2} leaves it 3 < k' = 4
  // healthy helpers, so its three batch chunks cannot be reconstructed
  // and MUST ride the forced-migration path off their live disks.
  cluster::StripeLayout layout(/*num_nodes=*/12, /*chunks_per_stripe=*/6);
  layout.add_stripe({0, 1, 2, 3, 4, 5});
  layout.add_stripe({0, 6, 7, 8, 9, 10});
  layout.add_stripe({1, 6, 7, 8, 9, 11});
  layout.add_stripe({2, 5, 7, 8, 10, 11});
  layout.add_stripe({3, 4, 6, 8, 9, 10});
  cluster::ClusterState state(
      12, /*num_hot_standby=*/3,
      cluster::BandwidthProfile{MBps(100), Gbps(1)});
  for (NodeId member : {0, 1, 2}) {
    state.set_health(member, cluster::NodeHealth::kSoonToFail);
  }
  core::PlannerOptions options;
  options.k_repair = 4;
  options.chunk_bytes = static_cast<double>(MB(4));
  core::FastPrPlanner planner(layout, state, options);

  const auto plan = planner.plan_fastpr();
  core::validate_plan(plan, layout, state, options.k_repair);
  int stripe0_migrations = 0;
  int covered = 0;
  for (const auto& round : plan.rounds) {
    for (const auto& task : round.migrations) {
      stripe0_migrations += task.chunk.stripe == 0 ? 1 : 0;
      ++covered;
    }
    for (const auto& task : round.reconstructions) {
      EXPECT_NE(task.chunk.stripe, 0)
          << "stripe 0 lacks k' helpers; it cannot be reconstructed";
      ++covered;
    }
  }
  EXPECT_EQ(stripe0_migrations, 3);
  // Coverage: chunks on nodes 0, 1 and 2 across the five stripes.
  EXPECT_EQ(covered,
            layout.load(0) + layout.load(1) + layout.load(2));
}

TEST(MultiStfDifferential, SimRoundsMatchCostModelExactly) {
  // Under the paper timing model a simulated round is
  // CostModel::round_time(cr, busiest per-source migration count), so
  // the planner's own model must reproduce every round bit for bit, any
  // plan, any batch size.
  for (int s = 0; s < seed_count(); ++s) {
    const uint64_t seed = seed_base() + static_cast<uint64_t>(s);
    for (const auto& code : {std::pair<int, int>{6, 4},
                             std::pair<int, int>{9, 6}}) {
      for (int batch = 1; batch <= 3; ++batch) {
        for (auto scenario :
             {core::Scenario::kScattered, core::Scenario::kHotStandby}) {
          SCOPED_TRACE("seed=" + std::to_string(seed) + " n=" +
                       std::to_string(code.first) + " k=" +
                       std::to_string(code.second) + " batch=" +
                       std::to_string(batch) + " " +
                       core::to_string(scenario) +
                       " (override with FASTPR_PROPERTY_SEED_BASE)");
          Rng rng(seed);
          const auto layout = cluster::StripeLayout::random(
              /*num_nodes=*/30, code.first, /*num_stripes=*/120, rng);
          cluster::ClusterState state(
              30, /*num_hot_standby=*/3,
              cluster::BandwidthProfile{MBps(100), Gbps(1)});
          for (NodeId member : most_loaded(layout, batch)) {
            state.set_health(member, cluster::NodeHealth::kSoonToFail);
          }
          core::PlannerOptions options;
          options.scenario = scenario;
          options.k_repair = code.second;
          options.chunk_bytes = static_cast<double>(MB(64));
          core::FastPrPlanner planner(layout, state, options);
          const auto plan = planner.plan_fastpr();
          const auto model = planner.cost_model();

          sim::SimParams sp;
          sp.chunk_bytes = options.chunk_bytes;
          sp.disk_bw = MBps(100);
          sp.net_bw = Gbps(1);
          sp.k_repair = code.second;
          sp.hot_standby = 3;
          sp.scenario = scenario;
          const auto result = sim::simulate(plan, sp);
          ASSERT_EQ(result.round_times.size(), plan.rounds.size());
          for (size_t r = 0; r < plan.rounds.size(); ++r) {
            std::unordered_map<NodeId, int> per_src;
            int busiest = 0;
            for (const auto& task : plan.rounds[r].migrations) {
              busiest = std::max(busiest, ++per_src[task.src]);
            }
            const int cr =
                static_cast<int>(plan.rounds[r].reconstructions.size());
            const double expected =
                model.round_time(cr, busiest, core::RepairStrategy::kFanIn);
            EXPECT_EQ(result.round_times[r], expected) << "round " << r;
          }
        }
      }
    }
  }
}

TEST(MultiStfDifferential, JointBeatsSequentialAndRespectsOptimum) {
  // No paper baseline exists for batch > 1; the sequential composition
  // of single-STF plans is the in-repo reference the joint planner must
  // not lose to, and Eq. (2) generalized stays a lower bound.
  for (int s = 0; s < seed_count(); ++s) {
    const uint64_t seed = seed_base() + static_cast<uint64_t>(s);
    for (int batch = 1; batch <= 3; ++batch) {
      for (auto scenario :
           {core::Scenario::kScattered, core::Scenario::kHotStandby}) {
        SCOPED_TRACE("seed=" + std::to_string(seed) + " batch=" +
                     std::to_string(batch) + " " +
                     core::to_string(scenario) +
                     " (override with FASTPR_PROPERTY_SEED_BASE)");
        sim::ExperimentConfig cfg;
        cfg.num_nodes = 40;
        cfg.num_stripes = 300;
        cfg.n = 9;
        cfg.k = 6;
        cfg.chunk_bytes = static_cast<double>(MB(64));
        cfg.disk_bw = MBps(100);
        cfg.net_bw = Gbps(1);
        cfg.hot_standby = 3;
        cfg.scenario = scenario;
        cfg.seed = seed;
        const auto t = run_multi_experiment(cfg, batch);
        EXPECT_GT(t.total_chunks, 0);
        EXPECT_GT(t.joint_rounds, 0);
        EXPECT_LE(t.optimum, t.joint * 1.001);
        EXPECT_LE(t.joint, t.sequential * 1.001);
        if (batch > 1) {
          EXPECT_LE(t.joint_rounds, t.sequential_rounds);
        }
      }
    }
  }
}

TEST(MultiStfTestbed, ExecutedRoundsMatchAlgorithmTwoPlan) {
  agent::TestbedOptions opts;
  opts.num_storage = 12;
  opts.num_standby = 2;
  opts.disk_bytes_per_sec = 0;  // unthrottled: structure, not timing
  opts.net_bytes_per_sec = 0;
  opts.chunk_bytes = 64 * kKiB;
  opts.packet_bytes = 16 * kKiB;
  opts.num_stripes = 20;
  opts.seed = 5;
  ec::RsCode code(6, 4);
  agent::Testbed tb(opts, code);
  const auto batch = tb.flag_stf_batch(2);
  ASSERT_EQ(batch.size(), 2u);

  auto planner = tb.make_planner(core::Scenario::kScattered);
  const auto plan = planner.plan_fastpr();
  ASSERT_GT(plan.rounds.size(), 0u);
  // Plan order is ascending node id; flag order is load-descending.
  auto sorted_batch = batch;
  std::sort(sorted_batch.begin(), sorted_batch.end());
  ASSERT_EQ(plan.stf_nodes, sorted_batch);

  const auto report = tb.execute(plan);
  EXPECT_TRUE(report.success)
      << (report.errors.empty() ? "" : report.errors.front());
  // Satellite check: the testbed executes exactly the Algorithm-2
  // round structure, one barrier per planned round.
  EXPECT_EQ(report.repair.rounds.size(), plan.rounds.size());
  EXPECT_TRUE(tb.verify(plan));
  EXPECT_TRUE(tb.verify(report, plan));

  // Per-member progress: one entry per batch member, plan order, sums
  // consistent, nobody died, nothing unrepaired.
  ASSERT_EQ(report.repair.per_stf.size(), 2u);
  int planned_total = 0;
  for (size_t i = 0; i < report.repair.per_stf.size(); ++i) {
    const auto& p = report.repair.per_stf[i];
    EXPECT_EQ(p.stf, sorted_batch[i]);
    EXPECT_EQ(p.planned, tb.layout().load(sorted_batch[i]));
    EXPECT_EQ(p.migrated + p.reconstructed, p.planned);
    EXPECT_EQ(p.unrepaired, 0);
    EXPECT_EQ(p.died_at_round, 0);
    planned_total += p.planned;
  }
  EXPECT_EQ(planned_total, report.repaired());
}

}  // namespace
}  // namespace fastpr
