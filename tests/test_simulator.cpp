// Simulator: paper-model round times match §III arithmetic; strategy
// ordering invariants (optimum <= FastPR <= baselines) hold end to end.
#include "sim/simulator.h"
#include "sim/strategies.h"

#include <gtest/gtest.h>

#include "cluster/cluster_state.h"
#include "cluster/stripe_layout.h"
#include "core/fastpr.h"
#include "ec/lrc_code.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/units.h"

namespace fastpr::sim {
namespace {

using cluster::ChunkRef;

SimParams paper_params(core::Scenario scenario) {
  SimParams p;
  p.chunk_bytes = static_cast<double>(MB(64));
  p.disk_bw = MBps(100);
  p.net_bw = Gbps(1);
  p.k_repair = 6;
  p.hot_standby = 3;
  p.scenario = scenario;
  return p;
}

core::RepairRound round_with(int reconstructions, int migrations) {
  core::RepairRound round;
  for (int i = 0; i < reconstructions; ++i) {
    core::ReconstructionTask t;
    t.chunk = ChunkRef{i, 0};
    for (int s = 0; s < 6; ++s) {
      t.sources.push_back(core::SourceRead{10 + i * 6 + s, {i, s + 1}});
    }
    t.dst = 100 + i;
    round.reconstructions.push_back(std::move(t));
  }
  for (int i = 0; i < migrations; ++i) {
    round.migrations.push_back(
        core::MigrationTask{ChunkRef{50 + i, 0}, 0, 200 + i});
  }
  return round;
}

TEST(Simulator, MigrationOnlyRoundTimeIsCountTimesTm) {
  const auto p = paper_params(core::Scenario::kScattered);
  core::RepairPlan plan;
  plan.stf_nodes = {0};
  plan.rounds.push_back(round_with(0, 7));
  const auto result = simulate(plan, p);
  const double tm = 0.64 + 64.0 * (1 << 20) / (1e9 / 8) + 0.64;
  EXPECT_NEAR(result.total_time, 7 * tm, 1e-9);
  EXPECT_EQ(result.migrated, 7);
  EXPECT_EQ(result.repair_traffic_chunks, 7);
}

TEST(Simulator, ScatteredReconstructionRoundTimeIsTr) {
  const auto p = paper_params(core::Scenario::kScattered);
  core::RepairPlan plan;
  plan.stf_nodes = {0};
  plan.rounds.push_back(round_with(5, 0));
  const auto result = simulate(plan, p);
  const double c_bn = 64.0 * (1 << 20) / (1e9 / 8);
  EXPECT_NEAR(result.total_time, 0.64 + 6 * c_bn + 0.64, 1e-9);
  EXPECT_EQ(result.repair_traffic_chunks, 30);  // 5 chunks × k=6
}

TEST(Simulator, CoupledRoundTakesMaxOfStreams) {
  const auto p = paper_params(core::Scenario::kScattered);
  core::RepairPlan plan;
  plan.stf_nodes = {0};
  plan.rounds.push_back(round_with(3, 10));  // migration dominates
  const auto result = simulate(plan, p);
  const double tm = 0.64 + 64.0 * (1 << 20) / (1e9 / 8) + 0.64;
  EXPECT_NEAR(result.total_time, 10 * tm, 1e-9);
}

TEST(Simulator, HotStandbyRoundScalesWithGroupSize) {
  const auto p = paper_params(core::Scenario::kHotStandby);
  core::RepairPlan plan;
  plan.stf_nodes = {0};
  plan.rounds.push_back(round_with(9, 0));
  const auto result = simulate(plan, p);
  const double c_bn = 64.0 * (1 << 20) / (1e9 / 8);
  const double expected = 0.64 + 9.0 * 6 * c_bn / 3 + 9.0 * 0.64 / 3;
  EXPECT_NEAR(result.total_time, expected, 1e-9);
}

TEST(Simulator, RoundTimesAccumulate) {
  const auto p = paper_params(core::Scenario::kScattered);
  core::RepairPlan plan;
  plan.stf_nodes = {0};
  plan.rounds.push_back(round_with(2, 0));
  plan.rounds.push_back(round_with(0, 3));
  const auto result = simulate(plan, p);
  ASSERT_EQ(result.round_times.size(), 2u);
  EXPECT_NEAR(result.total_time,
              result.round_times[0] + result.round_times[1], 1e-12);
}

TEST(Simulator, ChainRoundTimesMatchCostModelExactly) {
  // A paper-model round is CostModel::round_time on the same parameters,
  // so simulated chain rounds equal the model's predictions bit for bit
  // and predicted-vs-simulated diffs stay clean.
  for (auto scenario :
       {core::Scenario::kScattered, core::Scenario::kHotStandby}) {
    auto p = paper_params(scenario);
    p.packet_bytes = static_cast<double>(256 * kKiB);
    p.chain_hop_overhead_seconds = 500e-6;
    const core::CostModel model(p);

    core::RepairPlan plan;
    plan.stf_nodes = {0};
    const std::vector<std::pair<int, int>> rounds = {
        {5, 0}, {3, 4}, {1, 9}};
    for (const auto& [cr, cm] : rounds) {
      auto round = round_with(cr, cm);
      round.strategy = core::RepairStrategy::kChain;
      plan.rounds.push_back(std::move(round));
    }
    const auto result = simulate(plan, p);
    ASSERT_EQ(result.round_times.size(), rounds.size());
    for (size_t i = 0; i < rounds.size(); ++i) {
      EXPECT_EQ(result.round_times[i],
                model.round_time(rounds[i].first, rounds[i].second,
                                 core::RepairStrategy::kChain))
          << "scenario=" << core::to_string(scenario) << " round=" << i;
    }
  }
}

TEST(Simulator, TrafficCountsEachTasksHelperReads) {
  // LRC(12,2,2) rebuilds a data or local parity chunk from k' = 6
  // helpers, but a global parity from all 12 data chunks. Traffic is one
  // chunk per migration plus each reconstruction's own helper reads, so
  // the global-parity repairs count in full.
  const ec::LrcCode code(12, /*l=*/2, /*g=*/2);
  Rng rng(5);
  const auto layout = cluster::StripeLayout::random(40, code.n(), 200, rng);
  cluster::ClusterState state(
      40, 3, cluster::BandwidthProfile{MBps(100), Gbps(1)});
  cluster::NodeId stf = 0;
  for (cluster::NodeId n = 1; n < 40; ++n) {
    if (layout.load(n) > layout.load(stf)) stf = n;
  }
  state.set_health(stf, cluster::NodeHealth::kSoonToFail);
  core::PlannerOptions options;
  options.k_repair = code.repair_fetch_count(0);
  options.chunk_bytes = static_cast<double>(MB(64));
  options.code = &code;
  core::FastPrPlanner planner(layout, state, options);

  auto p = paper_params(core::Scenario::kScattered);
  p.k_repair = options.k_repair;
  int global_rebuilds = 0;
  for (const auto& plan :
       {planner.plan_fastpr(), planner.plan_reconstruction_only()}) {
    long expected = 0;
    for (const auto& round : plan.rounds) {
      expected += static_cast<long>(round.migrations.size());
      for (const auto& task : round.reconstructions) {
        expected += static_cast<long>(task.sources.size());
        if (code.group_of(task.chunk.index) < 0) {
          ++global_rebuilds;
          EXPECT_EQ(task.sources.size(), 12u);
        }
      }
    }
    EXPECT_EQ(simulate(plan, p).repair_traffic_chunks, expected);
  }
  // Reconstruction-only rebuilds every global parity on the STF node.
  EXPECT_GT(global_rebuilds, 0);
}

TEST(Simulator, ChainRoundRequiresPacketBytes) {
  auto p = paper_params(core::Scenario::kScattered);  // packet_bytes = 0
  core::RepairPlan plan;
  plan.stf_nodes = {0};
  auto round = round_with(2, 0);
  round.strategy = core::RepairStrategy::kChain;
  plan.rounds.push_back(std::move(round));
  EXPECT_THROW(simulate(plan, p), CheckFailure);
}

TEST(Simulator, ResourceModelNotSlowerThanPaperForMigrations) {
  // The resource model overlaps migration stages across chunks, so it
  // can only be faster than the serial per-chunk paper model.
  auto p = paper_params(core::Scenario::kScattered);
  core::RepairPlan plan;
  plan.stf_nodes = {0};
  plan.rounds.push_back(round_with(0, 8));
  const auto paper = simulate(plan, p);
  p.model = TimingModel::kResourceModel;
  const auto resource = simulate(plan, p);
  EXPECT_LE(resource.total_time, paper.total_time * (1 + 1e-9));
  EXPECT_GT(resource.total_time, 0);
}

class StrategyOrderingTest
    : public ::testing::TestWithParam<core::Scenario> {};

TEST_P(StrategyOrderingTest, OptimumBelowFastPrBelowBaselines) {
  ExperimentConfig cfg;
  cfg.num_nodes = 60;
  cfg.num_stripes = 400;
  cfg.n = 9;
  cfg.k = 6;
  cfg.chunk_bytes = static_cast<double>(MB(64));
  cfg.disk_bw = MBps(100);
  cfg.net_bw = Gbps(1);
  cfg.hot_standby = 3;
  cfg.scenario = GetParam();
  cfg.seed = 5;
  const auto t = run_experiment(cfg);
  EXPECT_GT(t.stf_chunks, 0);
  EXPECT_LE(t.optimum, t.fastpr * 1.001);
  EXPECT_LE(t.fastpr, t.reconstruction_only * 1.001);
  EXPECT_LE(t.fastpr, t.migration_only * 1.001);
}

INSTANTIATE_TEST_SUITE_P(Scenarios, StrategyOrderingTest,
                         ::testing::Values(core::Scenario::kScattered,
                                           core::Scenario::kHotStandby),
                         [](const auto& info) {
                           return info.param == core::Scenario::kScattered
                                      ? "scattered"
                                      : "hotstandby";
                         });

TEST(Strategies, AveragingIsDeterministicPerSeed) {
  ExperimentConfig cfg;
  cfg.num_nodes = 30;
  cfg.num_stripes = 150;
  cfg.n = 6;
  cfg.k = 4;
  cfg.chunk_bytes = static_cast<double>(MB(16));
  cfg.disk_bw = MBps(100);
  cfg.net_bw = Gbps(1);
  cfg.seed = 77;
  const auto a = run_averaged(cfg, 3);
  const auto b = run_averaged(cfg, 3);
  EXPECT_DOUBLE_EQ(a.fastpr, b.fastpr);
  EXPECT_DOUBLE_EQ(a.optimum, b.optimum);
}

TEST(Simulator, RepairBwFractionEqualsScaledNetBw) {
  // simulate() folds the throttle fraction into net_bw once at entry,
  // so a throttled run must be bit-identical to an unthrottled run at
  // the scaled bandwidth — under BOTH timing models.
  core::RepairPlan plan;
  plan.stf_nodes = {0};
  plan.rounds.push_back(round_with(5, 3));
  plan.rounds.push_back(round_with(2, 6));
  for (const auto model :
       {TimingModel::kPaperModel, TimingModel::kResourceModel}) {
    auto throttled = paper_params(core::Scenario::kScattered);
    throttled.model = model;
    throttled.repair_bw_fraction = 0.2;
    auto scaled = throttled;
    scaled.repair_bw_fraction = 1.0;
    scaled.net_bw = throttled.net_bw * 0.2;
    const auto a = simulate(plan, throttled);
    const auto b = simulate(plan, scaled);
    EXPECT_DOUBLE_EQ(a.total_time, b.total_time);
    ASSERT_EQ(a.round_times.size(), b.round_times.size());
    for (size_t r = 0; r < a.round_times.size(); ++r) {
      EXPECT_DOUBLE_EQ(a.round_times[r], b.round_times[r]);
    }
    EXPECT_EQ(a.migrated, b.migrated);
    // And throttling really costs time versus the unthrottled run.
    auto full = paper_params(core::Scenario::kScattered);
    full.model = model;
    EXPECT_GT(a.total_time, simulate(plan, full).total_time);
  }
}

TEST(Simulator, RejectsBadRepairBwFraction) {
  core::RepairPlan plan;
  plan.stf_nodes = {0};
  plan.rounds.push_back(round_with(1, 1));
  auto p = paper_params(core::Scenario::kScattered);
  p.repair_bw_fraction = 0;
  EXPECT_THROW(simulate(plan, p), CheckFailure);
  p.repair_bw_fraction = 2.0;
  EXPECT_THROW(simulate(plan, p), CheckFailure);
}

}  // namespace
}  // namespace fastpr::sim
