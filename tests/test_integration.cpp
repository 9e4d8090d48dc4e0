// End-to-end: SMART prediction flags the STF node → FastPR plans →
// simulation/testbed repair → rebalance — the full predictive-repair
// lifecycle the paper describes.
#include <gtest/gtest.h>

#include "agent/testbed.h"
#include "cluster/rebalancer.h"
#include "core/fastpr.h"
#include "ec/rs_code.h"
#include "predict/predictor.h"
#include "predict/trace_generator.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/units.h"

namespace fastpr {
namespace {

TEST(Integration, PredictPlanSimulateRebalance) {
  const int num_nodes = 40;
  Rng rng(2026);

  // 1. One disk per node; exactly one disk is degrading.
  predict::TraceConfig tcfg;
  tcfg.num_disks = num_nodes;
  tcfg.failure_fraction = 1.0 / num_nodes;
  tcfg.silent_failure_fraction = 0.0;
  const auto traces = predict::generate_traces(tcfg, rng);
  double failure_day = 0;
  int failing = -1;
  for (const auto& t : traces) {
    if (t.will_fail) {
      failing = t.disk_id;
      failure_day = t.failure_day;
    }
  }
  ASSERT_NE(failing, -1);

  // 2. The predictor flags it before the failure.
  const predict::LogisticPredictor predictor;
  const int stf = predict::select_stf_disk(predictor, traces,
                                           failure_day - 2.0);
  ASSERT_EQ(stf, failing);

  // 3. Plan and simulate the predictive repair.
  auto layout = cluster::StripeLayout::random(num_nodes, 9, 300, rng);
  cluster::ClusterState state(
      num_nodes, 3, cluster::BandwidthProfile{MBps(100), Gbps(1)});
  state.set_health(stf, cluster::NodeHealth::kSoonToFail);

  core::PlannerOptions popts;
  popts.scenario = core::Scenario::kScattered;
  popts.k_repair = 6;
  popts.chunk_bytes = static_cast<double>(MB(64));
  core::FastPrPlanner planner(layout, state, popts);
  const auto plan = planner.plan_fastpr();
  core::validate_plan(plan, layout, state, 6);

  sim::SimParams sparams;
  sparams.chunk_bytes = popts.chunk_bytes;
  sparams.disk_bw = MBps(100);
  sparams.net_bw = Gbps(1);
  sparams.k_repair = 6;
  sparams.scenario = core::Scenario::kScattered;
  const auto fastpr_time = sim::simulate(plan, sparams);
  const auto reactive_time =
      sim::simulate(planner.plan_reconstruction_only(), sparams);
  EXPECT_LE(fastpr_time.total_time, reactive_time.total_time * 1.001);

  // 4. Apply the plan, retire the node, rebalance the survivors.
  for (const auto& round : plan.rounds) {
    for (const auto& t : round.migrations) {
      layout.move_chunk(t.chunk, t.dst);
    }
    for (const auto& t : round.reconstructions) {
      layout.move_chunk(t.chunk, t.dst);
    }
  }
  EXPECT_EQ(layout.load(stf), 0);
  state.set_health(stf, cluster::NodeHealth::kFailed);

  const auto survivors = state.healthy_storage_nodes();
  cluster::rebalance(layout, survivors);
  layout.check_invariants();
  // The retired node must not have been given load back.
  EXPECT_EQ(layout.load(stf), 0);
}

TEST(Integration, TestbedFastPrBeatsMigrationOnlyWallClock) {
  // Shaped testbed: FastPR's wall-clock repair should beat
  // migration-only (the STF uplink bottleneck is real here).
  // EC2-like regime (paper §VI-B): network much faster than disk, so
  // reconstruction's parallel reads beat the STF node's serial disk.
  ec::RsCode code(6, 4);
  agent::TestbedOptions opts;
  opts.num_storage = 20;
  opts.num_standby = 2;
  opts.disk_bytes_per_sec = MBps(40);
  opts.net_bytes_per_sec = MBps(400);
  opts.chunk_bytes = 2 * kMiB;
  opts.packet_bytes = 256 * kKiB;
  opts.num_stripes = 60;
  opts.seed = 9;

  double fastpr_secs = 0, migration_secs = 0;
  {
    agent::Testbed tb(opts, code);
    tb.flag_stf();
    auto planner = tb.make_planner(core::Scenario::kScattered);
    const auto plan = planner.plan_fastpr();
    const auto report = tb.execute(plan);
    ASSERT_TRUE(report.success);
    ASSERT_TRUE(report.success && tb.verify(report, plan));
    fastpr_secs = report.repair.total_seconds;
  }
  {
    agent::Testbed tb(opts, code);
    tb.flag_stf();
    auto planner = tb.make_planner(core::Scenario::kScattered);
    const auto plan = planner.plan_migration_only();
    const auto report = tb.execute(plan);
    ASSERT_TRUE(report.success);
    migration_secs = report.repair.total_seconds;
  }
#ifdef FASTPR_SANITIZERS_ENABLED
  // Sanitizer overhead scales with thread count, so FastPR's parallel
  // pipeline slows far more than the serial migration path and the
  // wall-clock ordering inverts. Both repairs above still ran (and were
  // verified) for sanitizer coverage; only the timing claim is void.
  GTEST_SKIP() << "wall-clock comparison is meaningless under sanitizers "
               << "(fastpr=" << fastpr_secs << "s migration="
               << migration_secs << "s)";
#else
  EXPECT_LT(fastpr_secs, migration_secs);
#endif
}

TEST(Integration, FalseAlarmStillRepairsSafely) {
  // §II-B assumption 2: even a false-alarm STF node is proactively
  // repaired. The repair must complete and preserve integrity although
  // the node never actually fails.
  ec::RsCode code(6, 4);
  agent::TestbedOptions opts;
  opts.num_storage = 12;
  opts.num_standby = 2;
  opts.chunk_bytes = 64 * kKiB;
  opts.packet_bytes = 16 * kKiB;
  opts.num_stripes = 25;
  opts.seed = 10;
  agent::Testbed tb(opts, code);
  tb.flag_stf();  // "false alarm": we never kill it
  auto planner = tb.make_planner(core::Scenario::kScattered);
  const auto plan = planner.plan_fastpr();
  const auto report = tb.execute(plan);
  EXPECT_TRUE(report.success);
  EXPECT_TRUE(report.success && tb.verify(report, plan));
}

}  // namespace
}  // namespace fastpr
