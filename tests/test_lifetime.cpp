// Lifetime simulation: accounting sanity and the headline property —
// accurate prediction slashes the window of vulnerability.
#include "lifetime/lifetime_sim.h"

#include <gtest/gtest.h>

#include "ec/rs_code.h"
#include "util/check.h"
#include "util/units.h"

namespace fastpr::lifetime {
namespace {

LifetimeConfig base_config() {
  LifetimeConfig cfg;
  cfg.num_nodes = 40;
  cfg.code = std::make_shared<const ec::RsCode>(9, 6);
  cfg.num_stripes = 200;
  cfg.chunk_bytes = static_cast<double>(MB(64));
  cfg.disk_bw = MBps(100);
  cfg.net_bw = Gbps(1);
  cfg.sim_days = 365;
  cfg.node_mtbf_days = 600;  // ~24 failures/year on 40 nodes
  cfg.seed = 11;
  return cfg;
}

TEST(LifetimeSim, ReactiveBaselineAccounting) {
  auto cfg = base_config();
  cfg.predictive_enabled = false;
  const auto report = simulate_lifetime(cfg);
  EXPECT_GT(report.failures, 5);
  EXPECT_EQ(report.predicted, 0);
  EXPECT_EQ(report.false_alarms, 0);
  EXPECT_EQ(report.completed_in_time, 0);
  // Every failure has a full reactive window.
  EXPECT_GT(report.vulnerability_seconds, 0);
  EXPECT_EQ(report.repair_seconds.count(),
            static_cast<size_t>(report.failures));
}

TEST(LifetimeSim, PerfectPredictionEliminatesVulnerability) {
  auto cfg = base_config();
  cfg.prediction_recall = 1.0;
  cfg.false_alarms_per_year = 0;
  cfg.lead_days_min = 5.0;  // days of lead vs minutes of repair
  cfg.lead_days_max = 10.0;
  const auto report = simulate_lifetime(cfg);
  EXPECT_EQ(report.predicted, report.failures);
  EXPECT_EQ(report.completed_in_time, report.failures);
  EXPECT_DOUBLE_EQ(report.vulnerability_seconds, 0.0);
  EXPECT_EQ(report.data_loss_stripes, 0);
}

TEST(LifetimeSim, RecallMonotonicallyReducesVulnerability) {
  auto cfg = base_config();
  cfg.false_alarms_per_year = 0;
  double prev = -1;
  for (double recall : {0.0, 0.5, 1.0}) {
    cfg.prediction_recall = recall;
    const auto report = simulate_lifetime(cfg);
    if (prev >= 0) {
      EXPECT_LE(report.vulnerability_seconds, prev * 1.001)
          << "recall " << recall;
    }
    prev = report.vulnerability_seconds;
  }
  EXPECT_DOUBLE_EQ(prev, 0.0);
}

TEST(LifetimeSim, FalseAlarmsAreRepairedButNotFailures) {
  auto cfg = base_config();
  cfg.node_mtbf_days = 1e9;  // no real failures
  cfg.false_alarms_per_year = 24;
  const auto report = simulate_lifetime(cfg);
  EXPECT_EQ(report.failures, 0);
  EXPECT_GT(report.false_alarms, 5);
  EXPECT_GT(report.repair_traffic_chunks, 0);
  EXPECT_DOUBLE_EQ(report.vulnerability_seconds, 0.0);
}

TEST(LifetimeSim, PredictiveTrafficIsLowerThanReactive) {
  // FastPR migrates part of every repair → less traffic than the pure
  // reconstruction of the reactive baseline (for comparable failures).
  auto cfg = base_config();
  cfg.false_alarms_per_year = 0;
  cfg.prediction_recall = 1.0;
  const auto predictive = simulate_lifetime(cfg);
  cfg.predictive_enabled = false;
  const auto reactive = simulate_lifetime(cfg);
  ASSERT_GT(predictive.failures, 0);
  ASSERT_GT(reactive.failures, 0);
  const double per_failure_pred =
      static_cast<double>(predictive.repair_traffic_chunks) /
      predictive.failures;
  const double per_failure_react =
      static_cast<double>(reactive.repair_traffic_chunks) /
      reactive.failures;
  EXPECT_LT(per_failure_pred, per_failure_react);
}

TEST(LifetimeSim, DeterministicPerSeed) {
  const auto a = simulate_lifetime(base_config());
  const auto b = simulate_lifetime(base_config());
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_DOUBLE_EQ(a.vulnerability_seconds, b.vulnerability_seconds);
  EXPECT_EQ(a.repair_traffic_chunks, b.repair_traffic_chunks);
}

TEST(LifetimeSim, RejectsHotStandby) {
  auto cfg = base_config();
  cfg.scenario = core::Scenario::kHotStandby;
  EXPECT_THROW(simulate_lifetime(cfg), CheckFailure);
}

}  // namespace
}  // namespace fastpr::lifetime
