// §III analysis: Equations (4)-(6) values, optimality of Eq. (2), and
// the paper's headline reduction numbers.
#include "core/cost_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/units.h"

namespace fastpr::core {
namespace {

ModelParams paper_defaults() {
  // §III defaults: M=100, U=1000, c=64MB, bd=100MB/s, bn=1Gb/s, RS(9,6).
  ModelParams p;
  p.num_nodes = 100;
  p.stf_chunks = 1000;
  p.chunk_bytes = static_cast<double>(MB(64));
  p.disk_bw = MBps(100);
  p.net_bw = Gbps(1);
  p.k_repair = 6;
  p.hot_standby = 3;
  p.scenario = Scenario::kScattered;
  return p;
}

TEST(CostModel, Equation4Migration) {
  const CostModel m(paper_defaults());
  // tm = c/bd + c/bn + c/bd = 0.64 + 0.512 + 0.64 s.
  EXPECT_NEAR(m.tm(), 0.64 + 64.0 * (1 << 20) / (1e9 / 8) + 0.64, 1e-9);
}

TEST(CostModel, Equation5ScatteredReconstruction) {
  const CostModel m(paper_defaults());
  const double c_over_bn = 64.0 * (1 << 20) / (1e9 / 8);
  EXPECT_NEAR(m.tr(10), 0.64 + 6 * c_over_bn + 0.64, 1e-9);
  // Scattered tr is independent of the round size g.
  EXPECT_DOUBLE_EQ(m.tr(1), m.tr(16));
}

TEST(CostModel, Equation6HotStandbyReconstruction) {
  auto p = paper_defaults();
  p.scenario = Scenario::kHotStandby;
  const CostModel m(p);
  const double c_over_bn = 64.0 * (1 << 20) / (1e9 / 8);
  const double g = 12.0;
  EXPECT_NEAR(m.tr(g), 0.64 + g * 6 * c_over_bn / 3 + g * 0.64 / 3, 1e-9);
  // Hot-standby tr grows with g — the spares are the funnel.
  EXPECT_GT(m.tr(16), m.tr(4));
}

TEST(CostModel, Equation1MaxOfStreams) {
  const CostModel m(paper_defaults());
  const double g = m.max_parallel_groups();
  EXPECT_DOUBLE_EQ(m.total_time(0, g), m.reactive_time());
  EXPECT_DOUBLE_EQ(m.total_time(1000, g), 1000 * m.tm());
}

TEST(CostModel, Equation2IsMinimumOfEquation1) {
  // T(x*) = TP and T(x) >= TP for sampled x — the closed form is the
  // true optimum of the max() curve.
  for (auto scenario : {Scenario::kScattered, Scenario::kHotStandby}) {
    auto p = paper_defaults();
    p.scenario = scenario;
    const CostModel m(p);
    const double g = m.max_parallel_groups();
    const double tp = m.predictive_time();
    const double x_star = m.optimal_migration_chunks();
    EXPECT_NEAR(m.total_time(x_star, g), tp, tp * 1e-9);
    for (double x = 0; x <= 1000; x += 25) {
      EXPECT_GE(m.total_time(x, g), tp * (1 - 1e-12)) << "x=" << x;
    }
  }
}

TEST(CostModel, PredictiveNeverWorseThanReactiveOrMigration) {
  for (int k : {2, 4, 6, 10, 12}) {
    for (int nodes : {20, 50, 100, 200}) {
      auto p = paper_defaults();
      p.k_repair = k;
      p.num_nodes = nodes;
      const CostModel m(p);
      EXPECT_LE(m.predictive_time(), m.reactive_time() * (1 + 1e-12));
      EXPECT_LE(m.predictive_time(),
                m.migration_only_time() * (1 + 1e-12));
    }
  }
}

TEST(CostModel, PaperHeadline33PercentAtRs16_12) {
  // §III: "reduces the repair time ... by 33.1% in RS(16,12)".
  auto p = paper_defaults();
  p.k_repair = 12;
  const CostModel m(p);
  const double reduction =
      1.0 - m.predictive_time() / m.reactive_time();
  EXPECT_NEAR(reduction, 0.331, 0.02);
}

TEST(CostModel, PaperHeadline41PercentHotStandbyH3) {
  // §III: "when h = 3, predictive repair reduces the repair time by
  // 41.3%".
  auto p = paper_defaults();
  p.scenario = Scenario::kHotStandby;
  p.hot_standby = 3;
  const CostModel m(p);
  const double reduction =
      1.0 - m.predictive_time() / m.reactive_time();
  EXPECT_NEAR(reduction, 0.413, 0.02);
}

TEST(CostModel, GainGrowsWhenReactiveHurts) {
  // Fig. 2 trends: the predictive gain grows with larger k, smaller M,
  // larger bd, smaller bn.
  auto base = paper_defaults();
  const auto gain = [](const ModelParams& p) {
    const CostModel m(p);
    return 1.0 - m.predictive_time() / m.reactive_time();
  };
  auto p = base;
  p.k_repair = 12;
  EXPECT_GT(gain(p), gain(base));  // larger k
  p = base;
  p.num_nodes = 30;
  EXPECT_GT(gain(p), gain(base));  // smaller M
  p = base;
  p.disk_bw = MBps(500);
  EXPECT_GT(gain(p), gain(base));  // faster disks
  p = base;
  p.net_bw = Gbps(10);
  EXPECT_LT(gain(p), gain(base));  // faster network shrinks the gain
}

TEST(CostModel, HotStandbyGainShrinksWithMoreSpares) {
  auto p = paper_defaults();
  p.scenario = Scenario::kHotStandby;
  const auto gain = [&](int h) {
    auto q = p;
    q.hot_standby = h;
    const CostModel m(q);
    return 1.0 - m.predictive_time() / m.reactive_time();
  };
  EXPECT_GT(gain(3), gain(6));
  EXPECT_GT(gain(6), gain(9));
}

TEST(CostModel, LrcSubstitutionReducesRepairCost) {
  // §III "Extension for LRCs": k' = k/l < k lowers reactive time.
  auto rs = paper_defaults();
  rs.k_repair = 12;
  auto lrc = paper_defaults();
  lrc.k_repair = 6;  // LRC(12, l=2): k' = 6
  EXPECT_LT(CostModel(lrc).reactive_time(),
            CostModel(rs).reactive_time());
}

TEST(CostModel, MsrHelperFractionShrinksReconstruction) {
  // MSR(14,10,d=13): 13 helpers ship 1/4 chunk each — 3.25 chunks of
  // traffic instead of 10 — so tr and the reactive time drop, and the
  // predictive-over-reactive margin narrows (§II-A discussion).
  auto rs = paper_defaults();
  rs.k_repair = 10;
  auto msr = paper_defaults();
  msr.k_repair = 13;
  msr.helper_bytes_fraction = 0.25;
  const CostModel rs_model(rs), msr_model(msr);
  EXPECT_LT(msr_model.tr(1), rs_model.tr(1));
  EXPECT_LT(msr_model.reactive_time(), rs_model.reactive_time());
  const auto gain = [](const CostModel& m) {
    return 1.0 - m.predictive_time() / m.reactive_time();
  };
  EXPECT_LT(gain(msr_model), gain(rs_model));
}

TEST(CostModel, HelperFractionValidated) {
  auto p = paper_defaults();
  p.helper_bytes_fraction = 0.0;
  EXPECT_THROW(CostModel{p}, CheckFailure);
  p.helper_bytes_fraction = 1.5;
  EXPECT_THROW(CostModel{p}, CheckFailure);
}

TEST(CostModel, MigrationQuotaMatchesRatio) {
  const CostModel m(paper_defaults());
  const int quota = m.migration_quota(16, RepairStrategy::kFanIn);
  EXPECT_EQ(quota, static_cast<int>(m.tr(16) / m.tm()));
  EXPECT_EQ(m.migration_quota(0, RepairStrategy::kFanIn), 0);
}

TEST(CostModel, ChainRoundTimeFormula) {
  auto p = paper_defaults();
  p.packet_bytes = static_cast<double>(256 * kKiB);
  p.chain_hop_overhead_seconds = 500e-6;
  const CostModel m(p);
  const double c = p.chunk_bytes;
  const double pkt = p.packet_bytes;
  const double packets = std::ceil(c / pkt);
  const double overhead = (packets + 6 - 1.0) * 500e-6;
  const double want = c / p.disk_bw + c / p.net_bw +
                      5.0 * pkt / p.net_bw + overhead + c / p.disk_bw;
  EXPECT_DOUBLE_EQ(m.tr_chain(10), want);
  // Scattered chain time is independent of the round size g.
  EXPECT_DOUBLE_EQ(m.tr_chain(1), m.tr_chain(16));
  // And the strategy overload dispatches to it.
  EXPECT_DOUBLE_EQ(m.tr(10, RepairStrategy::kChain), m.tr_chain(10));
  EXPECT_DOUBLE_EQ(m.tr(10, RepairStrategy::kFanIn), m.tr(10));
}

TEST(CostModel, ChainHotStandbyFunnels) {
  auto p = paper_defaults();
  p.scenario = Scenario::kHotStandby;
  p.packet_bytes = static_cast<double>(256 * kKiB);
  const CostModel m(p);
  // Spares absorb g single-chunk tails, so chain time grows with g but
  // stays below fan-in's g·k streams.
  EXPECT_GT(m.tr_chain(12), m.tr_chain(3));
  EXPECT_LT(m.tr_chain(12), m.tr(12));
}

TEST(CostModel, ChainOneHelperPaysNoForwarding) {
  auto p = paper_defaults();
  p.k_repair = 1;
  p.packet_bytes = static_cast<double>(64 * kKiB);
  p.chain_hop_overhead_seconds = 1.0;  // would dominate if charged
  const CostModel m(p);
  const double c = p.chunk_bytes;
  EXPECT_DOUBLE_EQ(m.tr_chain(4),
                   c / p.disk_bw + c / p.net_bw + c / p.disk_bw);
}

TEST(CostModel, ChooseStrategyCrossover) {
  // Large packets: overhead per byte is tiny, the chain's single-
  // transfer bound beats fan-in's k-deep funnel. Small packets: the
  // per-forward overhead N·o dominates and fan-in wins. Both sides of
  // the crossover must be visible with the same overhead constant.
  auto p = paper_defaults();
  p.chain_hop_overhead_seconds = 500e-6;
  p.packet_bytes = static_cast<double>(256 * kKiB);
  EXPECT_EQ(CostModel(p).choose_strategy(10), RepairStrategy::kChain);
  p.packet_bytes = static_cast<double>(1 * kKiB);
  EXPECT_EQ(CostModel(p).choose_strategy(10), RepairStrategy::kFanIn);
  // Unset packet size: the chain time is undefined, auto stays fan-in.
  p.packet_bytes = 0;
  EXPECT_EQ(CostModel(p).choose_strategy(10), RepairStrategy::kFanIn);
  EXPECT_THROW(CostModel(p).tr_chain(10), CheckFailure);
}

TEST(CostModel, ChainMigrationQuotaAndRoundTime) {
  auto p = paper_defaults();
  p.packet_bytes = static_cast<double>(256 * kKiB);
  p.chain_hop_overhead_seconds = 500e-6;
  const CostModel m(p);
  // A faster chain round leaves less slack to migrate alongside it.
  EXPECT_EQ(m.migration_quota(16, RepairStrategy::kChain),
            static_cast<int>(m.tr_chain(16) / m.tm()));
  EXPECT_LE(m.migration_quota(16, RepairStrategy::kChain),
            m.migration_quota(16, RepairStrategy::kFanIn));
  EXPECT_EQ(m.migration_quota(0, RepairStrategy::kChain), 0);
  // round_time takes max(tr, cm·tm) under the chosen strategy, cm being
  // the busiest migration stream's count.
  EXPECT_DOUBLE_EQ(m.round_time(16, 0, RepairStrategy::kChain),
                   m.tr_chain(16));
  EXPECT_DOUBLE_EQ(m.round_time(16, 1000, RepairStrategy::kChain),
                   1000 * m.tm());
  EXPECT_DOUBLE_EQ(m.round_time(16, 0, RepairStrategy::kFanIn), m.tr(16));
  EXPECT_DOUBLE_EQ(m.round_time(16, 7, RepairStrategy::kChain),
                   std::max(m.tr_chain(16), 7 * m.tm()));
}

TEST(CostModel, InvalidParamsRejected) {
  auto p = paper_defaults();
  p.k_repair = 0;
  EXPECT_THROW(CostModel{p}, CheckFailure);
  p = paper_defaults();
  p.k_repair = 100;  // > M - 1
  EXPECT_THROW(CostModel{p}, CheckFailure);
  p = paper_defaults();
  p.disk_bw = 0;
  EXPECT_THROW(CostModel{p}, CheckFailure);
}

}  // namespace
}  // namespace fastpr::core
