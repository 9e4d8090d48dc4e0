// Algorithm 2: repair scheduling — exact-once coverage, quota math,
// largest-set-reconstructs policy, the paper's Figure 6 example.
#include "core/scheduler.h"

#include <gtest/gtest.h>

#include <set>

#include "util/units.h"

namespace fastpr::core {
namespace {

using cluster::ChunkRef;

/// Builds d reconstruction sets with the given sizes; chunk identities
/// are synthesized (stripe ids unique across all sets).
std::vector<std::vector<ChunkRef>> make_sets(
    const std::vector<int>& sizes) {
  std::vector<std::vector<ChunkRef>> sets;
  int32_t next_stripe = 0;
  for (int size : sizes) {
    std::vector<ChunkRef> set;
    for (int i = 0; i < size; ++i) set.push_back(ChunkRef{next_stripe++, 0});
    sets.push_back(std::move(set));
  }
  return sets;
}

CostModel scattered_model(int stf_chunks) {
  ModelParams p;
  p.num_nodes = 100;
  p.stf_chunks = stf_chunks;
  p.chunk_bytes = static_cast<double>(MB(64));
  p.disk_bw = MBps(100);
  p.net_bw = Gbps(1);
  p.k_repair = 6;
  p.scenario = Scenario::kScattered;
  return CostModel(p);
}

int total_chunks(const std::vector<std::vector<ChunkRef>>& sets) {
  int total = 0;
  for (const auto& s : sets) total += static_cast<int>(s.size());
  return total;
}

void check_exact_once(const std::vector<std::vector<ChunkRef>>& sets,
                      const std::vector<ScheduledRound>& rounds) {
  std::set<std::pair<int32_t, int32_t>> seen;
  int scheduled = 0;
  for (const auto& round : rounds) {
    for (const auto& c : round.reconstruct) {
      EXPECT_TRUE(seen.emplace(c.stripe, c.index).second);
      ++scheduled;
    }
    for (const auto& c : round.migrate) {
      EXPECT_TRUE(seen.emplace(c.stripe, c.index).second);
      ++scheduled;
    }
  }
  EXPECT_EQ(scheduled, total_chunks(sets));
}

TEST(Scheduler, Figure6Example) {
  // Paper Figure 6: sets of sizes {9,7,6,4,3,2,1} with cm fixed at 4
  // complete in exactly 3 rounds:
  //   round 1: reconstruct 9, migrate {1,2,1of3};
  //   round 2: reconstruct 7, migrate {2of3..wait — see figure}:
  //     migrate {remaining 2 of R5, 2 of R4'};
  //   round 3: reconstruct 6, migrate remaining 2 (R4).
  const auto sets = make_sets({9, 7, 6, 4, 3, 2, 1});
  SchedulerOptions opts;
  opts.fixed_migration_quota = 4;
  const auto rounds =
      schedule_repair(sets, scattered_model(32), opts);
  check_exact_once(sets, rounds);
  ASSERT_EQ(rounds.size(), 3u);
  EXPECT_EQ(rounds[0].reconstruct.size(), 9u);
  EXPECT_EQ(rounds[0].migrate.size(), 4u);
  EXPECT_EQ(rounds[1].reconstruct.size(), 7u);
  EXPECT_EQ(rounds[1].migrate.size(), 4u);
  EXPECT_EQ(rounds[2].reconstruct.size(), 6u);
  EXPECT_EQ(rounds[2].migrate.size(), 2u);
}

TEST(Scheduler, LargestSetReconstructsEachRound) {
  const auto sets = make_sets({5, 8, 3, 6, 2});
  SchedulerOptions opts;
  opts.fixed_migration_quota = 2;
  const auto rounds = schedule_repair(sets, scattered_model(24), opts);
  check_exact_once(sets, rounds);
  // Rounds reconstruct in descending size order.
  for (size_t i = 1; i < rounds.size(); ++i) {
    EXPECT_LE(rounds[i].reconstruct.size(),
              rounds[i - 1].reconstruct.size());
  }
  EXPECT_EQ(rounds[0].reconstruct.size(), 8u);
}

TEST(Scheduler, QuotaRespectedEveryRound) {
  const auto sets = make_sets({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  SchedulerOptions opts;
  opts.fixed_migration_quota = 3;
  const auto rounds = schedule_repair(sets, scattered_model(55), opts);
  check_exact_once(sets, rounds);
  for (size_t i = 0; i < rounds.size(); ++i) {
    // Intermediate rounds migrate exactly cm; only the final round may
    // migrate less.
    if (i + 1 < rounds.size()) {
      EXPECT_EQ(rounds[i].migrate.size(), 3u);
    } else {
      EXPECT_LE(rounds[i].migrate.size(), 3u);
    }
  }
}

TEST(Scheduler, ZeroQuotaDegeneratesToReconstructionOnly) {
  const auto sets = make_sets({4, 3, 2});
  SchedulerOptions opts;
  opts.fixed_migration_quota = 0;
  const auto rounds = schedule_repair(sets, scattered_model(9), opts);
  check_exact_once(sets, rounds);
  EXPECT_EQ(rounds.size(), 3u);
  for (const auto& r : rounds) EXPECT_TRUE(r.migrate.empty());
}

TEST(Scheduler, HugeQuotaMigratesEverythingButLargest) {
  const auto sets = make_sets({6, 3, 3, 2});
  SchedulerOptions opts;
  opts.fixed_migration_quota = 100;
  const auto rounds = schedule_repair(sets, scattered_model(14), opts);
  check_exact_once(sets, rounds);
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_EQ(rounds[0].reconstruct.size(), 6u);
  EXPECT_EQ(rounds[0].migrate.size(), 8u);
}

TEST(Scheduler, SingleSet) {
  const auto sets = make_sets({7});
  const auto rounds = schedule_repair(sets, scattered_model(7), {});
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_EQ(rounds[0].reconstruct.size(), 7u);
  EXPECT_TRUE(rounds[0].migrate.empty());
}

TEST(Scheduler, EmptyInput) {
  const auto rounds = schedule_repair({}, scattered_model(1), {});
  EXPECT_TRUE(rounds.empty());
}

TEST(Scheduler, ModelDerivedQuotaMatchesCostModel) {
  const auto sets = make_sets({16, 16, 16, 2, 2, 2, 2, 2});
  const auto model = scattered_model(58);
  const auto rounds = schedule_repair(sets, model, {});
  check_exact_once(sets, rounds);
  // First round's migration count equals cm = floor(tr(16)/tm).
  const int expected_cm = model.migration_quota(16, RepairStrategy::kFanIn);
  ASSERT_FALSE(rounds.empty());
  EXPECT_EQ(static_cast<int>(rounds[0].migrate.size()),
            std::min(expected_cm, 10));
}

TEST(Scheduler, MaxRoundRepairsCapsQuota) {
  const auto sets = make_sets({10, 4, 4, 4});
  SchedulerOptions opts;
  opts.fixed_migration_quota = 50;
  opts.max_round_repairs = 12;  // cr=10 leaves room for only 2
  const auto rounds = schedule_repair(sets, scattered_model(22), opts);
  check_exact_once(sets, rounds);
  for (const auto& r : rounds) {
    EXPECT_LE(r.reconstruct.size() + r.migrate.size(), 12u);
  }
}

TEST(Scheduler, RoundCountNeverExceedsSetCount) {
  for (int quota : {0, 1, 2, 5, 9}) {
    const auto sets = make_sets({9, 7, 6, 4, 3, 2, 1});
    SchedulerOptions opts;
    opts.fixed_migration_quota = quota;
    const auto rounds = schedule_repair(sets, scattered_model(32), opts);
    check_exact_once(sets, rounds);
    EXPECT_LE(rounds.size(), sets.size()) << "quota=" << quota;
  }
}

TEST(Scheduler, ResolveStrategyHonorsChoice) {
  const CostModel model = scattered_model(32);
  EXPECT_EQ(resolve_strategy(StrategyChoice::kFanIn, model, 10),
            RepairStrategy::kFanIn);
  EXPECT_EQ(resolve_strategy(StrategyChoice::kChain, model, 10),
            RepairStrategy::kChain);
  // kAuto with packet_bytes unset must stay fan-in (tr_chain undefined).
  EXPECT_EQ(resolve_strategy(StrategyChoice::kAuto, model, 10),
            RepairStrategy::kFanIn);
}

TEST(Scheduler, AutoResolvesPerCostModelCrossover) {
  ModelParams p;
  p.num_nodes = 100;
  p.stf_chunks = 32;
  p.chunk_bytes = static_cast<double>(MB(64));
  p.disk_bw = MBps(100);
  p.net_bw = Gbps(1);
  p.k_repair = 6;
  p.scenario = Scenario::kScattered;
  p.chain_hop_overhead_seconds = 500e-6;
  p.packet_bytes = static_cast<double>(256 * kKiB);
  EXPECT_EQ(resolve_strategy(StrategyChoice::kAuto, CostModel(p), 10),
            RepairStrategy::kChain);
  p.packet_bytes = static_cast<double>(1 * kKiB);
  EXPECT_EQ(resolve_strategy(StrategyChoice::kAuto, CostModel(p), 10),
            RepairStrategy::kFanIn);
}

TEST(Scheduler, RoundsCarryChosenStrategyAndChainQuota) {
  const auto sets = make_sets({9, 7, 6, 4, 3, 2, 1});
  ModelParams p;
  p.num_nodes = 100;
  p.stf_chunks = 32;
  p.chunk_bytes = static_cast<double>(MB(64));
  p.disk_bw = MBps(100);
  p.net_bw = Gbps(1);
  p.k_repair = 6;
  p.scenario = Scenario::kScattered;
  p.chain_hop_overhead_seconds = 500e-6;
  p.packet_bytes = static_cast<double>(256 * kKiB);
  const CostModel model(p);
  SchedulerOptions opts;
  opts.strategy = StrategyChoice::kChain;
  const auto rounds = schedule_repair(sets, model, opts);
  check_exact_once(sets, rounds);
  for (const auto& round : rounds) {
    EXPECT_EQ(round.strategy, RepairStrategy::kChain);
    // The quota honors the chain's (shorter) round time.
    const int cr = static_cast<int>(round.reconstruct.size());
    EXPECT_LE(static_cast<int>(round.migrate.size()),
              model.migration_quota(cr, RepairStrategy::kChain));
  }
  // Default options keep the fan-in schedule.
  const auto fanin_rounds = schedule_repair(sets, model);
  for (const auto& round : fanin_rounds) {
    EXPECT_EQ(round.strategy, RepairStrategy::kFanIn);
  }
}

}  // namespace
}  // namespace fastpr::core
