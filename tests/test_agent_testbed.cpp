// Testbed integration: full plans executed with real bytes over the
// shaped transport, byte-exact verification, failure injection.
#include "agent/testbed.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/repair_plan.h"
#include "ec/lrc_code.h"
#include "ec/rs_code.h"
#include "telemetry/metrics.h"
#include "util/buffer_pool.h"
#include "util/rng.h"
#include "util/units.h"

namespace fastpr::agent {
namespace {

TestbedOptions small_options(uint64_t seed) {
  TestbedOptions opts;
  opts.num_storage = 12;
  opts.num_standby = 2;
  opts.disk_bytes_per_sec = 0;  // unthrottled: tests check bytes, not time
  opts.net_bytes_per_sec = 0;
  opts.chunk_bytes = 64 * kKiB;
  opts.packet_bytes = 16 * kKiB;
  opts.num_stripes = 30;
  opts.seed = seed;
  opts.round_timeout = std::chrono::milliseconds(30000);
  return opts;
}

struct Param {
  core::Scenario scenario;
  core::StrategyChoice repair;  // how reconstructions move their bytes
  const char* strategy;
};

class TestbedExecutionTest : public ::testing::TestWithParam<Param> {};

constexpr auto kFanIn = core::StrategyChoice::kFanIn;
constexpr auto kChain = core::StrategyChoice::kChain;

TEST_P(TestbedExecutionTest, ExecutesAndVerifies) {
  const auto p = GetParam();
  ec::RsCode code(6, 4);
  auto opts = small_options(21);
  opts.repair_strategy = p.repair;
  Testbed tb(opts, code);
  tb.flag_stf();
  auto planner = tb.make_planner(p.scenario);

  core::RepairPlan plan;
  if (std::string(p.strategy) == "fastpr") {
    plan = planner.plan_fastpr();
  } else if (std::string(p.strategy) == "reconstruction") {
    plan = planner.plan_reconstruction_only();
  } else {
    plan = planner.plan_migration_only();
  }
  validate_plan(plan, tb.layout(), tb.cluster(), 4);
  for (const auto& round : plan.rounds) {
    if (round.reconstructions.empty()) continue;
    EXPECT_EQ(round.strategy, p.repair == core::StrategyChoice::kChain
                                  ? core::RepairStrategy::kChain
                                  : core::RepairStrategy::kFanIn);
  }

  const auto report = tb.execute(plan);
  EXPECT_TRUE(report.success) << (report.errors.empty()
                                      ? ""
                                      : report.errors.front());
  EXPECT_EQ(report.repaired(), plan.total_repaired());
  EXPECT_EQ(report.fallback_reconstructions, 0);
  EXPECT_TRUE(tb.verify(plan));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, TestbedExecutionTest,
    ::testing::Values(
        Param{core::Scenario::kScattered, kFanIn, "fastpr"},
        Param{core::Scenario::kScattered, kFanIn, "reconstruction"},
        Param{core::Scenario::kScattered, kFanIn, "migration"},
        Param{core::Scenario::kHotStandby, kFanIn, "fastpr"},
        Param{core::Scenario::kHotStandby, kFanIn, "reconstruction"},
        Param{core::Scenario::kHotStandby, kFanIn, "migration"},
        Param{core::Scenario::kScattered, kChain, "fastpr"},
        Param{core::Scenario::kScattered, kChain, "reconstruction"},
        Param{core::Scenario::kHotStandby, kChain, "fastpr"},
        Param{core::Scenario::kHotStandby, kChain, "reconstruction"}),
    [](const auto& info) {
      return std::string(info.param.scenario == core::Scenario::kScattered
                             ? "scattered_"
                             : "hotstandby_") +
             info.param.strategy +
             (info.param.repair == kChain ? "_chain" : "");
    });

TEST(Testbed, LrcPlansExecuteWithLocalRepairFanIn) {
  // LRC(4,2,2): data/local-parity chunks repair from k' = 2 helpers.
  ec::LrcCode code(4, 2, 2);
  auto opts = small_options(33);
  Testbed tb(opts, code);
  tb.flag_stf();
  auto planner = tb.make_planner(core::Scenario::kScattered);
  const auto plan = planner.plan_fastpr();
  validate_plan(plan, tb.layout(), tb.cluster(), 2, &code);
  bool saw_local = false;
  for (const auto& round : plan.rounds) {
    for (const auto& task : round.reconstructions) {
      const size_t expected = static_cast<size_t>(
          code.repair_fetch_count(task.chunk.index));
      ASSERT_EQ(task.sources.size(), expected);
      if (expected == 2) {
        saw_local = true;
        // Locality: both helpers come from the lost chunk's candidates.
        const auto cands = code.helper_candidates(task.chunk.index);
        for (const auto& src : task.sources) {
          EXPECT_NE(std::find(cands.begin(), cands.end(),
                              src.chunk.index),
                    cands.end());
        }
      }
    }
  }
  EXPECT_TRUE(saw_local);
  const auto report = tb.execute(plan);
  EXPECT_TRUE(report.success);
  EXPECT_TRUE(tb.verify(plan));
}

TEST(Testbed, ChainExecutionByteExactAcrossSeeds) {
  // Differential check: a chain-strategy execution must repair the
  // exact same chunk set to the exact same bytes as fan-in. Both runs
  // verify against the same oracle, so oracle-exactness of both IS
  // byte-identity of their outputs.
  ec::RsCode code(6, 4);
  for (uint64_t seed : {21u, 77u, 1234u}) {
    for (auto scenario :
         {core::Scenario::kScattered, core::Scenario::kHotStandby}) {
      auto fanin_opts = small_options(seed);
      auto chain_opts = small_options(seed);
      chain_opts.repair_strategy = core::StrategyChoice::kChain;

      Testbed fanin(fanin_opts, code);
      fanin.flag_stf();
      const auto fanin_plan =
          fanin.make_planner(scenario).plan_fastpr();
      ASSERT_TRUE(fanin.execute(fanin_plan).success);
      EXPECT_TRUE(fanin.verify(fanin_plan));

#if FASTPR_TELEMETRY_ENABLED
      const int64_t forwards_before = telemetry::MetricsRegistry::global()
                                          .counter("agent.chain_forwards")
                                          .value();
#endif
      Testbed chain(chain_opts, code);
      chain.flag_stf();
      const auto chain_plan =
          chain.make_planner(scenario).plan_fastpr();
      // Same seed, same layout: the plans repair the same chunk set.
      ASSERT_EQ(chain_plan.total_repaired(), fanin_plan.total_repaired());
      const auto report = chain.execute(chain_plan);
      ASSERT_TRUE(report.success) << (report.errors.empty()
                                          ? ""
                                          : report.errors.front());
      EXPECT_TRUE(chain.verify(chain_plan))
          << "seed=" << seed
          << " scenario=" << core::to_string(scenario);
#if FASTPR_TELEMETRY_ENABLED
      // The chain run really did route packets through hop forwards.
      EXPECT_GT(telemetry::MetricsRegistry::global()
                    .counter("agent.chain_forwards")
                    .value(),
                forwards_before)
          << "seed=" << seed;
#endif
    }
  }
}

TEST(Testbed, ChainLrcExecutesAndVerifies) {
  // LRC(4,2,2): local repairs chain k' = 2 helpers, global-parity
  // repairs chain k = 4 — both shapes must decode byte-exactly.
  ec::LrcCode code(4, 2, 2);
  auto opts = small_options(33);
  opts.repair_strategy = core::StrategyChoice::kChain;
  Testbed tb(opts, code);
  tb.flag_stf();
  const auto plan =
      tb.make_planner(core::Scenario::kScattered).plan_fastpr();
  validate_plan(plan, tb.layout(), tb.cluster(), 2, &code);
  const auto report = tb.execute(plan);
  ASSERT_TRUE(report.success) << (report.errors.empty()
                                      ? ""
                                      : report.errors.front());
  EXPECT_TRUE(tb.verify(plan));
}

TEST(Testbed, ChainOverTcpEndToEnd) {
  // The chain protocol tolerates TCP's lack of cross-connection
  // ordering (packets can beat a hop's fetch request; the early buffer
  // absorbs them).
  ec::RsCode code(6, 4);
  auto opts = small_options(55);
  opts.use_tcp = true;
  opts.num_stripes = 10;
  opts.repair_strategy = core::StrategyChoice::kChain;
  Testbed tb(opts, code);
  tb.flag_stf();
  const auto plan =
      tb.make_planner(core::Scenario::kScattered).plan_fastpr();
  const auto report = tb.execute(plan);
  ASSERT_TRUE(report.success) << (report.errors.empty()
                                      ? ""
                                      : report.errors.front());
  EXPECT_TRUE(tb.verify(plan));
}

TEST(Testbed, ChainPredictedRoundsUseChainModel) {
  // predict_rounds must price chain rounds with tr_chain, not Eq. (5).
  ec::RsCode code(6, 4);
  auto opts = small_options(66);
  opts.disk_bytes_per_sec = MBps(142) / 4;
  opts.net_bytes_per_sec = Gbps(5) / 4;
  opts.repair_strategy = core::StrategyChoice::kChain;
  Testbed tb(opts, code);
  tb.flag_stf();
  auto planner = tb.make_planner(core::Scenario::kScattered);
  const auto plan = planner.plan_fastpr();
  const auto predicted =
      tb.predict_rounds(plan, core::Scenario::kScattered);
  ASSERT_EQ(predicted.size(), plan.rounds.size());
  const auto model = planner.cost_model();
  for (size_t i = 0; i < plan.rounds.size(); ++i) {
    if (plan.rounds[i].reconstructions.empty()) continue;
    EXPECT_EQ(plan.rounds[i].strategy, core::RepairStrategy::kChain);
    EXPECT_DOUBLE_EQ(predicted[i].duration_seconds,
                     model.round_time(predicted[i].cr, predicted[i].cm,
                                      core::RepairStrategy::kChain));
  }
}

TEST(Testbed, StfReadErrorFallsBackToReconstruction) {
  ec::RsCode code(6, 4);
  Testbed tb(small_options(44), code);
  const auto stf = tb.flag_stf();
  auto planner = tb.make_planner(core::Scenario::kScattered);
  const auto plan = planner.plan_migration_only();

  // The STF node's disk develops read errors on two chunks mid-plan —
  // the coordinator must transparently reconstruct them instead.
  const auto chunks = tb.layout().chunks_on(stf);
  ASSERT_GE(chunks.size(), 2u);
  tb.store(stf).inject_read_error(chunks[0]);
  tb.store(stf).inject_read_error(chunks[1]);

  const auto report = tb.execute(plan);
  EXPECT_TRUE(report.success) << (report.errors.empty()
                                      ? ""
                                      : report.errors.front());
  EXPECT_EQ(report.fallback_reconstructions, 2);
  EXPECT_EQ(report.repaired(), plan.total_repaired());
  EXPECT_TRUE(tb.verify(plan));
}

TEST(Testbed, KilledDestinationRecoversViaRetry) {
  // A destination dies before the repair starts. The stalled round is
  // extended, the probe exposes the dead node, and the task is reissued
  // to an alternate destination — the repair still completes in full.
  ec::RsCode code(6, 4);
  auto opts = small_options(55);
  opts.round_timeout = std::chrono::milliseconds(2000);
  opts.probe_timeout = std::chrono::milliseconds(250);
  opts.fault_plan = net::FaultPlan{};
  Testbed tb(opts, code);
  tb.flag_stf();
  auto planner = tb.make_planner(core::Scenario::kScattered);
  const auto plan = planner.plan_fastpr();
  ASSERT_FALSE(plan.rounds.empty());
  ASSERT_FALSE(plan.rounds[0].reconstructions.empty());
  const auto victim = plan.rounds[0].reconstructions[0].dst;
  tb.faulty()->crash(victim);

  const auto report = tb.execute(plan);
  EXPECT_TRUE(report.success) << (report.errors.empty()
                                      ? ""
                                      : report.errors.front());
  EXPECT_TRUE(report.unrepaired.empty());
  EXPECT_GT(report.retries, 0);
  EXPECT_GT(report.round_extensions, 0);
  ASSERT_FALSE(report.failed_nodes.empty());
  EXPECT_NE(std::find(report.failed_nodes.begin(),
                      report.failed_nodes.end(), victim),
            report.failed_nodes.end());
  // Every completed repair verifies byte-for-byte at its *actual*
  // destination, and none landed on the dead node.
  EXPECT_TRUE(tb.verify(report, plan));
  for (const auto& done : report.completions) {
    EXPECT_NE(done.dst, victim);
  }
}

TEST(Testbed, RoundTimeoutListsUnrepairedChunks) {
  // With recovery disabled (no extensions, single attempt), a stalled
  // round must enumerate exactly which chunks were left unrepaired —
  // not just count them.
  ec::RsCode code(6, 4);
  auto opts = small_options(55);
  opts.round_timeout = std::chrono::milliseconds(1000);
  opts.max_round_extensions = 0;
  opts.max_attempts = 1;
  opts.fault_plan = net::FaultPlan{};
  Testbed tb(opts, code);
  tb.flag_stf();
  auto planner = tb.make_planner(core::Scenario::kScattered);
  const auto plan = planner.plan_fastpr();
  ASSERT_FALSE(plan.rounds.empty());
  ASSERT_FALSE(plan.rounds[0].reconstructions.empty());
  const auto& stalled = plan.rounds[0].reconstructions[0];
  tb.faulty()->crash(stalled.dst);

  const auto report = tb.execute(plan);
  EXPECT_FALSE(report.success);
  ASSERT_FALSE(report.unrepaired.empty());
  // The stalled task's chunk is listed, and every listed chunk is one
  // the plan was actually repairing.
  EXPECT_NE(std::find(report.unrepaired.begin(), report.unrepaired.end(),
                      stalled.chunk),
            report.unrepaired.end());
  std::vector<cluster::ChunkRef> planned;
  for (const auto& round : plan.rounds) {
    for (const auto& task : round.migrations) planned.push_back(task.chunk);
    for (const auto& task : round.reconstructions) {
      planned.push_back(task.chunk);
    }
  }
  for (const auto& chunk : report.unrepaired) {
    EXPECT_NE(std::find(planned.begin(), planned.end(), chunk),
              planned.end());
  }
  bool saw_timeout = false;
  for (const auto& error : report.errors) {
    if (error.find("timed out") != std::string::npos) saw_timeout = true;
  }
  EXPECT_TRUE(saw_timeout);
}

TEST(Testbed, TcpTransportEndToEnd) {
  ec::RsCode code(6, 4);
  auto opts = small_options(66);
  opts.use_tcp = true;
  opts.num_stripes = 15;
  Testbed tb(opts, code);
  tb.flag_stf();
  auto planner = tb.make_planner(core::Scenario::kScattered);
  const auto plan = planner.plan_fastpr();
  const auto report = tb.execute(plan);
  EXPECT_TRUE(report.success) << (report.errors.empty()
                                      ? ""
                                      : report.errors.front());
  EXPECT_TRUE(tb.verify(plan));
}

TEST(Testbed, ShapedRunRespectsBandwidthFloor) {
  // With disk 50 MB/s, net 50 MB/s and ~1 MB chunks, migrating U chunks
  // cannot beat U × c/bn on the STF uplink (plus disk time).
  ec::RsCode code(6, 4);
  auto opts = small_options(77);
  opts.disk_bytes_per_sec = MBps(50);
  opts.net_bytes_per_sec = MBps(50);
  opts.chunk_bytes = 1 * kMiB;
  opts.packet_bytes = 256 * kKiB;
  opts.num_stripes = 20;
  Testbed tb(opts, code);
  const auto stf = tb.flag_stf();
  const int u = tb.layout().load(stf);
  auto planner = tb.make_planner(core::Scenario::kScattered);
  const auto plan = planner.plan_migration_only();
  const auto report = tb.execute(plan);
  ASSERT_TRUE(report.success);
  const double uplink_floor =
      static_cast<double>(u) * static_cast<double>(1 * kMiB) / MBps(50);
  // Allow generous slack under the floor for burst tokens.
  EXPECT_GT(report.repair.total_seconds, uplink_floor * 0.5);
  EXPECT_TRUE(tb.verify(plan));
}

TEST(Testbed, OddChunkPacketDivisionStillExact) {
  // chunk size not a multiple of the packet size: the tail packet is
  // short and every byte must still land in the right offset. The chain
  // run pushes that short packet through every hop's slice read and
  // fold as well.
  ec::RsCode code(6, 4);
  for (const auto strategy :
       {core::StrategyChoice::kFanIn, core::StrategyChoice::kChain}) {
    auto opts = small_options(99);
    opts.chunk_bytes = 100 * 1000 + 7;  // deliberately odd
    opts.packet_bytes = 17 * 1000;
    opts.num_stripes = 12;
    opts.repair_strategy = strategy;
    Testbed tb(opts, code);
    tb.flag_stf();
    auto planner = tb.make_planner(core::Scenario::kScattered);
    const auto plan = planner.plan_fastpr();
    if (strategy == core::StrategyChoice::kChain) {
      int chains = 0;
      for (const auto& round : plan.rounds) {
        for (const auto& task : round.reconstructions) {
          chains += task.strategy == core::RepairStrategy::kChain;
        }
      }
      ASSERT_GT(chains, 0);
    }
    const auto report = tb.execute(plan);
    EXPECT_TRUE(report.success) << (report.errors.empty()
                                        ? ""
                                        : report.errors.front());
    EXPECT_TRUE(tb.verify(plan));
  }
}

TEST(Testbed, SteadyStateTransferRecyclesPayloadBuffers) {
  // Tentpole acceptance: the steady-state transfer path must not
  // allocate per packet. Payload buffers come from the global pool, so
  // after a small working set warms up, every further packet is a shelf
  // hit. Migration streams drop each payload right after the copy-in,
  // which makes the recycling easy to observe end to end.
  ec::RsCode code(6, 4);
  auto opts = small_options(111);
  opts.chunk_bytes = 128 * kKiB;
  opts.packet_bytes = 16 * kKiB;  // 8 packets per chunk, no short tail
  opts.num_stripes = 60;
  const auto packets_per_chunk =
      static_cast<int64_t>(opts.chunk_bytes / opts.packet_bytes);
  Testbed tb(opts, code);
  tb.flag_stf();
  auto planner = tb.make_planner(core::Scenario::kScattered);
  const auto plan = planner.plan_migration_only();

  // The working set the pipeline guarantees. The send window does not
  // bound it: an in-process send returns once the packet is in the
  // destination's inbox, where a lagging dispatcher can hold all of a
  // chunk's packets. The round barrier does: a round's live payloads are
  // at most every packet of its chunks, and the next round starts once
  // each destination has folded its last packet, whose payload it may
  // still be dropping. While that set fits the shelf, no return is
  // dropped, so the pool allocates at most the set once.
  int64_t working_set = 0;
  int64_t previous_round = 0;
  for (const auto& round : plan.rounds) {
    const auto chunks = static_cast<int64_t>(round.migrations.size());
    working_set =
        std::max(working_set, chunks * packets_per_chunk + previous_round);
    previous_round = chunks;
  }
  ASSERT_LE(working_set,
            static_cast<int64_t>(BufferPool::kPacketShelfBuffers));

  const auto before = BufferPool::global()->stats();
  const auto report = tb.execute(plan);
  ASSERT_TRUE(report.success);
  EXPECT_TRUE(tb.verify(plan));
  const auto after = BufferPool::global()->stats();

  const int64_t new_misses = after.misses - before.misses;
  const int64_t new_hits = after.hits - before.hits;
  const int64_t packets =
      static_cast<int64_t>(report.repaired()) * packets_per_chunk;
  ASSERT_GE(packets, 200);  // enough traffic for "steady state" to mean
                            // something
  // The allocation count is bounded by the concurrent working set, NOT
  // by the packet count.
  EXPECT_LE(new_misses, working_set);
  EXPECT_GE(new_hits, packets - working_set);
}

/// Empties the chunk pool, then shelves `count` buffers of
/// `chunk_bytes`' class filled with random bytes, so the accumulators of
/// the next execution start out holding bytes of no chunk at all.
void prefill_chunk_pool(uint64_t chunk_bytes, int count, uint64_t seed) {
  BufferPool::chunks()->trim();
  Rng rng(seed);
  std::vector<PooledBuffer> garbage;
  for (int i = 0; i < count; ++i) {
    garbage.push_back(BufferPool::chunks()->acquire(chunk_bytes));
    for (auto& byte : garbage.back()) {
      byte = static_cast<uint8_t>(rng.uniform(0, 255));
    }
  }
}

TEST(Testbed, StaleChunkBuffersStillRepairByteExact) {
  // A destination folds into a recycled chunk buffer and never zeroes
  // the whole of it: one stream overwrites each slice, a fan-in clears
  // each slice just before its fused fold. Every shape must therefore
  // come out byte-exact from buffers that hold garbage.
  ec::RsCode rs(6, 4);
  ec::LrcCode lrc(4, 2, 2);
  struct Case {
    const char* name;
    const ec::ErasureCode& code;
    core::StrategyChoice repair;
    bool migration_only;
    uint64_t chunk_bytes;
    uint64_t packet_bytes;
  };
  const Case cases[] = {
      {"fan-in", rs, kFanIn, false, 64 * kKiB, 16 * kKiB},
      {"chain", rs, kChain, false, 64 * kKiB, 16 * kKiB},
      {"migration", rs, kFanIn, true, 64 * kKiB, 16 * kKiB},
      // OddChunkPacketDivisionStillExact's shape: a short tail packet.
      {"odd chunk", rs, kFanIn, false, 100 * 1000 + 7, 17 * 1000},
      {"lrc", lrc, kFanIn, false, 64 * kKiB, 16 * kKiB},
  };
  uint64_t seed = 500;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto opts = small_options(++seed);
    opts.chunk_bytes = c.chunk_bytes;
    opts.packet_bytes = c.packet_bytes;
    opts.repair_strategy = c.repair;
    Testbed tb(opts, c.code);
    tb.flag_stf();
    auto planner = tb.make_planner(core::Scenario::kScattered);
    const auto plan = c.migration_only ? planner.plan_migration_only()
                                       : planner.plan_reconstruction_only();
    ASSERT_GT(plan.total_repaired(), 0);
    prefill_chunk_pool(c.chunk_bytes, plan.total_repaired(), seed);

    const auto before = BufferPool::chunks()->stats();
    const auto report = tb.execute(plan);
    const auto after = BufferPool::chunks()->stats();
    ASSERT_TRUE(report.success) << (report.errors.empty()
                                        ? ""
                                        : report.errors.front());
    EXPECT_EQ(report.repaired(), plan.total_repaired());
    // Every chunk was folded into one of the garbage buffers.
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_GE(after.hits - before.hits, plan.total_repaired());
    EXPECT_TRUE(tb.verify(report, plan));
  }
}

TEST(Testbed, RepeatedEvacuationTakesNoChunkPoolMisses) {
  // What the unshaped repair speedup rests on: the stores of a torn-down
  // testbed hand their chunk buffers back, so a second identical
  // evacuation in the same process folds every chunk into memory that
  // the first one already faulted in.
  ec::RsCode code(6, 4);
  const auto opts = small_options(21);
  BufferPool::chunks()->trim();
  int64_t misses[2] = {0, 0};
  for (int64_t& run_misses : misses) {
    Testbed tb(opts, code);
    tb.flag_stf();
    const auto plan =
        tb.make_planner(core::Scenario::kScattered).plan_fastpr();
    const int64_t before = BufferPool::chunks()->stats().misses;
    const auto report = tb.execute(plan);
    run_misses = BufferPool::chunks()->stats().misses - before;
    ASSERT_TRUE(report.success);
    EXPECT_TRUE(tb.verify(report, plan));
  }
  EXPECT_GT(misses[0], 0);
  EXPECT_EQ(misses[1], 0);
}

TEST(Testbed, TrafficAmplificationMatchesTheory) {
  // The paper's core premise in bytes: migrating U chunks moves ~U*c
  // over the network, reconstructing them moves ~k*U*c.
  ec::RsCode code(6, 4);
  auto opts = small_options(88);
  const double c = static_cast<double>(opts.chunk_bytes);

  int64_t migration_bytes = 0, reconstruction_bytes = 0;
  int repaired = 0;
  {
    agent::Testbed tb(opts, code);
    tb.flag_stf();
    auto planner = tb.make_planner(core::Scenario::kScattered);
    const auto plan = planner.plan_migration_only();
    const auto report = tb.execute(plan);
    ASSERT_TRUE(report.success);
    migration_bytes = report.network_bytes;
    repaired = report.repaired();
  }
  {
    agent::Testbed tb(opts, code);
    tb.flag_stf();
    auto planner = tb.make_planner(core::Scenario::kScattered);
    const auto plan = planner.plan_reconstruction_only();
    const auto report = tb.execute(plan);
    ASSERT_TRUE(report.success);
    reconstruction_bytes = report.network_bytes;
  }
  ASSERT_GT(repaired, 0);
  // Small slack for packet headers.
  EXPECT_NEAR(static_cast<double>(migration_bytes), repaired * c,
              repaired * c * 0.05);
  EXPECT_NEAR(static_cast<double>(reconstruction_bytes),
              4.0 * repaired * c, repaired * c * 0.2);
  EXPECT_NEAR(static_cast<double>(reconstruction_bytes) /
                  static_cast<double>(migration_bytes),
              4.0, 0.2);
}

}  // namespace
}  // namespace fastpr::agent
