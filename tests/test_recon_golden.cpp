// Golden digests of Algorithm 1's output. Every entry pins the exact
// reconstruction sets — members and their order, set order, accepted
// swaps and sweep additions — or the exact plan built from them, for one
// seeded cluster and configuration. The digests are those of the
// exhaustive swap search, which probes every (i, j, l); any pruning of
// it must reproduce them, because Algorithm 1 reads only MATCH outcomes
// and those depend on the candidate set alone, never on the matching
// found.
//
// The PlanGolden tests pin every planner mode the same way: predictive
// plans under each option that reaches Algorithm 2 or placement, both
// baselines, batch plans (joint and sequential), reactive plans, the
// testbed's round predictions and one lifetime report. They were
// recorded while single-STF, batch and reactive planning still ran on
// separate code paths, so they are the contract any consolidation of
// those paths must keep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "agent/testbed.h"
#include "cluster/cluster_state.h"
#include "cluster/stripe_layout.h"
#include "core/fastpr.h"
#include "core/recon_sets.h"
#include "core/repair_plan.h"
#include "ec/lrc_code.h"
#include "ec/rs_code.h"
#include "lifetime/lifetime_sim.h"
#include "net/topology.h"
#include "util/rng.h"
#include "util/units.h"

namespace fastpr {
namespace {

using cluster::ChunkRef;
using cluster::NodeId;
using Sets = std::vector<std::vector<ChunkRef>>;

/// FNV-1a over a stream of integers.
class Digest {
 public:
  void add(int64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= static_cast<uint64_t>(value >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(ChunkRef chunk) {
    add(chunk.stripe);
    add(chunk.index);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

uint64_t digest_sets(const Sets& sets, const core::ReconSetStats& stats) {
  Digest d;
  for (const auto& set : sets) {
    d.add(-1);
    for (ChunkRef chunk : set) d.add(chunk);
  }
  d.add(stats.swaps);
  d.add(stats.sweep_adds);
  return d.value();
}

uint64_t digest_plan(const core::RepairPlan& plan) {
  Digest d;
  for (const auto& round : plan.rounds) {
    d.add(-1);
    d.add(static_cast<int>(round.strategy));
    for (const auto& task : round.reconstructions) {
      d.add(task.chunk);
      d.add(task.dst);
      d.add(static_cast<int>(task.strategy));
      for (const auto& read : task.sources) {
        d.add(read.node);
        d.add(read.chunk);
      }
    }
    for (const auto& task : round.migrations) {
      d.add(task.chunk);
      d.add(task.src);
      d.add(task.dst);
    }
  }
  return d.value();
}

/// Storage nodes ordered by load, heaviest first, ties to lower id.
std::vector<NodeId> by_load(const cluster::StripeLayout& layout) {
  std::vector<NodeId> nodes(static_cast<size_t>(layout.num_nodes()));
  for (NodeId node = 0; node < layout.num_nodes(); ++node) {
    nodes[static_cast<size_t>(node)] = node;
  }
  std::stable_sort(nodes.begin(), nodes.end(), [&](NodeId a, NodeId b) {
    return layout.load(a) > layout.load(b);
  });
  return nodes;
}

std::vector<NodeId> all_except(int num_nodes,
                               const std::vector<NodeId>& excluded) {
  std::vector<NodeId> nodes;
  for (NodeId node = 0; node < num_nodes; ++node) {
    if (std::find(excluded.begin(), excluded.end(), node) ==
        excluded.end()) {
      nodes.push_back(node);
    }
  }
  return nodes;
}

/// Algorithm 1 on the most-loaded node of a random RS layout.
uint64_t single_stf_digest(int num_nodes, int n, int k, int stripes,
                           uint64_t seed,
                           const core::ReconSetOptions& options) {
  Rng rng(seed);
  const auto layout = cluster::StripeLayout::random(num_nodes, n, stripes,
                                                    rng);
  const NodeId stf = by_load(layout).front();
  core::ReconSetStats stats;
  const auto sets = core::find_reconstruction_sets(
      layout, stf, all_except(num_nodes, {stf}), k, options, &stats);
  return digest_sets(sets, stats);
}

struct Golden {
  uint64_t seed;
  uint64_t digest;
};

TEST(ReconSetsGolden, RsPaperScale) {
  // The paper's simulation cluster: M = 100, RS(9,6), ~100 chunks on the
  // STF node (Fig 15's low end).
  for (const Golden g : {Golden{1, 13859661136573860337ULL},
                         Golden{2, 14639418828515952753ULL},
                         Golden{3, 11200784613865444768ULL}}) {
    SCOPED_TRACE("seed " + std::to_string(g.seed));
    EXPECT_EQ(single_stf_digest(100, 9, 6, 1000, g.seed, {}), g.digest);
  }
}

TEST(ReconSetsGolden, WithoutSwapOptimization) {
  core::ReconSetOptions options;
  options.optimize = false;
  for (const Golden g : {Golden{1, 7014409184980840821ULL},
                         Golden{2, 4300068353632938916ULL},
                         Golden{3, 1496293925832513990ULL}}) {
    SCOPED_TRACE("seed " + std::to_string(g.seed));
    EXPECT_EQ(single_stf_digest(100, 9, 6, 1000, g.seed, options), g.digest);
  }
}

TEST(ReconSetsGolden, ChunkGroups) {
  core::ReconSetOptions options;
  options.chunk_group_size = 25;
  for (const Golden g : {Golden{1, 403096347008172424ULL},
                         Golden{2, 10984385226560113209ULL},
                         Golden{3, 9302227267192083405ULL}}) {
    SCOPED_TRACE("seed " + std::to_string(g.seed));
    EXPECT_EQ(single_stf_digest(100, 9, 6, 1000, g.seed, options), g.digest);
  }
}

TEST(ReconSetsGolden, Deprioritized) {
  for (const Golden g : {Golden{1, 17336436423706366530ULL},
                         Golden{2, 3718806013930837382ULL},
                         Golden{3, 12905593988762365315ULL}}) {
    SCOPED_TRACE("seed " + std::to_string(g.seed));
    Rng rng(g.seed);
    const auto layout = cluster::StripeLayout::random(40, 9, 400, rng);
    const auto order = by_load(layout);
    core::ReconSetOptions options;
    options.deprioritized = {order[1], order[2], order[3]};
    core::ReconSetStats stats;
    const auto sets = core::find_reconstruction_sets(
        layout, order[0], all_except(40, {order[0]}), 6, options, &stats);
    EXPECT_EQ(digest_sets(sets, stats), g.digest);
  }
}

TEST(ReconSetsGolden, RackTopology) {
  const net::Topology topo(20, 2, net::Oversub(4.0));
  for (const Golden g : {Golden{1, 12115867838238139576ULL},
                         Golden{2, 13044825283108578307ULL},
                         Golden{3, 3199573730609127671ULL}}) {
    SCOPED_TRACE("seed " + std::to_string(g.seed));
    Rng rng(g.seed);
    const auto layout =
        cluster::StripeLayout::random_racked(40, 9, 400, 2, rng);
    const NodeId stf = by_load(layout).front();
    core::ReconSetOptions options;
    options.topology = &topo;
    core::ReconSetStats stats;
    const auto sets = core::find_reconstruction_sets(
        layout, stf, all_except(40, {stf}), 6, options, &stats);
    EXPECT_EQ(digest_sets(sets, stats), g.digest);
  }
}

TEST(ReconSetsGolden, LrcCode) {
  // LRC(12,2,2): n = 16, k' = 6 helpers drawn from the local group.
  const ec::LrcCode code(12, 2, 2);
  for (const Golden g : {Golden{1, 6451386922138762493ULL},
                         Golden{2, 8049659041914644244ULL},
                         Golden{3, 5987899865748859099ULL}}) {
    SCOPED_TRACE("seed " + std::to_string(g.seed));
    Rng rng(g.seed);
    const auto layout = cluster::StripeLayout::random(40, code.n(), 300, rng);
    const NodeId stf = by_load(layout).front();
    core::ReconSetStats stats;
    const auto sets = core::find_reconstruction_sets(
        layout, stf, all_except(40, {stf}), code.repair_fetch_count(0), {},
        &stats, &code);
    EXPECT_EQ(digest_sets(sets, stats), g.digest);
  }
}

TEST(ReconSetsGolden, MultiStfUnion) {
  // The union of a two-node batch's chunks whose stripes keep k' healthy
  // helpers — Algorithm 1's input in the joint batch planner.
  for (const Golden g : {Golden{1, 4686502997128994986ULL},
                         Golden{2, 6696811746639285513ULL},
                         Golden{3, 17786914247758398551ULL}}) {
    SCOPED_TRACE("seed " + std::to_string(g.seed));
    Rng rng(g.seed);
    const auto layout = cluster::StripeLayout::random(40, 9, 400, rng);
    const auto order = by_load(layout);
    const std::vector<NodeId> batch{order[0], order[1]};
    const auto healthy = all_except(40, batch);
    std::vector<ChunkRef> chunks;
    for (NodeId member : batch) {
      for (ChunkRef chunk : layout.chunks_on(member)) {
        int helpers = 0;
        for (NodeId node : healthy) {
          helpers += layout.stripe_uses_node(chunk.stripe, node) ? 1 : 0;
        }
        if (helpers >= 6) chunks.push_back(chunk);
      }
    }
    core::ReconSetStats stats;
    const auto sets = core::find_reconstruction_sets_for(
        chunks, layout, healthy, 6, {}, &stats);
    EXPECT_EQ(digest_sets(sets, stats), g.digest);
  }
}

/// The paper's simulation cluster with its most-loaded node(s) flagged.
struct PaperCluster {
  cluster::StripeLayout layout;
  cluster::ClusterState state;
  PaperCluster(uint64_t seed, int stripes, int flagged)
      : layout([&] {
          Rng rng(seed);
          return cluster::StripeLayout::random(100, 9, stripes, rng);
        }()),
        state(100, 3, cluster::BandwidthProfile{MBps(100), Gbps(1)}) {
    const auto order = by_load(layout);
    for (int i = 0; i < flagged; ++i) {
      state.set_health(order[static_cast<size_t>(i)],
                       cluster::NodeHealth::kSoonToFail);
    }
  }
};

core::PlannerOptions paper_options() {
  core::PlannerOptions options;
  options.scenario = core::Scenario::kScattered;
  options.k_repair = 6;
  options.chunk_bytes = static_cast<double>(MB(64));
  return options;
}

TEST(ReconSetsGolden, PlannerPlans) {
  // plan_fastpr, then the bandwidth replan of its second half around the
  // two next-most-loaded nodes, then a two-node batch plan.
  const PaperCluster single(1, 900, 1);
  core::FastPrPlanner planner(single.layout, single.state, paper_options());
  const auto plan = planner.plan_fastpr();
  EXPECT_EQ(digest_plan(plan), 3796293195437472492ULL);

  std::vector<ChunkRef> handled;
  for (size_t r = 0; r < (plan.rounds.size() + 1) / 2; ++r) {
    for (const auto& task : plan.rounds[r].reconstructions) {
      handled.push_back(task.chunk);
    }
    for (const auto& task : plan.rounds[r].migrations) {
      handled.push_back(task.chunk);
    }
  }
  const auto order = by_load(single.layout);
  core::FastPrPlanner replanner(single.layout, single.state,
                                paper_options());
  EXPECT_EQ(digest_plan(replanner.plan_fastpr_remaining(
                handled, {order[1], order[2]})),
            11502752430148121843ULL);

  const PaperCluster pair(2, 300, 2);
  core::FastPrPlanner batch(pair.layout, pair.state, paper_options());
  EXPECT_EQ(digest_plan(batch.plan_fastpr()), 17974459476939857931ULL);
}

// ---------------------------------------------------------------------------
// Plan goldens

cluster::StripeLayout random_layout(int num_nodes, int n, int stripes,
                                    uint64_t seed) {
  Rng rng(seed);
  return cluster::StripeLayout::random(num_nodes, n, stripes, rng);
}

/// `layout` with its `flagged` most-loaded nodes flagged soon-to-fail.
struct Flagged {
  cluster::StripeLayout layout;
  cluster::ClusterState state;
  std::vector<NodeId> order;  // by load, heaviest first
  Flagged(cluster::StripeLayout l, int flagged, int spares = 3)
      : layout(std::move(l)),
        state(layout.num_nodes(), spares,
              cluster::BandwidthProfile{MBps(100), Gbps(1)}),
        order(by_load(layout)) {
    for (int i = 0; i < flagged; ++i) {
      state.set_health(order[static_cast<size_t>(i)],
                       cluster::NodeHealth::kSoonToFail);
    }
  }
};

core::PlannerOptions options_for(core::Scenario scenario) {
  core::PlannerOptions options = paper_options();
  options.scenario = scenario;
  return options;
}

template <typename Reactive>
uint64_t digest_reactive(const Reactive& result) {
  Digest d;
  d.add(static_cast<int64_t>(digest_plan(result.plan)));
  for (ChunkRef chunk : result.unrepairable) d.add(chunk);
  d.add(result.degraded_repairs);
  return d.value();
}

/// The chunks the first `rounds` rounds of `plan` repair.
std::vector<ChunkRef> handled_by(const core::RepairPlan& plan,
                                 size_t rounds) {
  std::vector<ChunkRef> handled;
  for (size_t r = 0; r < rounds && r < plan.rounds.size(); ++r) {
    for (const auto& task : plan.rounds[r].reconstructions) {
      handled.push_back(task.chunk);
    }
    for (const auto& task : plan.rounds[r].migrations) {
      handled.push_back(task.chunk);
    }
  }
  return handled;
}

TEST(PlanGolden, FastPrOptions) {
  const Flagged rs(random_layout(40, 9, 300, 4), 1);
  const auto fastpr = [&](const core::PlannerOptions& options) {
    core::FastPrPlanner planner(rs.layout, rs.state, options);
    return digest_plan(planner.plan_fastpr());
  };
  const auto scattered = options_for(core::Scenario::kScattered);
  const auto hot = options_for(core::Scenario::kHotStandby);
  EXPECT_EQ(fastpr(scattered), 11521454413816838477ULL);
  EXPECT_EQ(fastpr(hot), 10994229790373328197ULL);

  for (const auto& base : {scattered, hot}) {
    SCOPED_TRACE(core::to_string(base.scenario));
    auto chain = base;
    chain.packet_bytes = static_cast<double>(256 * kKiB);
    chain.chain_hop_overhead_seconds = 2e-4;
    chain.sched.strategy = core::StrategyChoice::kChain;
    // A dearer hop makes kAuto pick fan-in for small hot-standby rounds.
    auto autos = chain;
    autos.chain_hop_overhead_seconds = 5e-3;
    autos.sched.strategy = core::StrategyChoice::kAuto;
    auto no_quota = base;
    no_quota.sched.fixed_migration_quota = 0;
    auto quota3 = base;
    quota3.sched.fixed_migration_quota = 3;
    auto balanced = base;
    balanced.balance_destinations = true;
    const bool is_hot = base.scenario == core::Scenario::kHotStandby;
    EXPECT_EQ(fastpr(chain), is_hot ? 14983531898543259407ULL
                                    : 12241432699873210273ULL);
    EXPECT_EQ(fastpr(autos), is_hot ? 2297604378944134693ULL
                                    : 12241432699873210273ULL);
    EXPECT_EQ(fastpr(no_quota), is_hot ? 16066105524019767737ULL
                                       : 11741034098693137672ULL);
    EXPECT_EQ(fastpr(quota3), is_hot ? 13740678304518429685ULL
                                     : 13265280467235905487ULL);
    EXPECT_EQ(fastpr(balanced), is_hot ? 10994229790373328197ULL
                                       : 5835467067544258774ULL);
  }
}

TEST(PlanGolden, FastPrLrcAndRacks) {
  const ec::LrcCode code(12, 2, 2);
  const Flagged lrc(random_layout(40, code.n(), 300, 5), 1);
  const net::Topology topo(20, 2, net::Oversub(4.0));
  Rng rng(6);
  const Flagged racked(
      cluster::StripeLayout::random_racked(40, 9, 400, 2, rng), 1);
  for (auto scenario :
       {core::Scenario::kScattered, core::Scenario::kHotStandby}) {
    SCOPED_TRACE(core::to_string(scenario));
    const bool is_hot = scenario == core::Scenario::kHotStandby;
    auto lrc_options = options_for(scenario);
    lrc_options.code = &code;
    lrc_options.k_repair = code.repair_fetch_count(0);
    core::FastPrPlanner lrc_planner(lrc.layout, lrc.state, lrc_options);
    EXPECT_EQ(digest_plan(lrc_planner.plan_fastpr()),
              is_hot ? 12949229483155108043ULL : 3233350668562316710ULL);

    auto rack_options = options_for(scenario);
    rack_options.topology = &topo;
    core::FastPrPlanner rack_planner(racked.layout, racked.state,
                                     rack_options);
    EXPECT_EQ(digest_plan(rack_planner.plan_fastpr()),
              is_hot ? 1001954091445752037ULL : 17645643904964101761ULL);
  }
}

TEST(PlanGolden, Baselines) {
  const Flagged rs(random_layout(40, 9, 300, 7), 1);
  for (auto scenario :
       {core::Scenario::kScattered, core::Scenario::kHotStandby}) {
    SCOPED_TRACE(core::to_string(scenario));
    const bool is_hot = scenario == core::Scenario::kHotStandby;
    core::FastPrPlanner planner(rs.layout, rs.state, options_for(scenario));
    EXPECT_EQ(digest_plan(planner.plan_reconstruction_only()),
              is_hot ? 1983006673286875292ULL : 12407979071372824192ULL);
    EXPECT_EQ(digest_plan(planner.plan_migration_only()),
              is_hot ? 16297545699193842114ULL : 18440648463381500363ULL);
  }
}

TEST(PlanGolden, Batches) {
  // Joint and sequential batch plans at B = 2 and 3 in both scenarios
  // (three spares admit a hot-standby batch of three).
  struct Case {
    int batch;
    core::Scenario scenario;
    uint64_t joint;
    uint64_t sequential;
  };
  for (const Case c :
       {Case{2, core::Scenario::kScattered, 18009536443349186185ULL,
             11322811060319369858ULL},
        Case{3, core::Scenario::kScattered, 9773212042344801754ULL,
             18424894777300692973ULL},
        Case{2, core::Scenario::kHotStandby, 17436371403457612538ULL,
             5065961430437170922ULL},
        Case{3, core::Scenario::kHotStandby, 16382974414961206596ULL,
             16648832355765946683ULL}}) {
    SCOPED_TRACE("B=" + std::to_string(c.batch) + " " +
                 core::to_string(c.scenario));
    const Flagged rs(random_layout(40, 9, 300, 8), c.batch);
    core::FastPrPlanner planner(rs.layout, rs.state,
                                options_for(c.scenario));
    EXPECT_EQ(digest_plan(planner.plan_fastpr()), c.joint);
    EXPECT_EQ(digest_plan(planner.plan_sequential()), c.sequential);
  }
}

TEST(PlanGolden, BatchForcedMigrations) {
  // Stripe 0 keeps 3 < k' = 4 healthy helpers once {0, 1, 2} are
  // flagged, so its three batch chunks must migrate; on the random
  // RS(6,4) layout a three-node batch starves some stripes the same way.
  cluster::StripeLayout layout(12, 6);
  layout.add_stripe({0, 1, 2, 3, 4, 5});
  layout.add_stripe({0, 6, 7, 8, 9, 10});
  layout.add_stripe({1, 6, 7, 8, 9, 11});
  layout.add_stripe({2, 5, 7, 8, 10, 11});
  layout.add_stripe({3, 4, 6, 8, 9, 10});
  cluster::ClusterState state(12, 3,
                              cluster::BandwidthProfile{MBps(100), Gbps(1)});
  for (NodeId member : {0, 1, 2}) {
    state.set_health(member, cluster::NodeHealth::kSoonToFail);
  }
  auto options = paper_options();
  options.k_repair = 4;
  core::FastPrPlanner small(layout, state, options);
  EXPECT_EQ(digest_plan(small.plan_fastpr()), 1540103202006631130ULL);
  EXPECT_EQ(digest_plan(small.plan_sequential()), 15376547910426751523ULL);

  const Flagged rs(random_layout(16, 6, 200, 9), 3);
  const auto healthy = rs.state.healthy_storage_nodes();
  int starved = 0;
  for (size_t m = 0; m < 3; ++m) {
    for (ChunkRef chunk : rs.layout.chunks_on(rs.order[m])) {
      int helpers = 0;
      for (NodeId node : healthy) {
        helpers += rs.layout.stripe_uses_node(chunk.stripe, node) ? 1 : 0;
      }
      starved += helpers < options.k_repair ? 1 : 0;
    }
  }
  EXPECT_GT(starved, 0);
  core::FastPrPlanner planner(rs.layout, rs.state, options);
  EXPECT_EQ(digest_plan(planner.plan_fastpr()), 8520352391371197366ULL);
  EXPECT_EQ(digest_plan(planner.plan_sequential()), 1035434750675986050ULL);
}

TEST(PlanGolden, ReactiveBatchOfOne) {
  // The STF node dies after the first two rounds, with the next
  // most-loaded node (which shares stripes with it) already dead.
  const ec::LrcCode code(12, 2, 2);
  const Flagged rs(random_layout(40, 9, 300, 10), 1);
  const Flagged lrc(random_layout(40, code.n(), 300, 11), 1);
  for (auto scenario :
       {core::Scenario::kScattered, core::Scenario::kHotStandby}) {
    SCOPED_TRACE(core::to_string(scenario));
    const bool is_hot = scenario == core::Scenario::kHotStandby;
    core::FastPrPlanner planner(rs.layout, rs.state, options_for(scenario));
    const auto handled = handled_by(planner.plan_fastpr(), 2);
    EXPECT_EQ(digest_reactive(planner.plan_reactive(handled, {rs.order[1]})),
              is_hot ? 16629193620494557330ULL : 1692233979068840341ULL);

    auto lrc_options = options_for(scenario);
    lrc_options.code = &code;
    lrc_options.k_repair = code.repair_fetch_count(0);
    core::FastPrPlanner lrc_planner(lrc.layout, lrc.state, lrc_options);
    const auto lrc_result = lrc_planner.plan_reactive({}, {lrc.order[1]});
    EXPECT_GT(lrc_result.degraded_repairs, 0);
    EXPECT_EQ(digest_reactive(lrc_result),
              is_hot ? 17745147539894077310ULL : 3188929509601457866ULL);
  }
}

TEST(PlanGolden, PredictRounds) {
  struct Expected {
    int cr;
    int cm;
    double duration;
    double tr;
    double tm;
  };
  const auto check = [](const std::vector<telemetry::PredictedRound>& got,
                        const std::vector<Expected>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t r = 0; r < got.size(); ++r) {
      SCOPED_TRACE("round " + std::to_string(r));
      EXPECT_EQ(got[r].cr, want[r].cr);
      EXPECT_EQ(got[r].cm, want[r].cm);
      EXPECT_DOUBLE_EQ(got[r].duration_seconds, want[r].duration);
      EXPECT_DOUBLE_EQ(got[r].tr_seconds, want[r].tr);
      EXPECT_DOUBLE_EQ(got[r].tm_seconds, want[r].tm);
    }
  };
  // tr of a two-chunk round and tm, at 64 KiB chunks on the shaped
  // testbed (35.5 MB/s disk, 1.25 Gb/s NIC).
  constexpr double kRound = 0.0051988483605633802;
  constexpr double kTm = 0.0039405571605633802;
  const ec::RsCode code(6, 4);
  agent::TestbedOptions opts;
  opts.num_storage = 12;
  opts.num_standby = 2;
  opts.disk_bytes_per_sec = MBps(142) / 4;
  opts.net_bytes_per_sec = Gbps(5) / 4;
  opts.chunk_bytes = 64 * kKiB;
  opts.packet_bytes = 16 * kKiB;
  opts.num_stripes = 20;
  opts.seed = 5;
  {
    agent::Testbed tb(opts, code);
    tb.flag_stf();
    const auto plan =
        tb.make_planner(core::Scenario::kScattered).plan_fastpr();
    // One member: every migration leaves the same disk.
    check(tb.predict_rounds(plan, core::Scenario::kScattered),
          {{2, 1, kRound, kRound, kTm},
           {2, 1, kRound, kRound, kTm},
           {2, 1, kRound, kRound, kTm},
           {2, 1, kRound, kRound, kTm},
           {2, 0, kRound, kRound, 0}});
  }
  for (auto scenario :
       {core::Scenario::kScattered, core::Scenario::kHotStandby}) {
    SCOPED_TRACE(core::to_string(scenario));
    agent::Testbed tb(opts, code);
    tb.flag_stf_batch(2);
    const auto plan = tb.make_planner(scenario).plan_fastpr();
    // Two members: a round's migrations split over two disks, so tm is
    // the busier stream's, not cm·tm.
    std::vector<Expected> want = {{2, 2, kRound, kRound, kTm},
                                  {2, 2, kRound, kRound, kTm},
                                  {2, 2, kRound, kRound, kTm},
                                  {2, 2, kRound, kRound, kTm},
                                  {2, 1, kRound, kRound, kTm},
                                  {2, 1, kRound, kRound, kTm}};
    if (scenario == core::Scenario::kScattered) {
      want.insert(want.end(), 2, Expected{1, 1, kRound, kRound, kTm});
    } else {
      // One reconstruction into the two spares, nothing migrating.
      constexpr double kSingle = 0.0034797058704225353;
      want.insert(want.end(), 4, Expected{1, 0, kSingle, kSingle, 0});
    }
    check(tb.predict_rounds(plan, scenario), want);
  }
}

TEST(PlanGolden, LifetimeReport) {
  // Predictive repair for flagged nodes, reactive repair for the rest.
  lifetime::LifetimeConfig cfg;
  cfg.num_nodes = 40;
  cfg.n = 9;
  cfg.k = 6;
  cfg.num_stripes = 200;
  cfg.chunk_bytes = static_cast<double>(MB(64));
  cfg.disk_bw = MBps(100);
  cfg.net_bw = Gbps(1);
  cfg.sim_days = 365;
  cfg.node_mtbf_days = 600;
  cfg.prediction_recall = 0.7;
  cfg.seed = 11;
  const auto report = lifetime::simulate_lifetime(cfg);
  EXPECT_EQ(report.failures, 21);
  EXPECT_EQ(report.predicted, 16);
  EXPECT_EQ(report.completed_in_time, 16);
  EXPECT_EQ(report.false_alarms, 1);
  EXPECT_EQ(report.data_loss_stripes, 0);
  EXPECT_EQ(report.repair_traffic_chunks, 4895);
  EXPECT_EQ(report.repair_seconds.count(), 22u);
  EXPECT_DOUBLE_EQ(report.vulnerability_seconds, 216.05882265600005);
  EXPECT_DOUBLE_EQ(report.degraded_stripe_seconds, 9722.6470195200018);
  EXPECT_DOUBLE_EQ(report.repair_seconds.sum(), 697.68994816000009);
  EXPECT_DOUBLE_EQ(report.repair_seconds.max(), 45.012254720000008);
}

}  // namespace
}  // namespace fastpr
