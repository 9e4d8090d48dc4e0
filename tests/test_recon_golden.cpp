// Golden digests of Algorithm 1's output. Every entry pins the exact
// reconstruction sets — members and their order, set order, accepted
// swaps and sweep additions — or the exact plan built from them, for one
// seeded cluster and configuration. The digests are those of the
// exhaustive swap search, which probes every (i, j, l); any pruning of
// it must reproduce them, because Algorithm 1 reads only MATCH outcomes
// and those depend on the candidate set alone, never on the matching
// found.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_state.h"
#include "cluster/stripe_layout.h"
#include "core/fastpr.h"
#include "core/multi_stf.h"
#include "core/recon_sets.h"
#include "core/repair_plan.h"
#include "ec/lrc_code.h"
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

TEST(ReconSetsGolden, HelperCapacityTwo) {
  core::ReconSetOptions options;
  options.helper_reads_per_node = 2;
  for (const Golden g : {Golden{1, 6250764983743333658ULL},
                         Golden{2, 13946101346427084740ULL},
                         Golden{3, 14118983303754341701ULL}}) {
    SCOPED_TRACE("seed " + std::to_string(g.seed));
    EXPECT_EQ(single_stf_digest(40, 8, 6, 300, g.seed, options), g.digest);
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
  core::MultiStfPlanner batch(pair.layout, pair.state, paper_options());
  EXPECT_EQ(digest_plan(batch.plan_fastpr()), 17974459476939857931ULL);
}

}  // namespace
}  // namespace fastpr
