// Property suite for Algorithm 1 and §IV-A placement (DESIGN.md §9),
// swept over seeded random clusters:
//
//  * every reconstruction set — single-STF and multi-STF — admits a
//    saturating helper matching per the EXPONENTIAL oracle
//    (matching/brute_force), independent of the incremental matcher
//    the planner uses;
//  * every set is maximal: no chunk from a later set could have been
//    added (unless the set already sits at the configured cap);
//  * both again at Fig 15's scale (M = 100, |C| = 300), checked with
//    the incremental matcher instead of the oracle;
//  * no plan ever lands two chunks of one stripe on the same node,
//    across rounds and batch members (§IV-A, DESIGN.md §9.3).
//
// The seed window comes from FASTPR_PROPERTY_SEED_BASE/_COUNT (nightly
// CI widens it); every assertion carries the reproducing seed via
// SCOPED_TRACE. Cluster sizes are chosen so oracle instances stay
// within brute force's 14-right-vertex limit: k' = 3 bounds a set's
// helper slots at 6, and a grown set (maximality probe) at 9.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster_state.h"
#include "cluster/stripe_layout.h"
#include "core/multi_stf.h"
#include "core/recon_sets.h"
#include "core/repair_plan.h"
#include "matching/brute_force.h"
#include "net/topology.h"
#include "util/rng.h"
#include "util/units.h"

namespace fastpr {
namespace {

using cluster::ChunkRef;
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
  return static_cast<int>(env_u64("FASTPR_PROPERTY_SEED_COUNT", 6));
}

/// The `count` most-loaded storage nodes, ties to lower id — the same
/// pick Testbed::flag_stf_batch and sim::run_multi_experiment make.
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

std::vector<NodeId> healthy_except(int num_nodes,
                                   const std::vector<NodeId>& excluded) {
  std::vector<NodeId> healthy;
  for (NodeId node = 0; node < num_nodes; ++node) {
    bool out = false;
    for (NodeId e : excluded) out = out || e == node;
    if (!out) healthy.push_back(node);
  }
  return healthy;
}

/// Exact feasibility oracle: k'·|set| helper reads admit a saturating
/// matching onto the healthy nodes, each node serving at most
/// `reads_per_node` (capacity modeled by duplicating left vertices).
/// Every helper candidate of a set chunk is a healthy node holding a
/// surviving chunk of its stripe.
bool oracle_feasible(const cluster::StripeLayout& layout,
                     const std::vector<NodeId>& healthy, int k_repair,
                     int reads_per_node, const std::vector<ChunkRef>& set) {
  matching::BipartiteGraph graph;
  graph.left_count = static_cast<int>(healthy.size()) * reads_per_node;
  int slots = 0;
  for (ChunkRef chunk : set) {
    std::vector<int> adjacency;
    for (size_t i = 0; i < healthy.size(); ++i) {
      if (!layout.stripe_uses_node(chunk.stripe, healthy[i])) continue;
      for (int copy = 0; copy < reads_per_node; ++copy) {
        adjacency.push_back(static_cast<int>(i) * reads_per_node + copy);
      }
    }
    for (int slot = 0; slot < k_repair; ++slot) {
      graph.add_right_vertex(adjacency);
      ++slots;
    }
  }
  return matching::brute_force_max_matching(graph) == slots;
}

/// Checks every set feasible, and maximal with respect to the chunks
/// Algorithm 1 had still available when the set was formed (the chunks
/// of all LATER sets). A set at the explicit `cap` is maximal by cap.
void expect_feasible_and_maximal(
    const cluster::StripeLayout& layout, const std::vector<NodeId>& healthy,
    int k_repair, int reads_per_node, int cap,
    const std::vector<std::vector<ChunkRef>>& sets) {
  for (size_t i = 0; i < sets.size(); ++i) {
    EXPECT_TRUE(
        oracle_feasible(layout, healthy, k_repair, reads_per_node, sets[i]))
        << "set " << i << " is not a valid reconstruction set";
    if (cap > 0 && static_cast<int>(sets[i].size()) >= cap) continue;
    for (size_t j = i + 1; j < sets.size(); ++j) {
      for (ChunkRef chunk : sets[j]) {
        std::vector<ChunkRef> grown = sets[i];
        grown.push_back(chunk);
        EXPECT_FALSE(oracle_feasible(layout, healthy, k_repair,
                                     reads_per_node, grown))
            << "set " << i << " is not maximal: chunk (" << chunk.stripe
            << "," << chunk.index << ") from set " << j << " still fits";
      }
    }
  }
}

/// Flattens the sets and checks they cover `expected` exactly.
void expect_exact_cover(const std::vector<std::vector<ChunkRef>>& sets,
                        const std::vector<ChunkRef>& expected) {
  std::set<std::pair<int, int>> covered;
  for (const auto& set : sets) {
    for (ChunkRef chunk : set) {
      EXPECT_TRUE(covered.emplace(chunk.stripe, chunk.index).second)
          << "chunk (" << chunk.stripe << "," << chunk.index
          << ") appears in two sets";
    }
  }
  std::set<std::pair<int, int>> want;
  for (ChunkRef chunk : expected) want.emplace(chunk.stripe, chunk.index);
  EXPECT_EQ(covered, want);
}

TEST(AlgorithmOneProperties, SingleStfSetsFeasibleAndMaximal) {
  for (int s = 0; s < seed_count(); ++s) {
    const uint64_t seed = seed_base() + static_cast<uint64_t>(s);
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " (override with FASTPR_PROPERTY_SEED_BASE)");
    Rng rng(seed);
    const auto layout = cluster::StripeLayout::random(
        /*num_nodes=*/8, /*chunks_per_stripe=*/5, /*num_stripes=*/20, rng);
    const NodeId stf = most_loaded(layout, 1).front();
    const auto healthy = healthy_except(8, {stf});
    const int k_repair = 3;

    const auto sets = core::find_reconstruction_sets(layout, stf, healthy,
                                                     k_repair);
    expect_exact_cover(sets, layout.chunks_on(stf));
    for (const auto& set : sets) {
      EXPECT_TRUE(core::is_valid_reconstruction_set(layout, stf, healthy,
                                                    k_repair, set));
    }
    expect_feasible_and_maximal(layout, healthy, k_repair,
                                /*reads_per_node=*/1, /*cap=*/0, sets);
  }
}

TEST(AlgorithmOneProperties, MultiStfUnionSetsFeasibleAndMaximal) {
  for (int s = 0; s < seed_count(); ++s) {
    const uint64_t seed = seed_base() + static_cast<uint64_t>(s);
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " (override with FASTPR_PROPERTY_SEED_BASE)");
    Rng rng(seed);
    const auto layout = cluster::StripeLayout::random(
        /*num_nodes=*/10, /*chunks_per_stripe=*/5, /*num_stripes=*/20, rng);
    const auto batch = most_loaded(layout, 2);
    const auto healthy = healthy_except(10, batch);
    const int k_repair = 3;

    // Union of the batch's chunks, member order — what the joint
    // planner feeds Algorithm 1. Stripes the batch itself starved below
    // k' healthy helpers are the planner's forced migrations, not
    // Algorithm-1 input.
    std::vector<ChunkRef> union_chunks;
    for (NodeId member : batch) {
      for (ChunkRef chunk : layout.chunks_on(member)) {
        int helpers = 0;
        for (NodeId node : healthy) {
          helpers += layout.stripe_uses_node(chunk.stripe, node) ? 1 : 0;
        }
        if (helpers >= k_repair) union_chunks.push_back(chunk);
      }
    }

    const auto sets = core::find_reconstruction_sets_for(
        union_chunks, layout, healthy, k_repair);
    expect_exact_cover(sets, union_chunks);
    expect_feasible_and_maximal(layout, healthy, k_repair,
                                /*reads_per_node=*/1, /*cap=*/0, sets);
  }
}

TEST(AlgorithmOneProperties, HelperCapacityTwoSetsFeasibleAndMaximal) {
  // DESIGN.md §8: the multi-STF planner may relax helper_reads_per_node.
  // The oracle models capacity 2 by duplicating every healthy node.
  for (int s = 0; s < seed_count(); ++s) {
    const uint64_t seed = seed_base() + static_cast<uint64_t>(s);
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " (override with FASTPR_PROPERTY_SEED_BASE)");
    Rng rng(seed);
    const auto layout = cluster::StripeLayout::random(
        /*num_nodes=*/8, /*chunks_per_stripe=*/5, /*num_stripes=*/20, rng);
    const NodeId stf = most_loaded(layout, 1).front();
    const auto healthy = healthy_except(8, {stf});
    const int k_repair = 3;

    core::ReconSetOptions options;
    options.helper_reads_per_node = 2;
    // Capacity 2 lifts the natural bound past what brute force can
    // verify; cap sets at 2 so a maximality probe stays at 9 slots.
    options.max_set_size = 2;
    const auto sets = core::find_reconstruction_sets(layout, stf, healthy,
                                                     k_repair, options);
    expect_exact_cover(sets, layout.chunks_on(stf));
    for (const auto& set : sets) {
      EXPECT_TRUE(core::is_valid_reconstruction_set(
          layout, stf, healthy, k_repair, set, /*code=*/nullptr,
          /*helper_reads_per_node=*/2));
    }
    expect_feasible_and_maximal(layout, healthy, k_repair,
                                /*reads_per_node=*/2, /*cap=*/2, sets);
  }
}

TEST(AlgorithmOneProperties, RackAwareSetsFeasibleAndMaximal) {
  // Rack-interleaved adjacency (ReconSetOptions.topology, DESIGN.md
  // §11) is pure preference: it reorders each chunk's helper
  // candidates but never removes one, so Algorithm 1's output must
  // stay feasible and maximal per the exponential oracle.
  for (int s = 0; s < seed_count(); ++s) {
    const uint64_t seed = seed_base() + static_cast<uint64_t>(s);
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " (override with FASTPR_PROPERTY_SEED_BASE)");
    Rng rng(seed);
    const auto layout = cluster::StripeLayout::random_racked(
        /*num_nodes=*/10, /*chunks_per_stripe=*/5, /*num_stripes=*/20,
        /*nodes_per_rack=*/2, rng);
    const NodeId stf = most_loaded(layout, 1).front();
    const auto healthy = healthy_except(10, {stf});
    const int k_repair = 3;
    const net::Topology topo(5, 2, net::Oversub(4.0));

    core::ReconSetOptions options;
    options.topology = &topo;
    const auto sets = core::find_reconstruction_sets(layout, stf, healthy,
                                                     k_repair, options);
    expect_exact_cover(sets, layout.chunks_on(stf));
    for (const auto& set : sets) {
      EXPECT_TRUE(core::is_valid_reconstruction_set(layout, stf, healthy,
                                                    k_repair, set));
    }
    expect_feasible_and_maximal(layout, healthy, k_repair,
                                /*reads_per_node=*/1, /*cap=*/0, sets);
  }
}

TEST(AlgorithmOneProperties, DeprioritizedSetsFeasibleAndMaximal) {
  // Deprioritized helpers (bandwidth-replan stragglers) are ordered
  // LAST in every adjacency, never excluded — same guarantee: the sets
  // keep the exact cover, feasibility, and maximality.
  for (int s = 0; s < seed_count(); ++s) {
    const uint64_t seed = seed_base() + static_cast<uint64_t>(s);
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " (override with FASTPR_PROPERTY_SEED_BASE)");
    Rng rng(seed);
    const auto layout = cluster::StripeLayout::random(
        /*num_nodes=*/8, /*chunks_per_stripe=*/5, /*num_stripes=*/20, rng);
    const NodeId stf = most_loaded(layout, 1).front();
    const auto healthy = healthy_except(8, {stf});
    const int k_repair = 3;

    core::ReconSetOptions options;
    options.deprioritized = {healthy[0], healthy[1]};
    const auto sets = core::find_reconstruction_sets(layout, stf, healthy,
                                                     k_repair, options);
    expect_exact_cover(sets, layout.chunks_on(stf));
    expect_feasible_and_maximal(layout, healthy, k_repair,
                                /*reads_per_node=*/1, /*cap=*/0, sets);
  }
}

TEST(AlgorithmOneProperties, PaperScaleSetsValidAndMaximal) {
  // Fig 15's middle point: M = 100, RS(9,6), the STF node in each of 300
  // stripes — the scale where the swap search prunes hardest. Brute
  // force cannot reach it, so feasibility and maximality go through
  // is_valid_reconstruction_set (the incremental matcher, pinned to
  // Hopcroft–Karp by test_matching) on each grown set.
  const int num_nodes = 100;
  const int k_repair = 6;
  const NodeId stf = 0;
  for (int s = 0; s < seed_count(); ++s) {
    const uint64_t seed = seed_base() + static_cast<uint64_t>(s);
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " (override with FASTPR_PROPERTY_SEED_BASE)");
    Rng rng(seed);
    cluster::StripeLayout layout(num_nodes, /*chunks_per_stripe=*/9);
    for (int stripe = 0; stripe < 300; ++stripe) {
      std::vector<NodeId> nodes{stf};
      for (int pick : rng.sample_distinct(num_nodes - 1, 8)) {
        nodes.push_back(pick + 1);
      }
      layout.add_stripe(nodes);
    }
    const auto healthy = healthy_except(num_nodes, {stf});
    const size_t cap = healthy.size() / k_repair;

    const auto sets = core::find_reconstruction_sets(layout, stf, healthy,
                                                     k_repair);
    expect_exact_cover(sets, layout.chunks_on(stf));
    for (size_t i = 0; i < sets.size(); ++i) {
      EXPECT_LE(sets[i].size(), cap);
      EXPECT_TRUE(core::is_valid_reconstruction_set(layout, stf, healthy,
                                                    k_repair, sets[i]))
          << "set " << i << " is not a valid reconstruction set";
      if (sets[i].size() >= cap) continue;
      for (size_t j = i + 1; j < sets.size(); ++j) {
        for (ChunkRef chunk : sets[j]) {
          std::vector<ChunkRef> grown = sets[i];
          grown.push_back(chunk);
          EXPECT_FALSE(core::is_valid_reconstruction_set(
              layout, stf, healthy, k_repair, grown))
              << "set " << i << " is not maximal: chunk (" << chunk.stripe
              << "," << chunk.index << ") from set " << j << " still fits";
        }
      }
    }
  }
}

/// §IV-A across the whole plan: destinations legal, never two repaired
/// chunks of one stripe on one node, sources and destinations never
/// batch members, migrations read from the member that owns the chunk.
void expect_placement_invariants(const core::RepairPlan& plan,
                                 const cluster::StripeLayout& layout,
                                 const std::vector<NodeId>& batch,
                                 core::Scenario scenario, int num_storage,
                                 int num_standby) {
  std::set<NodeId> batch_set(batch.begin(), batch.end());
  std::set<std::pair<int, NodeId>> stripe_dst;  // (stripe, destination)
  int covered = 0;
  const auto check_dst = [&](ChunkRef chunk, NodeId dst) {
    EXPECT_EQ(batch_set.count(dst), 0u) << "destination is a batch member";
    EXPECT_TRUE(stripe_dst.emplace(chunk.stripe, dst).second)
        << "two repaired chunks of stripe " << chunk.stripe << " on node "
        << dst;
    if (scenario == core::Scenario::kScattered) {
      EXPECT_LT(dst, num_storage);
      EXPECT_FALSE(layout.stripe_uses_node(chunk.stripe, dst))
          << "destination already holds a chunk of stripe " << chunk.stripe;
    } else {
      EXPECT_GE(dst, num_storage);
      EXPECT_LT(dst, num_storage + num_standby);
    }
  };
  for (const auto& round : plan.rounds) {
    for (const auto& task : round.migrations) {
      EXPECT_EQ(task.src, layout.node_of(task.chunk))
          << "migration does not read from the owning member disk";
      EXPECT_EQ(batch_set.count(task.src), 1u);
      check_dst(task.chunk, task.dst);
      ++covered;
    }
    for (const auto& task : round.reconstructions) {
      check_dst(task.chunk, task.dst);
      for (const auto& read : task.sources) {
        EXPECT_EQ(batch_set.count(read.node), 0u)
            << "helper read from a batch member";
        EXPECT_TRUE(layout.stripe_uses_node(task.chunk.stripe, read.node));
      }
      ++covered;
    }
  }
  int expected = 0;
  for (NodeId member : batch) expected += layout.load(member);
  EXPECT_EQ(covered, expected) << "plan does not cover the batch's chunks";
}

class PlacementPropertyTest
    : public ::testing::TestWithParam<core::Scenario> {};

TEST_P(PlacementPropertyTest, PlanNeverColocatesStripeChunks) {
  const core::Scenario scenario = GetParam();
  for (int s = 0; s < seed_count(); ++s) {
    const uint64_t seed = seed_base() + static_cast<uint64_t>(s);
    for (int batch_size = 1; batch_size <= 3; ++batch_size) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " batch=" +
                   std::to_string(batch_size) +
                   " (override with FASTPR_PROPERTY_SEED_BASE)");
      Rng rng(seed);
      // n=6, k'=4 with batches up to 3: a stripe losing 3 chunks to the
      // batch keeps only 3 < k' helpers, so the forced-migration path
      // (DESIGN.md §8) is exercised, not just the matched one.
      const int num_storage = 12;
      auto layout = cluster::StripeLayout::random(
          num_storage, /*chunks_per_stripe=*/6, /*num_stripes=*/30, rng);
      cluster::ClusterState state(
          num_storage, /*num_hot_standby=*/3,
          cluster::BandwidthProfile{MBps(100), Gbps(1)});
      const auto batch = most_loaded(layout, batch_size);
      for (NodeId member : batch) {
        state.set_health(member, cluster::NodeHealth::kSoonToFail);
      }
      core::PlannerOptions options;
      options.scenario = scenario;
      options.k_repair = 4;
      options.chunk_bytes = static_cast<double>(MB(4));
      core::MultiStfPlanner planner(layout, state, options);
      for (const auto& plan :
           {planner.plan_fastpr(), planner.plan_sequential()}) {
        core::validate_plan(plan, layout, state, options.k_repair);
        expect_placement_invariants(plan, layout, batch, scenario,
                                    num_storage, /*num_standby=*/3);
      }
    }
  }
}

/// Independent failure-domain check (DESIGN.md §11), deliberately NOT
/// via validate_plan: applies the plan's destinations to the layout and
/// asserts no rack ends up with two chunks of one stripe. Hot-standby
/// spares (ids >= num_storage) are exempt — dedicated overflow rack.
void expect_rack_disjoint_after_plan(const core::RepairPlan& plan,
                                     const cluster::StripeLayout& layout,
                                     const std::vector<NodeId>& batch,
                                     const net::Topology& topo,
                                     int num_storage) {
  const std::set<NodeId> batch_set(batch.begin(), batch.end());
  std::map<std::pair<int, int>, NodeId> dst;  // (stripe, index) -> dest
  for (const auto& round : plan.rounds) {
    for (const auto& task : round.migrations) {
      dst[{task.chunk.stripe, task.chunk.index}] = task.dst;
    }
    for (const auto& task : round.reconstructions) {
      dst[{task.chunk.stripe, task.chunk.index}] = task.dst;
    }
  }
  for (int stripe = 0; stripe < layout.num_stripes(); ++stripe) {
    std::set<int> racks;
    for (int index = 0; index < layout.chunks_per_stripe(); ++index) {
      const ChunkRef chunk{stripe, index};
      NodeId node = layout.node_of(chunk);
      if (batch_set.count(node) != 0) {
        const auto it = dst.find({stripe, index});
        ASSERT_NE(it, dst.end()) << "chunk (" << stripe << "," << index
                                 << ") of a batch member not repaired";
        node = it->second;
      }
      if (node >= num_storage) continue;  // spare: overflow rack, exempt
      EXPECT_TRUE(racks.insert(topo.rack_of(node)).second)
          << "stripe " << stripe << " has two chunks in rack "
          << topo.rack_of(node) << " after the plan applies";
    }
  }
}

TEST_P(PlacementPropertyTest, RackedPlanKeepsStripesRackDisjoint) {
  const core::Scenario scenario = GetParam();
  for (int s = 0; s < seed_count(); ++s) {
    const uint64_t seed = seed_base() + static_cast<uint64_t>(s);
    for (int batch_size = 1; batch_size <= 3; ++batch_size) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " batch=" +
                   std::to_string(batch_size) +
                   " (override with FASTPR_PROPERTY_SEED_BASE)");
      Rng rng(seed);
      // 12 racks x 2 with n=6: every stripe leaves 6 racks (12 nodes)
      // free, enough slack for the per-round greedy destination pick
      // even when a batch of 3 repairs several chunks of one stripe at
      // once; batch 3 on k'=4 still drives the forced-migration path.
      const int num_storage = 24;
      auto layout = cluster::StripeLayout::random_racked(
          num_storage, /*chunks_per_stripe=*/6, /*num_stripes=*/30,
          /*nodes_per_rack=*/2, rng);
      cluster::ClusterState state(
          num_storage, /*num_hot_standby=*/3,
          cluster::BandwidthProfile{MBps(100), Gbps(1)});
      const auto batch = most_loaded(layout, batch_size);
      for (NodeId member : batch) {
        state.set_health(member, cluster::NodeHealth::kSoonToFail);
      }
      const net::Topology topo(12, 2, net::Oversub(4.0));
      core::PlannerOptions options;
      options.scenario = scenario;
      options.k_repair = 4;
      options.chunk_bytes = static_cast<double>(MB(4));
      options.topology = &topo;
      core::MultiStfPlanner planner(layout, state, options);
      for (const auto& plan :
           {planner.plan_fastpr(), planner.plan_sequential()}) {
        core::validate_plan(plan, layout, state, options.k_repair,
                            /*code=*/nullptr, /*helper_reads_per_node=*/1,
                            &topo);
        expect_placement_invariants(plan, layout, batch, scenario,
                                    num_storage, /*num_standby=*/3);
        if (scenario == core::Scenario::kScattered) {
          expect_rack_disjoint_after_plan(plan, layout, batch, topo,
                                          num_storage);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, PlacementPropertyTest,
    ::testing::Values(core::Scenario::kScattered,
                      core::Scenario::kHotStandby),
    [](const auto& info) {
      return info.param == core::Scenario::kScattered ? "scattered"
                                                      : "hotstandby";
    });

}  // namespace
}  // namespace fastpr
