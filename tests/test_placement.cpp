// Round placement: source matching distinctness, scattered destination
// fault tolerance, hot-standby round-robin.
#include "core/placement.h"

#include <gtest/gtest.h>

#include "core/recon_sets.h"

#include <set>

#include "ec/lrc_code.h"
#include "ec/rs_code.h"
#include "net/topology.h"
#include "util/rng.h"

namespace fastpr::core {
namespace {

using cluster::ChunkRef;
using cluster::NodeId;
using cluster::StripeLayout;

struct Fixture {
  StripeLayout layout;
  NodeId stf;
  std::vector<NodeId> sources;
  std::vector<NodeId> dests;

  static Fixture random(int num_nodes, int n, int stripes, uint64_t seed) {
    Rng rng(seed);
    Fixture f{StripeLayout::random(num_nodes, n, stripes, rng), 0, {}, {}};
    for (NodeId node = 1; node < num_nodes; ++node) {
      if (f.layout.load(node) > f.layout.load(f.stf)) f.stf = node;
    }
    for (NodeId node = 0; node < num_nodes; ++node) {
      if (node != f.stf) {
        f.sources.push_back(node);
        f.dests.push_back(node);
      }
    }
    return f;
  }
};

TEST(Placement, SourcesDistinctWithinRound) {
  auto f = Fixture::random(30, 6, 200, 1);
  const ec::RsCode code(6, 4);
  // Use a genuine reconstruction set so the round is matchable by
  // construction (Algorithm 1's guarantee the placement relies on).
  const auto sets = find_reconstruction_sets(f.layout, f.stf, f.sources,
                                             code, ReconSetOptions{});
  ASSERT_FALSE(sets.empty());
  ScheduledRound round;
  round.reconstruct = sets.front();
  int cursor = 0;
  const auto assigned =
      assign_round(f.layout, {f.stf}, f.sources, f.dests,
                   Scenario::kScattered, code, round, &cursor);
  std::set<NodeId> read_nodes;
  for (const auto& task : assigned.reconstructions) {
    ASSERT_EQ(task.sources.size(), 4u);
    for (const auto& src : task.sources) {
      EXPECT_TRUE(read_nodes.insert(src.node).second)
          << "node reads twice in one round";
      // The helper really lives there and belongs to the right stripe.
      EXPECT_EQ(f.layout.node_of(src.chunk), src.node);
      EXPECT_EQ(src.chunk.stripe, task.chunk.stripe);
      EXPECT_NE(src.node, f.stf);
    }
  }
}

TEST(Placement, ScatteredDestinationsPreserveFaultTolerance) {
  auto f = Fixture::random(30, 6, 200, 2);
  const ec::RsCode code(6, 4);
  const auto sets = find_reconstruction_sets(f.layout, f.stf, f.sources,
                                             code, ReconSetOptions{});
  ASSERT_FALSE(sets.empty());
  ScheduledRound round;
  round.reconstruct = sets.front();
  if (round.reconstruct.size() > 3) round.reconstruct.resize(3);
  const auto chunks = f.layout.chunks_on(f.stf);
  for (ChunkRef c : chunks) {
    if (round.migrate.size() >= 3) break;
    if (std::find(round.reconstruct.begin(), round.reconstruct.end(), c) ==
        round.reconstruct.end()) {
      round.migrate.push_back(c);
    }
  }
  int cursor = 0;
  const auto assigned =
      assign_round(f.layout, {f.stf}, f.sources, f.dests,
                   Scenario::kScattered, code, round, &cursor);
  std::set<NodeId> dests;
  auto check_dst = [&](ChunkRef chunk, NodeId dst) {
    EXPECT_NE(dst, f.stf);
    EXPECT_FALSE(f.layout.stripe_uses_node(chunk.stripe, dst))
        << "destination already holds a chunk of the stripe";
    EXPECT_TRUE(dests.insert(dst).second) << "destination reused in round";
  };
  for (const auto& t : assigned.reconstructions) check_dst(t.chunk, t.dst);
  for (const auto& t : assigned.migrations) check_dst(t.chunk, t.dst);
  EXPECT_EQ(assigned.migrations.size(), round.migrate.size());
}

TEST(Placement, HotStandbyRoundRobinAcrossRounds) {
  auto f = Fixture::random(20, 5, 100, 3);
  const std::vector<NodeId> spares = {20, 21, 22};
  const ec::RsCode code(5, 3);
  int cursor = 0;
  std::vector<int> uses(3, 0);
  for (int round_idx = 0; round_idx < 3; ++round_idx) {
    ScheduledRound round;
    const auto chunks = f.layout.chunks_on(f.stf);
    round.reconstruct.push_back(chunks[static_cast<size_t>(round_idx)]);
    round.migrate.push_back(chunks[static_cast<size_t>(round_idx + 3)]);
    const auto assigned =
        assign_round(f.layout, {f.stf}, f.sources, spares,
                     Scenario::kHotStandby, code, round, &cursor);
    for (const auto& t : assigned.reconstructions) {
      ++uses[static_cast<size_t>(t.dst - 20)];
    }
    for (const auto& t : assigned.migrations) {
      ++uses[static_cast<size_t>(t.dst - 20)];
    }
  }
  // 6 repairs over 3 spares: perfectly even.
  EXPECT_EQ(uses, (std::vector<int>{2, 2, 2}));
}

/// Stripe indices of `sources`, checking each read names the node that
/// holds its chunk under `nodes` (chunk i of stripe 0 on nodes[i]).
std::vector<int> helper_indices(const std::vector<SourceRead>& sources,
                                const std::vector<NodeId>& nodes) {
  std::vector<int> indices;
  for (const auto& src : sources) {
    EXPECT_EQ(src.chunk.stripe, 0);
    EXPECT_EQ(src.node, nodes[static_cast<size_t>(src.chunk.index)]);
    indices.push_back(src.chunk.index);
  }
  return indices;
}

TEST(PickHelpers, RsReadsTheFirstKUsableChunks) {
  const ec::RsCode code(6, 4);
  const std::vector<NodeId> nodes = {10, 11, 12, 13, 14, 15};
  const auto all_usable = [](NodeId) { return true; };
  // The lost chunk's own index never serves, even when its node is up.
  const auto intact = pick_helpers(code, ChunkRef{0, 0}, nodes, all_usable);
  ASSERT_TRUE(intact.has_value());
  EXPECT_EQ(helper_indices(*intact, nodes), (std::vector<int>{1, 2, 3, 4}));

  const auto around =
      pick_helpers(code, ChunkRef{0, 0}, nodes,
                   [](NodeId node) { return node != 12; });
  ASSERT_TRUE(around.has_value());
  EXPECT_EQ(helper_indices(*around, nodes), (std::vector<int>{1, 3, 4, 5}));

  // Three usable chunks are fewer than k = 4.
  EXPECT_FALSE(pick_helpers(code, ChunkRef{0, 0}, nodes, [](NodeId node) {
                 return node != 12 && node != 13;
               }).has_value());
}

TEST(PickHelpers, LrcPrefersTheLocalGroupThenGlobalParities) {
  // LRC(4,2,2): data {0,1} with local parity 4, data {2,3} with local
  // parity 5, global parities 6 and 7; chunk i on node 20 + i.
  const ec::LrcCode code(4, 2, 2);
  const std::vector<NodeId> nodes = {20, 21, 22, 23, 24, 25, 26, 27};
  const auto local = pick_helpers(code, ChunkRef{0, 0}, nodes,
                                  [](NodeId) { return true; });
  ASSERT_TRUE(local.has_value());
  EXPECT_EQ(helper_indices(*local, nodes), (std::vector<int>{1, 4}));

  // Without its local parity the group cannot rebuild chunk 0, so the
  // pick widens to a global solve that reads a global parity.
  const auto global = pick_helpers(code, ChunkRef{0, 0}, nodes,
                                   [](NodeId node) { return node != 24; });
  ASSERT_TRUE(global.has_value());
  const auto indices = helper_indices(*global, nodes);
  EXPECT_EQ(std::count(indices.begin(), indices.end(), 0), 0);
  EXPECT_EQ(std::count(indices.begin(), indices.end(), 4), 0);
  EXPECT_TRUE(std::count(indices.begin(), indices.end(), 6) +
                  std::count(indices.begin(), indices.end(), 7) >
              0);

  // Only the two global parities left: rank 2 < k = 4.
  EXPECT_FALSE(pick_helpers(code, ChunkRef{0, 0}, nodes, [](NodeId node) {
                 return node >= 26;
               }).has_value());
}

TEST(Placement, OverlayRecordsADoneRoundsDestinationsAndRacks) {
  // Stripe 0 has two chunks among the plan's repairs, stripe 1 one. A
  // round executed before a replan vetoes its destination (and, with
  // racks, its destination's rack) for stripe 0's later repair.
  const std::vector<ChunkRef> repaired = {{0, 0}, {0, 1}, {1, 0}};
  RepairRound done;
  done.migrations.push_back(MigrationTask{ChunkRef{0, 0}, 0, 7});
  done.reconstructions.push_back(ReconstructionTask{ChunkRef{1, 0}, {}, 9});
  const net::Topology topo(5, 2, net::Oversub(4.0));

  PlacedOverlay racked(repaired);
  racked.record(done, &topo);
  EXPECT_TRUE(racked.used(0, 7));
  EXPECT_TRUE(racked.used_rack(0, topo.rack_of(7)));
  EXPECT_FALSE(racked.used(0, 9));
  EXPECT_FALSE(racked.used(1, 9));  // repaired once: nothing to veto

  PlacedOverlay flat(repaired);
  flat.record(done, nullptr);
  EXPECT_TRUE(flat.used(0, 7));
  EXPECT_FALSE(flat.used_rack(0, topo.rack_of(7)));
}

TEST(Placement, EmptyRound) {
  auto f = Fixture::random(15, 4, 50, 4);
  int cursor = 0;
  const auto assigned =
      assign_round(f.layout, {f.stf}, f.sources, f.dests,
                   Scenario::kScattered, ec::RsCode(4, 3), ScheduledRound{},
                   &cursor);
  EXPECT_TRUE(assigned.reconstructions.empty());
  EXPECT_TRUE(assigned.migrations.empty());
}

}  // namespace
}  // namespace fastpr::core
