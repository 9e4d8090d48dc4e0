// Algorithm 1: reconstruction sets — exact cover, matching validity,
// the paper's Figure 5 worked example, and the swap-optimization gain.
#include "core/recon_sets.h"

#include <gtest/gtest.h>

#include <set>

#include "util/check.h"
#include "util/rng.h"

namespace fastpr::core {
namespace {

using cluster::ChunkRef;
using cluster::NodeId;
using cluster::StripeLayout;

std::vector<NodeId> healthy_except(int num_nodes, NodeId stf) {
  std::vector<NodeId> nodes;
  for (NodeId n = 0; n < num_nodes; ++n) {
    if (n != stf) nodes.push_back(n);
  }
  return nodes;
}

/// Asserts the sets exactly cover the STF node's chunks, each valid.
void check_cover(const StripeLayout& layout, NodeId stf,
                 const std::vector<NodeId>& healthy, int k,
                 const std::vector<std::vector<ChunkRef>>& sets) {
  std::set<std::pair<int, int>> covered;
  for (const auto& set : sets) {
    EXPECT_FALSE(set.empty());
    EXPECT_TRUE(is_valid_reconstruction_set(layout, stf, healthy, k, set));
    for (ChunkRef c : set) {
      EXPECT_TRUE(covered.emplace(c.stripe, c.index).second)
          << "chunk covered twice";
    }
  }
  EXPECT_EQ(covered.size(), layout.chunks_on(stf).size());
}

TEST(ReconSets, Figure5WorkedExample) {
  // The paper's Figure 5: 4 stripes of RS(5,3) over 10 nodes; the STF
  // node stores one chunk of each. The initial greedy set {C1, C2} can
  // be improved by swapping C2 for C3, unlocking C4: the optimized
  // partition is {{C1, C3, C4}, {C2}} — 2 sets instead of 3.
  //
  // Layout engineered so that:
  //   C1 (stripe 0) helpers ⊂ {1,2,3,4};  C2 (stripe 1) ⊂ {3,4,5,6};
  //   C3 (stripe 2) ⊂ {5,6,7,8};          C4 (stripe 3) ⊂ {1,2,8,9*};
  // with k = 3 and 9 healthy nodes, {C1,C3,C4} admits a perfect
  // matching but {C1,C2,+anything} does not.
  StripeLayout layout(10, 5);
  const NodeId stf = 0;
  layout.add_stripe({0, 1, 2, 3, 4});  // C1
  layout.add_stripe({0, 3, 4, 5, 6});  // C2
  layout.add_stripe({0, 5, 6, 7, 8});  // C3
  layout.add_stripe({0, 1, 2, 8, 9});  // C4
  const auto healthy = healthy_except(10, stf);

  ReconSetOptions opt_on;
  opt_on.optimize = true;
  ReconSetStats stats;
  const auto sets =
      find_reconstruction_sets(layout, stf, healthy, 3, opt_on, &stats);
  check_cover(layout, stf, healthy, 3, sets);

  ReconSetOptions opt_off;
  opt_off.optimize = false;
  const auto sets_ini =
      find_reconstruction_sets(layout, stf, healthy, 3, opt_off);
  check_cover(layout, stf, healthy, 3, sets_ini);

  // Both partitions have 2 sets here, but the swap pass grows the first
  // set to the capacity of 3 chunks (C1, C3, C4 in the paper's telling)
  // where plain greedy stalls at {C1, C2} — more chunks repaired in the
  // first, fully parallel round.
  ASSERT_EQ(sets.size(), 2u);
  ASSERT_EQ(sets_ini.size(), 2u);
  EXPECT_GT(stats.swaps, 0);
  EXPECT_EQ(std::max(sets[0].size(), sets[1].size()), 3u);
  EXPECT_EQ(std::max(sets_ini[0].size(), sets_ini[1].size()), 2u);
}

class RandomReconSetTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomReconSetTest, CoverAndValidityOnRandomLayouts) {
  const int k = GetParam();
  Rng rng(100 + k);
  const int num_nodes = 40;
  const auto layout =
      StripeLayout::random(num_nodes, k + 3, 300, rng);
  // Most-loaded node as STF.
  NodeId stf = 0;
  for (NodeId n = 1; n < num_nodes; ++n) {
    if (layout.load(n) > layout.load(stf)) stf = n;
  }
  const auto healthy = healthy_except(num_nodes, stf);
  const auto sets =
      find_reconstruction_sets(layout, stf, healthy, k, ReconSetOptions{});
  check_cover(layout, stf, healthy, k, sets);
  // No set exceeds the matching capacity floor((M-1)/k).
  for (const auto& set : sets) {
    EXPECT_LE(static_cast<int>(set.size()),
              static_cast<int>(healthy.size()) / k);
  }
}

INSTANTIATE_TEST_SUITE_P(KValues, RandomReconSetTest,
                         ::testing::Values(2, 3, 4, 6));

TEST(ReconSets, OptimizationNeverIncreasesSetCount) {
  // d_opt <= d_ini on random layouts (Experiment B.5's premise).
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const auto layout = StripeLayout::random(30, 9, 250, rng);
    NodeId stf = 0;
    for (NodeId n = 1; n < 30; ++n) {
      if (layout.load(n) > layout.load(stf)) stf = n;
    }
    const auto healthy = healthy_except(30, stf);
    ReconSetOptions on, off;
    on.optimize = true;
    off.optimize = false;
    const auto d_opt =
        find_reconstruction_sets(layout, stf, healthy, 6, on).size();
    const auto d_ini =
        find_reconstruction_sets(layout, stf, healthy, 6, off).size();
    EXPECT_LE(d_opt, d_ini) << "seed " << seed;
  }
}

TEST(ReconSets, ChunkGroupingStillCovers) {
  Rng rng(5);
  const auto layout = StripeLayout::random(25, 6, 200, rng);
  NodeId stf = 0;
  for (NodeId n = 1; n < 25; ++n) {
    if (layout.load(n) > layout.load(stf)) stf = n;
  }
  const auto healthy = healthy_except(25, stf);
  ReconSetOptions grouped;
  grouped.chunk_group_size = 10;
  const auto sets =
      find_reconstruction_sets(layout, stf, healthy, 4, grouped);
  check_cover(layout, stf, healthy, 4, sets);
  // Grouping can only fragment: at least ceil(U / group) sets.
  const size_t u = layout.chunks_on(stf).size();
  EXPECT_GE(sets.size(), (u + 9) / 10);
}

TEST(ReconSets, MaxSetSizeCapRespected) {
  Rng rng(6);
  const auto layout = StripeLayout::random(40, 5, 300, rng);
  NodeId stf = 0;
  for (NodeId n = 1; n < 40; ++n) {
    if (layout.load(n) > layout.load(stf)) stf = n;
  }
  const auto healthy = healthy_except(40, stf);
  ReconSetOptions capped;
  capped.max_set_size = 3;
  const auto sets =
      find_reconstruction_sets(layout, stf, healthy, 4, capped);
  check_cover(layout, stf, healthy, 4, sets);
  for (const auto& set : sets) EXPECT_LE(set.size(), 3u);
}

TEST(ReconSets, SingleChunk) {
  StripeLayout layout(6, 4);
  layout.add_stripe({0, 1, 2, 3});
  const auto healthy = healthy_except(6, 0);
  const auto sets =
      find_reconstruction_sets(layout, 0, healthy, 3, ReconSetOptions{});
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(sets[0].size(), 1u);
}

TEST(ReconSets, EmptyStfNode) {
  StripeLayout layout(6, 3);
  layout.add_stripe({1, 2, 3});  // node 0 holds nothing
  const auto healthy = healthy_except(6, 0);
  const auto sets =
      find_reconstruction_sets(layout, 0, healthy, 2, ReconSetOptions{});
  EXPECT_TRUE(sets.empty());
}

TEST(ReconSets, InsufficientHealthySourcesRejected) {
  // Stripe with only k-1 surviving chunk holders.
  StripeLayout layout(5, 4);
  layout.add_stripe({0, 1, 2, 3});
  // Healthy list excludes node 3 as well as the STF node 0.
  std::vector<NodeId> healthy = {1, 2, 4};
  EXPECT_THROW(
      find_reconstruction_sets(layout, 0, healthy, 3, ReconSetOptions{}),
      CheckFailure);
}

TEST(ReconSets, SourceHoldingARepairedChunkRejected) {
  // The STF node listed among its own helper sources: its chunk would be
  // "rebuilt" from itself. is_valid_reconstruction_set refuses the same
  // arguments.
  StripeLayout layout(6, 4);
  layout.add_stripe({0, 1, 2, 3});
  const std::vector<NodeId> sources = {0, 1, 2, 4, 5};
  EXPECT_THROW(
      find_reconstruction_sets(layout, 0, sources, 3, ReconSetOptions{}),
      CheckFailure);
  EXPECT_THROW(is_valid_reconstruction_set(layout, 0, sources, 3,
                                           layout.chunks_on(0)),
               CheckFailure);
  // The generalized entry point checks every chunk's holder, so a
  // multi-node batch cannot lend one member to another as a helper.
  layout.add_stripe({4, 1, 2, 3});
  EXPECT_THROW(find_reconstruction_sets_for({ChunkRef{0, 0}, ChunkRef{1, 0}},
                                            layout, {1, 2, 3, 4, 5}, 3),
               CheckFailure);
}

}  // namespace
}  // namespace fastpr::core
