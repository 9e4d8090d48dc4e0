// Coordinator retry helper-selection: pick_sources under RS and LRC,
// including the failed-node exclusions used by the retry machinery and
// the fallback reconstruction of a failed migration (DESIGN.md §7).
#include "agent/coordinator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>

#include "cluster/stripe_layout.h"
#include "ec/lrc_code.h"
#include "ec/rs_code.h"
#include "net/inproc_transport.h"
#include "util/check.h"
#include "util/units.h"

namespace fastpr::agent {
namespace {

using cluster::ChunkRef;
using cluster::NodeId;

CoordinatorOptions selection_options() {
  CoordinatorOptions opts;
  opts.chunk_bytes = 64 * kKiB;
  opts.packet_bytes = 16 * kKiB;
  return opts;
}

std::set<NodeId> source_nodes(const std::vector<core::SourceRead>& sources) {
  std::set<NodeId> nodes;
  for (const auto& s : sources) nodes.insert(s.node);
  return nodes;
}

/// The reconstruction a failed migration falls back to: same chunk and
/// destination, helpers picked around the STF node and every node in
/// `failed` — what the coordinator's rebuild issues after an STF read
/// failure. Throws CheckFailure where the rebuild abandons the chunk.
core::ReconstructionTask fallback_for(const Coordinator& coordinator,
                                      const core::MigrationTask& mig,
                                      std::unordered_set<NodeId> failed) {
  failed.insert(mig.src);
  auto sources = coordinator.pick_sources(mig.chunk, mig.dst, failed);
  FASTPR_CHECK_MSG(sources.has_value(), "chunk is unrepairable");
  core::ReconstructionTask recon;
  recon.chunk = mig.chunk;
  recon.dst = mig.dst;
  recon.sources = std::move(*sources);
  return recon;
}

// LRC(4,2,2) with identity placement: chunk index i of stripe 0 lives on
// node i. Groups: data {0,1} + local parity 4, data {2,3} + local
// parity 5, global parities 6 and 7. Nodes 8..11 are chunk-free
// destinations; node 12 is the coordinator.
class LrcSelectionTest : public ::testing::Test {
 protected:
  LrcSelectionTest()
      : code_(4, 2, 2),
        layout_(12, 8),
        transport_(13, {}),
        coordinator_(12, transport_, code_, layout_, selection_options()) {
    layout_.add_stripe({0, 1, 2, 3, 4, 5, 6, 7});
  }

  ec::LrcCode code_;
  cluster::StripeLayout layout_;
  net::InprocTransport transport_;
  Coordinator coordinator_;
};

TEST_F(LrcSelectionTest, PickSourcesStaysInLocalGroupWhenIntact) {
  // Chunk 0's local group is {1, 4}: a healthy group means a k' = 2
  // helper read, not a k = 4 one.
  const auto sources =
      coordinator_.pick_sources(ChunkRef{0, 0}, /*dst=*/8, {});
  ASSERT_TRUE(sources.has_value());
  EXPECT_EQ(source_nodes(*sources), (std::set<NodeId>{1, 4}));
  for (const auto& s : *sources) {
    EXPECT_EQ(s.chunk.stripe, 0);
    EXPECT_EQ(s.chunk.index, s.node);  // identity placement
  }
}

TEST_F(LrcSelectionTest, PickSourcesFallsBackToGlobalParities) {
  // The local parity's node (4) is known-failed, so the local-group
  // repair is impossible and selection must widen to a global solve.
  const auto sources =
      coordinator_.pick_sources(ChunkRef{0, 0}, /*dst=*/8, {4});
  ASSERT_TRUE(sources.has_value());
  const auto nodes = source_nodes(*sources);
  EXPECT_GE(nodes.size(), 2u);
  EXPECT_EQ(nodes.count(0), 0u);  // never the STF node
  EXPECT_EQ(nodes.count(4), 0u);  // never an excluded node
  EXPECT_EQ(nodes.count(8), 0u);  // never the destination
  // Chunk 0 only appears in the global-parity rows once its local
  // parity is gone, so any viable solve must read a global parity.
  EXPECT_TRUE(nodes.count(6) != 0 || nodes.count(7) != 0);
}

TEST_F(LrcSelectionTest, FallbackForExcludesKnownFailedNodes) {
  core::MigrationTask mig;
  mig.chunk = ChunkRef{0, 0};
  mig.src = 0;
  mig.dst = 8;
  // Node 1 (the data half of chunk 0's local group) failed earlier in
  // this execution: the fallback reconstruction must avoid it too.
  const auto recon = fallback_for(coordinator_, mig, {1});
  EXPECT_EQ(recon.chunk, mig.chunk);
  EXPECT_EQ(recon.dst, mig.dst);
  const auto nodes = source_nodes(recon.sources);
  EXPECT_EQ(nodes.count(0), 0u);
  EXPECT_EQ(nodes.count(1), 0u);
  EXPECT_GE(nodes.size(), 2u);
}

TEST_F(LrcSelectionTest, PickSourcesFindsNoneWhenStripeIsDepleted) {
  // Only the two global parities survive: rank 2 < k = 4, so chunk 0 is
  // unrepairable and selection must say so (the coordinator abandons
  // the chunk and reports it unrepaired).
  EXPECT_FALSE(
      coordinator_.pick_sources(ChunkRef{0, 0}, /*dst=*/8, {1, 2, 3, 4, 5})
          .has_value());
}

// RS(6,4) with identity placement on nodes 0..5.
class RsSelectionTest : public ::testing::Test {
 protected:
  RsSelectionTest()
      : code_(6, 4),
        layout_(10, 6),
        transport_(11, {}),
        coordinator_(10, transport_, code_, layout_, selection_options()) {
    layout_.add_stripe({0, 1, 2, 3, 4, 5});
  }

  ec::RsCode code_;
  cluster::StripeLayout layout_;
  net::InprocTransport transport_;
  Coordinator coordinator_;
};

TEST_F(RsSelectionTest, FallbackForUsesExactlyTheSurvivors) {
  core::MigrationTask mig;
  mig.chunk = ChunkRef{0, 0};
  mig.src = 0;
  mig.dst = 8;
  const auto recon = fallback_for(coordinator_, mig, {1});
  // k = 4 helpers from the 4 surviving stripe nodes {2, 3, 4, 5}.
  EXPECT_EQ(source_nodes(recon.sources), (std::set<NodeId>{2, 3, 4, 5}));
}

TEST_F(RsSelectionTest, FallbackForThrowsWhenSurvivorsDropBelowK) {
  core::MigrationTask mig;
  mig.chunk = ChunkRef{0, 0};
  mig.src = 0;
  mig.dst = 8;
  EXPECT_THROW(fallback_for(coordinator_, mig, {1, 2}), CheckFailure);
}

}  // namespace
}  // namespace fastpr::agent
