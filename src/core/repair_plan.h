// Repair-plan data model: the output of the FastPR planner and the input
// of both the simulator and the testbed coordinator.
#pragma once

#include <string>
#include <vector>

#include "cluster/cluster_state.h"
#include "cluster/stripe_layout.h"
#include "cluster/types.h"
#include "core/cost_model.h"
#include "ec/erasure_code.h"
#include "net/topology.h"

namespace fastpr::core {

/// Move one chunk off the STF node.
struct MigrationTask {
  cluster::ChunkRef chunk;
  cluster::NodeId src = cluster::kNoNode;  // the STF node
  cluster::NodeId dst = cluster::kNoNode;
};

/// One helper read feeding a reconstruction.
struct SourceRead {
  cluster::NodeId node = cluster::kNoNode;
  cluster::ChunkRef chunk;  // the helper chunk stored on `node`
};

/// Decode one chunk of the STF node from k helper chunks on k distinct
/// healthy nodes.
struct ReconstructionTask {
  cluster::ChunkRef chunk;  // the chunk being repaired
  std::vector<SourceRead> sources;
  cluster::NodeId dst = cluster::kNoNode;
  /// kChain: `sources` is the hop order h0 → … → h(k-1) → dst and the
  /// helpers forward packet-level partial sums; kFanIn: all helpers
  /// stream straight to dst.
  RepairStrategy strategy = RepairStrategy::kFanIn;
};

/// One repair round: its migrations and reconstructions run in parallel;
/// rounds execute sequentially (§IV-A).
struct RepairRound {
  std::vector<ReconstructionTask> reconstructions;
  std::vector<MigrationTask> migrations;
  /// Strategy Algorithm 2 chose for this round's reconstructions (what
  /// the simulator and predict_rounds price the round with).
  RepairStrategy strategy = RepairStrategy::kFanIn;

  int repaired_chunks() const {
    return static_cast<int>(reconstructions.size() + migrations.size());
  }
};

struct RepairPlan {
  /// Former single-STF field, kept only because the repair benchmark
  /// (repairbench/) still assigns it. Nothing else reads or writes it;
  /// delete it once the benchmark stops.
  cluster::NodeId stf_node = cluster::kNoNode;
  /// Every STF node the plan covers (DESIGN.md §8): the batch, at least
  /// one node.
  std::vector<cluster::NodeId> stf_nodes;
  std::vector<RepairRound> rounds;

  int total_migrated() const;
  int total_reconstructed() const;
  int total_repaired() const { return total_migrated() + total_reconstructed(); }

  std::string to_string() const;
};

/// Structural validation of a plan against the layout it was built from
/// (pre-repair state). Throws CheckFailure when an invariant is violated:
///  * every chunk of every STF node in the batch repaired exactly once;
///  * migration sources are the STF node storing the chunk;
///    reconstruction sources are k distinct healthy non-STF nodes
///    holding chunks of the right stripe;
///  * within a round, no healthy node serves more than one source read;
///  * scattered destinations do not already hold a chunk of the stripe
///    and are used at most once per round; hot-standby destinations are
///    spare nodes; across the WHOLE plan no destination receives two
///    repaired chunks of one stripe (multi-STF cross-round §IV-A).
/// `code`, when given, supplies per-chunk helper counts (LRC).
/// `topology`, when given and multi-rack (DESIGN.md §11), additionally
/// enforces the failure-domain invariant: after the plan applies, no
/// rack holds two chunks of one stripe — checked against the surviving
/// holders' racks and across every round's destinations. Hot-standby
/// spares are exempt (dedicated overflow rack), mirroring the node-level
/// exemption above.
void validate_plan(const RepairPlan& plan,
                   const cluster::StripeLayout& layout,
                   const cluster::ClusterState& cluster, int k_repair,
                   const ec::ErasureCode* code = nullptr,
                   const net::Topology* topology = nullptr);

/// Reactive repair (DESIGN.md §7): reconstruction-only rounds for the
/// lost chunks, plus the chunks no surviving stripe can rebuild.
struct ReactiveResult {
  RepairPlan plan;
  /// Chunks whose stripes lost more than the code tolerates — data loss.
  std::vector<cluster::ChunkRef> unrepairable;
  /// Chunks rebuilt in dedicated degraded rounds because their preferred
  /// helper candidates are partly gone (LRC local group damaged and
  /// rebuilt through global parities).
  int degraded_repairs = 0;
};

}  // namespace fastpr::core
