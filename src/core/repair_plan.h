// Repair-plan data model: the output of the FastPR planner and the input
// of both the simulator and the testbed coordinator.
#pragma once

#include <string>
#include <unordered_map>
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

  /// Migrations off the round's busiest STF disk. Each disk is its own
  /// migration stream and the streams run in parallel, so the round's
  /// migrations take as long as this one's share (DESIGN.md §8).
  int busiest_migration_stream() const;
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

/// §IV-A placement of repaired chunks: the one destination rule that
/// validate_plan, the coordinator's destination chooser and
/// Testbed::verify apply (DESIGN.md §8, §11). A repaired chunk of stripe
/// s may land on node d when
///  * d is no batch member and receives no other repaired chunk of s;
///  * d holds no chunk of s; and
///  * under a multi-rack topology, d's rack holds no surviving chunk of
///    s (batch members' chunks are lost or vacating) and receives no
///    other repaired chunk of s.
/// A hot-standby spare (id >= `first_spare`) holds no chunks and lives in
/// an overflow rack, so only the first rule binds it. The ledger
/// remembers where each repaired chunk lands or is planned to land; a
/// chunk's own entry never vetoes it.
class PlacementLedger {
 public:
  /// `topology` may be null; flat or single-rack topologies add no rack
  /// rule.
  PlacementLedger(const cluster::StripeLayout& layout,
                  const std::vector<cluster::NodeId>& batch,
                  cluster::NodeId first_spare,
                  const net::Topology* topology);

  /// Why `dst` may not receive the repaired `chunk`; nullptr when it may.
  const char* violation(cluster::ChunkRef chunk, cluster::NodeId dst) const;
  bool allows(cluster::ChunkRef chunk, cluster::NodeId dst) const {
    return violation(chunk, dst) == nullptr;
  }
  /// Records that `chunk` lands on `dst`, replacing its earlier entry.
  void place(cluster::ChunkRef chunk, cluster::NodeId dst);

 private:
  struct Landing {
    int index = 0;
    cluster::NodeId node = cluster::kNoNode;
  };

  const cluster::StripeLayout* layout_;
  std::vector<cluster::NodeId> batch_;
  cluster::NodeId first_spare_;
  const net::Topology* topology_;  // null unless multi-rack
  std::unordered_map<cluster::StripeId, std::vector<Landing>> landed_;
};

/// Structural validation of a plan against the layout it was built from
/// (pre-repair state). Throws CheckFailure when an invariant is violated:
///  * every chunk of every STF node in the batch repaired exactly once;
///  * migration sources are the STF node storing the chunk;
///    reconstruction sources are k distinct healthy non-STF nodes
///    holding chunks of the right stripe;
///  * within a round, no healthy node serves more than one source read;
///  * every destination passes the PlacementLedger rule across the
///    WHOLE plan (multi-STF cross-round §IV-A); hot-standby destinations
///    are spare nodes; scattered destinations are used at most once per
///    round.
/// `code` supplies per-chunk helper counts (LRC); null means
/// RS(n, k_repair) over the layout's n chunks per stripe, as in
/// FastPrPlanner.
/// `topology`, when given and multi-rack (DESIGN.md §11), adds the
/// ledger's rack rule: after the plan applies, no rack holds two chunks
/// of one stripe.
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
