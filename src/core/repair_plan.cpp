#include "core/repair_plan.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "ec/rs_code.h"
#include "util/check.h"

namespace fastpr::core {

int RepairPlan::total_migrated() const {
  int total = 0;
  for (const auto& round : rounds) {
    total += static_cast<int>(round.migrations.size());
  }
  return total;
}

int RepairPlan::total_reconstructed() const {
  int total = 0;
  for (const auto& round : rounds) {
    total += static_cast<int>(round.reconstructions.size());
  }
  return total;
}

int RepairRound::busiest_migration_stream() const {
  std::unordered_map<cluster::NodeId, int> per_src;
  int busiest = 0;
  for (const auto& task : migrations) {
    busiest = std::max(busiest, ++per_src[task.src]);
  }
  return busiest;
}

std::string RepairPlan::to_string() const {
  std::ostringstream os;
  os << "plan{stf=";
  for (size_t i = 0; i < stf_nodes.size(); ++i) {
    os << (i == 0 ? "" : ",") << stf_nodes[i];
  }
  os << ", rounds=" << rounds.size()
     << ", migrated=" << total_migrated()
     << ", reconstructed=" << total_reconstructed() << "}";
  return os.str();
}

void validate_plan(const RepairPlan& plan,
                   const cluster::StripeLayout& layout,
                   const cluster::ClusterState& cluster, int k_repair,
                   const ec::ErasureCode* code,
                   const net::Topology* topology) {
  using cluster::ChunkRef;
  using cluster::ChunkRefHash;
  using cluster::NodeId;

  std::optional<ec::RsCode> default_code;
  if (code == nullptr) {
    code = &default_code.emplace(layout.chunks_per_stripe(), k_repair);
  }
  const std::vector<NodeId>& batch = plan.stf_nodes;
  FASTPR_CHECK_MSG(!batch.empty(), "plan names no STF node");
  const std::unordered_set<NodeId> stf_set(batch.begin(), batch.end());
  FASTPR_CHECK_MSG(stf_set.size() == batch.size(),
                   "duplicate node in STF batch");

  // Every chunk of every batch member repaired exactly once.
  std::unordered_set<ChunkRef, ChunkRefHash> expected;
  for (NodeId s : batch) {
    FASTPR_CHECK(s != cluster::kNoNode);
    for (ChunkRef c : layout.chunks_on(s)) expected.insert(c);
  }
  std::unordered_set<ChunkRef, ChunkRefHash> seen;
  // Cross-round §IV-A: a stripe losing chunks on several batch members
  // is repaired across rounds, and no destination may collect two of
  // them (single-STF plans touch each stripe once, so this cannot fire).
  std::unordered_map<cluster::StripeId, std::unordered_set<NodeId>> landed;
  const auto land = [&](ChunkRef chunk, NodeId dst) {
    FASTPR_CHECK_MSG(landed[chunk.stripe].insert(dst).second,
                     "two repaired chunks of stripe " << chunk.stripe
                                                      << " land on node "
                                                      << dst);
  };

  // Rack-level failure-domain invariant (DESIGN.md §11). Spares are
  // exempt like the node-level checks below; `land_rack` is called only
  // for scattered destinations.
  const bool rack_checks = topology != nullptr && !topology->is_flat();
  std::unordered_map<cluster::StripeId, std::unordered_set<int>>
      landed_racks;
  const auto land_rack = [&](ChunkRef chunk, NodeId dst) {
    if (!rack_checks) return;
    const int rack = topology->rack_of(dst);
    for (NodeId holder : layout.stripe_nodes(chunk.stripe)) {
      if (stf_set.count(holder) > 0) continue;  // lost or vacating
      FASTPR_CHECK_MSG(topology->rack_of(holder) != rack,
                       "repaired chunk of stripe "
                           << chunk.stripe << " lands in rack " << rack
                           << ", which still holds a chunk on node "
                           << holder);
    }
    FASTPR_CHECK_MSG(landed_racks[chunk.stripe].insert(rack).second,
                     "two repaired chunks of stripe "
                         << chunk.stripe << " land in rack " << rack);
  };

  for (const auto& round : plan.rounds) {
    std::unordered_set<NodeId> round_sources;
    std::unordered_set<NodeId> round_destinations;

    for (const auto& task : round.migrations) {
      FASTPR_CHECK_MSG(stf_set.count(task.src) == 1,
                       "migration source must be an STF batch node");
      FASTPR_CHECK_MSG(layout.node_of(task.chunk) == task.src,
                       "migrated chunk not on its STF node");
      FASTPR_CHECK_MSG(seen.insert(task.chunk).second,
                       "chunk repaired twice");
      FASTPR_CHECK(stf_set.count(task.dst) == 0 &&
                   task.dst != cluster::kNoNode);
      land(task.chunk, task.dst);
      if (cluster.is_hot_standby(task.dst)) continue;
      FASTPR_CHECK_MSG(!layout.stripe_uses_node(task.chunk.stripe, task.dst),
                       "migration breaks stripe distinctness");
      FASTPR_CHECK_MSG(round_destinations.insert(task.dst).second,
                       "scattered destination reused within a round");
      land_rack(task.chunk, task.dst);
    }

    for (const auto& task : round.reconstructions) {
      FASTPR_CHECK_MSG(stf_set.count(layout.node_of(task.chunk)) == 1,
                       "reconstructed chunk not on an STF node");
      FASTPR_CHECK_MSG(seen.insert(task.chunk).second,
                       "chunk repaired twice");
      FASTPR_CHECK_MSG(
          static_cast<int>(task.sources.size()) ==
              code->repair_fetch_count(task.chunk.index),
          "reconstruction must fetch exactly k (or k') chunks");
      for (const auto& src : task.sources) {
        FASTPR_CHECK(stf_set.count(src.node) == 0);
        FASTPR_CHECK_MSG(cluster.health(src.node) ==
                             cluster::NodeHealth::kHealthy,
                         "source node not healthy");
        FASTPR_CHECK_MSG(src.chunk.stripe == task.chunk.stripe,
                         "helper from a different stripe");
        FASTPR_CHECK_MSG(src.chunk.index != task.chunk.index,
                         "helper equals the lost chunk");
        FASTPR_CHECK_MSG(layout.node_of(src.chunk) == src.node,
                         "helper not stored on claimed node");
        FASTPR_CHECK_MSG(round_sources.insert(src.node).second,
                         "node reads twice in one round");
      }
      FASTPR_CHECK(stf_set.count(task.dst) == 0 &&
                   task.dst != cluster::kNoNode);
      land(task.chunk, task.dst);
      if (cluster.is_hot_standby(task.dst)) continue;
      FASTPR_CHECK_MSG(!layout.stripe_uses_node(task.chunk.stripe, task.dst),
                       "reconstruction breaks stripe distinctness");
      FASTPR_CHECK_MSG(round_destinations.insert(task.dst).second,
                       "scattered destination reused within a round");
      land_rack(task.chunk, task.dst);
    }
  }

  FASTPR_CHECK_MSG(seen.size() == expected.size(),
                   "plan repairs " << seen.size() << " chunks, the batch "
                                      "holds "
                                   << expected.size());
  for (const ChunkRef& c : seen) {
    FASTPR_CHECK_MSG(expected.count(c) == 1, "plan repairs a foreign chunk");
  }
}

}  // namespace fastpr::core
