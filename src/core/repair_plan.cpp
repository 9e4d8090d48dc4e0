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

PlacementLedger::PlacementLedger(const cluster::StripeLayout& layout,
                                 const std::vector<cluster::NodeId>& batch,
                                 cluster::NodeId first_spare,
                                 const net::Topology* topology)
    : layout_(&layout),
      batch_(batch),
      first_spare_(first_spare),
      topology_(topology != nullptr && !topology->is_flat() ? topology
                                                            : nullptr) {}

const char* PlacementLedger::violation(cluster::ChunkRef chunk,
                                       cluster::NodeId dst) const {
  const auto member = [&](cluster::NodeId node) {
    return std::find(batch_.begin(), batch_.end(), node) != batch_.end();
  };
  if (dst == cluster::kNoNode || member(dst)) {
    return "destination is an STF batch node";
  }
  // Other repaired chunks of the stripe, planned or landed.
  std::vector<cluster::NodeId> others;
  if (const auto it = landed_.find(chunk.stripe); it != landed_.end()) {
    for (const Landing& l : it->second) {
      if (l.index != chunk.index) others.push_back(l.node);
    }
  }
  if (std::find(others.begin(), others.end(), dst) != others.end()) {
    return "two repaired chunks of one stripe land on one node";
  }
  if (dst >= first_spare_) return nullptr;
  if (layout_->stripe_uses_node(chunk.stripe, dst)) {
    return "destination already holds a chunk of the stripe";
  }
  if (topology_ == nullptr) return nullptr;
  const int rack = topology_->rack_of(dst);
  for (cluster::NodeId holder : layout_->stripe_nodes(chunk.stripe)) {
    if (!member(holder) && topology_->rack_of(holder) == rack) {
      return "destination rack still holds a chunk of the stripe";
    }
  }
  for (cluster::NodeId node : others) {
    if (node < first_spare_ && topology_->rack_of(node) == rack) {
      return "two repaired chunks of one stripe land in one rack";
    }
  }
  return nullptr;
}

void PlacementLedger::place(cluster::ChunkRef chunk, cluster::NodeId dst) {
  auto& landings = landed_[chunk.stripe];
  for (Landing& l : landings) {
    if (l.index == chunk.index) {
      l.node = dst;
      return;
    }
  }
  landings.push_back({chunk.index, dst});
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
  // §IV-A across the whole plan: a stripe losing chunks on several batch
  // members is repaired across rounds, and no destination (nor, racked,
  // no rack) may collect two of them.
  PlacementLedger ledger(layout, batch, cluster.num_storage_nodes(),
                         topology);
  std::unordered_set<NodeId> round_destinations;
  const auto land = [&](ChunkRef chunk, NodeId dst) {
    FASTPR_CHECK(dst >= 0 && dst < cluster.num_nodes());
    const char* why = ledger.violation(chunk, dst);
    FASTPR_CHECK_MSG(why == nullptr, "chunk (" << chunk.stripe << ","
                                               << chunk.index << ") on node "
                                               << dst << ": " << why);
    ledger.place(chunk, dst);
    if (cluster.is_hot_standby(dst)) return;
    FASTPR_CHECK_MSG(round_destinations.insert(dst).second,
                     "scattered destination reused within a round");
  };

  for (const auto& round : plan.rounds) {
    std::unordered_set<NodeId> round_sources;
    round_destinations.clear();

    for (const auto& task : round.migrations) {
      FASTPR_CHECK_MSG(stf_set.count(task.src) == 1,
                       "migration source must be an STF batch node");
      FASTPR_CHECK_MSG(layout.node_of(task.chunk) == task.src,
                       "migrated chunk not on its STF node");
      FASTPR_CHECK_MSG(seen.insert(task.chunk).second,
                       "chunk repaired twice");
      land(task.chunk, task.dst);
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
      land(task.chunk, task.dst);
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
