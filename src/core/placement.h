// Turns a scheduled round into executable tasks (§IV-A):
//  * source selection — a bipartite matching assigns each reconstructed
//    chunk k helper reads on k distinct healthy nodes (at most one read
//    per node per round);
//  * destination selection — scattered repair matches each repaired
//    stripe to a healthy node that holds none of its chunks (Hall's
//    theorem guarantees a perfect matching when M - n >= cm + cr);
//    hot-standby repair spreads destinations round-robin over the spares.
// Also the one-chunk helper pick that every repair outside a matched
// round uses (retries, degraded reads, degraded reactive rebuilds).
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cluster/cluster_state.h"
#include "cluster/stripe_layout.h"
#include "core/cost_model.h"
#include "core/repair_plan.h"
#include "core/scheduler.h"
#include "ec/erasure_code.h"
#include "net/topology.h"

namespace fastpr::core {

/// Cross-round destination memory (DESIGN.md §8). A stripe that loses
/// several chunks to the batch (or to failures) is repaired more than
/// once; §IV-A distinctness then requires that no destination receive
/// two of its chunks over the WHOLE plan, not just within one round.
/// Only those stripes get entries: the overlay is never queried for a
/// stripe before its first repair, so a stripe repaired once could not
/// be vetoed anyway.
class PlacedOverlay {
 public:
  /// `repaired`: every chunk the plan may repair.
  explicit PlacedOverlay(const std::vector<cluster::ChunkRef>& repaired);

  /// Asked for every candidate destination of every repaired chunk, so
  /// an overlay without entries answers without a hash lookup.
  bool used(cluster::StripeId stripe, cluster::NodeId node) const {
    const Placed* p = find(stripe);
    return p != nullptr && std::find(p->nodes.begin(), p->nodes.end(),
                                     node) != p->nodes.end();
  }
  void record(cluster::StripeId stripe, cluster::NodeId node) {
    if (Placed* p = find(stripe)) p->nodes.push_back(node);
  }
  /// Records every destination of `round`, a round placed earlier (or
  /// already executed), and with a multi-rack `topology` their racks.
  void record(const RepairRound& round, const net::Topology* topology);

  /// Rack-level analog for topology-aware plans (DESIGN.md §11): racks
  /// that already received a repaired chunk of `stripe` earlier in the
  /// plan. Recorded only by the rack-aware scattered path; hot-standby
  /// spares are exempt from the rack invariant.
  bool used_rack(cluster::StripeId stripe, int rack) const {
    const Placed* p = find(stripe);
    return p != nullptr && std::find(p->racks.begin(), p->racks.end(),
                                     rack) != p->racks.end();
  }
  void record_rack(cluster::StripeId stripe, int rack) {
    if (Placed* p = find(stripe)) p->racks.push_back(rack);
  }

 private:
  struct Placed {
    std::vector<cluster::NodeId> nodes;
    std::vector<int> racks;
  };
  Placed* find(cluster::StripeId stripe) {
    if (placed_.empty()) return nullptr;
    const auto it = placed_.find(stripe);
    return it == placed_.end() ? nullptr : &it->second;
  }
  const Placed* find(cluster::StripeId stripe) const {
    return const_cast<PlacedOverlay*>(this)->find(stripe);
  }
  std::unordered_map<cluster::StripeId, Placed> placed_;
};

/// Helper reads for rebuilding `chunk` on its own, outside a matched
/// round: the code picks them among the stripe's chunks whose nodes are
/// `usable` (LRC's local group first, its global parities when the
/// group is damaged); the chunk's own index never serves.
/// `stripe_nodes[i]` holds chunk i of the stripe. nullopt when the
/// usable chunks cannot rebuild it.
std::optional<std::vector<SourceRead>> pick_helpers(
    const ec::ErasureCode& code, cluster::ChunkRef chunk,
    const std::vector<cluster::NodeId>& stripe_nodes,
    const std::function<bool(cluster::NodeId)>& usable);

/// Hot-standby destination: the next spare round-robin from
/// `*standby_cursor` that holds no repaired chunk of `stripe` yet
/// (recorded in `placed`).
cluster::NodeId next_spare(const std::vector<cluster::NodeId>& spares,
                           cluster::StripeId stripe, int* standby_cursor,
                           PlacedOverlay* placed);

/// Assigns sources and destinations for one scheduled round.
/// Every node in `stf_batch` (the STF batch, or every dead node for a
/// reactive round) is excluded from sources and destinations, and each
/// migration reads its chunk off the member disk that stores it.
/// `source_nodes`: healthy nodes eligible for helper reads; each serves
/// at most one read per round.
/// `dest_nodes`: scattered → healthy storage nodes; hot-standby → spares.
/// `standby_cursor`: round-robin state across rounds (hot-standby only).
/// Per-chunk helper counts and candidate indices come from `code` (LRC
/// locality included).
/// `balance_destinations`: pick the scattered destination matching that
/// minimizes total destination load (min-cost matching over current
/// chunk counts) instead of an arbitrary maximum matching.
/// `placed` (optional) vetoes destinations already used for the same
/// stripe earlier in the plan and records this round's assignments.
///
/// `topology` (optional, DESIGN.md §11) activates rack-aware placement
/// when it names more than one rack: scattered destinations additionally
/// honor the failure-domain invariant (no rack ends up with two chunks
/// of one stripe after the plan applies) and are chosen greedily to
/// prefer in-rack migrations and to spread each round's repaired chunks
/// across racks (balancing the shared rack downlinks); helper reads are
/// biased toward racks with fewer scheduled reads this round. Flat or
/// single-rack topologies take the exact legacy code path, bit-identical
/// plans included. Hot-standby spares stay exempt from the rack
/// invariant (they live in an overflow rack of their own).
///
/// `deprioritized` (optional, DESIGN.md §11): nodes whose helper reads
/// the matching should avoid when any alternative exists — degraded
/// links reported by the bandwidth replan trigger. A preference, never
/// a feasibility constraint: a chunk whose only eligible helpers are
/// deprioritized still gets them. Null/empty leaves the assignment
/// bit-identical.
RepairRound assign_round(
    const cluster::StripeLayout& layout,
    const std::vector<cluster::NodeId>& stf_batch,
    const std::vector<cluster::NodeId>& source_nodes,
    const std::vector<cluster::NodeId>& dest_nodes, Scenario scenario,
    const ec::ErasureCode& code, const ScheduledRound& round,
    int* standby_cursor, bool balance_destinations = false,
    PlacedOverlay* placed = nullptr,
    const net::Topology* topology = nullptr,
    const std::vector<cluster::NodeId>* deprioritized = nullptr);

}  // namespace fastpr::core
