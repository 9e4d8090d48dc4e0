// Repair-time simulator.
//
// Mirrors the paper's single-machine simulator (§VI-A): the planning
// algorithms run for real, while disk I/O and network transfers are
// replaced by computed execution times from the input bandwidths.
//
// Two timing models:
//  * kPaperModel — the §III decomposition exactly: each round costs
//    core::CostModel::round_time(cr, busiest source's migrations,
//    strategy), i.e. max(migrations·tm, tr) with tr from Eq. (5)/(6) or
//    the chain form. This is what the paper's simulator computes and
//    what Figures 8–10 plot.
//  * kResourceModel — per-node accounting: every node's disk moves
//    (reads+writes)/bd and its NIC max(tx,rx)/bn; a round lasts as long
//    as its busiest resource (plus the single-chunk pipeline floor).
//    Used as an ablation to show the conclusions survive a contention-
//    aware model.
#pragma once

#include <vector>

#include "core/cost_model.h"
#include "core/repair_plan.h"

namespace fastpr::sim {

enum class TimingModel { kPaperModel, kResourceModel };

/// The §III model inputs plus what only the simulator needs. The
/// ModelParams fields mean what they mean to core::CostModel, which
/// also validates them; num_nodes, stf_chunks and batch do not affect a
/// round's time.
struct SimParams : core::ModelParams {
  TimingModel model = TimingModel::kPaperModel;
  /// Rack topology (DESIGN.md §11). With topo_racks > 1 and
  /// oversubscription > 1, each round additionally pays for the busiest
  /// rack uplink/downlink: all cross-rack bytes of a rack share
  /// topo_nodes_per_rack · net_bw / oversubscription, and the round
  /// lasts at least as long as the busiest shared link. Racks are the
  /// block mapping node / topo_nodes_per_rack (net::Topology). The
  /// defaults (single rack, factor 1) leave every round time
  /// bit-identical to the flat simulator.
  int topo_racks = 1;
  int topo_nodes_per_rack = 0;
};

struct SimResult {
  double total_time = 0;
  std::vector<double> round_times;
  int migrated = 0;
  int reconstructed = 0;
  /// Chunks moved over the network: one per migration, one per helper
  /// read of each reconstruction.
  long repair_traffic_chunks = 0;

  int repaired() const { return migrated + reconstructed; }
  double per_chunk() const {
    return repaired() == 0 ? 0.0 : total_time / repaired();
  }
};

/// Replays `plan` against the timing model and accumulates round times.
SimResult simulate(const core::RepairPlan& plan, const SimParams& params);

}  // namespace fastpr::sim
