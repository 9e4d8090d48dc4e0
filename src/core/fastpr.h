// FastPR planner facade: cluster metadata + STF node in, RepairPlan out.
//
// Also builds the two baseline plans the paper evaluates against:
//  * migration-only — every chunk relocated off the STF node;
//  * reconstruction-only — every chunk decoded (this is the conventional
//    reactive repair, executed proactively).
#pragma once

#include <cstdint>

#include "cluster/cluster_state.h"
#include "cluster/stripe_layout.h"
#include "core/cost_model.h"
#include "core/recon_sets.h"
#include "core/repair_plan.h"
#include "core/scheduler.h"

namespace fastpr::core {

/// Output of the mid-repair reactive replan (the STF node died during
/// plan execution).
struct ReactiveReplan {
  /// Reconstruction-only rounds for the chunks not yet handled.
  RepairPlan plan;
  /// Chunks whose stripes retain fewer than k live chunks — data loss.
  std::vector<cluster::ChunkRef> unrepairable;
  /// Chunks rebuilt through the code's degraded path (LRC global
  /// parities when the local group is damaged).
  int degraded_repairs = 0;
};

struct PlannerOptions {
  Scenario scenario = Scenario::kScattered;
  /// Helper chunks fetched per repaired chunk (k for RS, k/l for LRC).
  /// Feeds the cost model; also the matching fetch count when no `code`
  /// is given.
  int k_repair = 6;
  double chunk_bytes = 0;
  /// Wire packet size, needed by the chain strategy's round-time model
  /// (0 = unknown → StrategyChoice::kAuto resolves to fan-in).
  double packet_bytes = 0;
  /// Per-forward overhead of a chain hop (ModelParams field of the same
  /// name); keep equal to the testbed's charge so kAuto decides on the
  /// same numbers the execution will show.
  double chain_hop_overhead_seconds = 0;
  /// Fraction of the NIC rate repair may use (ModelParams field of the
  /// same name). Set to the throttler's budget fraction so migration
  /// quotas and round predictions match the execution's leased pace.
  double repair_bw_fraction = 1.0;
  /// Optional erasure code: when set, the matching honors the code's
  /// per-chunk helper counts and candidate sets (LRC locality). Must
  /// outlive the planner.
  const ec::ErasureCode* code = nullptr;
  /// Load-aware scattered destinations (min-cost matching on current
  /// chunk counts) instead of an arbitrary maximum matching.
  bool balance_destinations = false;
  /// Rack topology (DESIGN.md §11). When multi-rack, the cost model
  /// charges cross-rack transfers the oversubscription penalty, helper
  /// reads are rack-interleaved, and scattered placement turns
  /// rack-aware (failure-domain invariant + in-rack migrations +
  /// destination spreading). Null or single-rack: flat planning,
  /// bit-identical to the legacy path. Must outlive the planner.
  const net::Topology* topology = nullptr;
  ReconSetOptions recon;
  SchedulerOptions sched;
};

class FastPrPlanner {
 public:
  /// The STF node must already be flagged in `cluster`. Both references
  /// must outlive the planner.
  FastPrPlanner(const cluster::StripeLayout& layout,
                const cluster::ClusterState& cluster,
                const PlannerOptions& options);

  /// The coupled migration+reconstruction plan (Algorithms 1 and 2).
  RepairPlan plan_fastpr();

  /// Baseline: one reconstruction set per round, no migration.
  RepairPlan plan_reconstruction_only();

  /// Baseline: migrate everything, destinations spread for balance.
  RepairPlan plan_migration_only();

  /// Mid-repair degradation (DESIGN.md §7): the STF node died after
  /// `already_repaired` chunks were handled (repaired or abandoned);
  /// `failed` lists every other node declared dead during execution.
  /// Plans pure reactive reconstruction of the remaining STF chunks,
  /// drawing helpers and destinations only from nodes still alive.
  ReactiveReplan plan_reactive(
      const std::vector<cluster::ChunkRef>& already_repaired,
      const std::vector<cluster::NodeId>& failed);

  /// Mid-repair bandwidth replan (DESIGN.md §11): the STF node is still
  /// alive but measured link bandwidth drifted far from the model, so
  /// the remaining rounds are replanned from scratch. Re-runs Algorithm
  /// 1 + 2 over the chunks not in `already_repaired`, planning around
  /// the `deprioritized` nodes (the straggling-link endpoints)
  /// structurally: chunks that can reach k' helpers without them form
  /// their reconstruction sets over the reduced source list, so those
  /// rounds carry zero straggler reads by construction; chunks whose
  /// stripes need a straggler fall back to the full list with the
  /// stragglers ordered last in every adjacency. Never sacrifices
  /// repairability — only read placement.
  RepairPlan plan_fastpr_remaining(
      const std::vector<cluster::ChunkRef>& already_repaired,
      const std::vector<cluster::NodeId>& deprioritized);

  /// The §III analysis instantiated for this cluster (U = chunks on the
  /// STF node, M = storage-node count, bandwidths from the cluster).
  CostModel cost_model() const;

  /// §IV-D: seed the planner with precomputed reconstruction sets
  /// (e.g. from a ReconSetCache) instead of running Algorithm 1 now.
  /// The sets must exactly cover the STF node's chunks and respect the
  /// scattered destination capacity; both are checked.
  void use_reconstruction_sets(
      std::vector<std::vector<cluster::ChunkRef>> sets);

  /// Stats of the last Algorithm 1 run: plan_fastpr's (also shared by
  /// plan_reconstruction_only), or plan_fastpr_remaining's, whichever
  /// searched last.
  const ReconSetStats& recon_stats() const { return recon_stats_; }

 private:
  std::vector<cluster::NodeId> source_nodes() const;
  std::vector<cluster::NodeId> dest_nodes() const;
  /// Largest per-round repair count for which a scattered destination
  /// matching is guaranteed (Hall): |dest| - (n-1).
  int scattered_round_capacity() const;

  ReconSetOptions effective_recon_options() const;

  /// Algorithm 1 output, computed once and shared by plan_fastpr and
  /// plan_reconstruction_only (both partition the same chunk set).
  const std::vector<std::vector<cluster::ChunkRef>>& recon_sets();

  const cluster::StripeLayout& layout_;
  const cluster::ClusterState& cluster_;
  PlannerOptions options_;
  cluster::NodeId stf_;
  ReconSetStats recon_stats_;
  std::vector<std::vector<cluster::ChunkRef>> cached_sets_;
  bool sets_ready_ = false;
};

}  // namespace fastpr::core
