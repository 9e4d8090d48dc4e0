// FastPR planner facade: cluster metadata + STF batch in, RepairPlan out.
//
// Every node flagged soon-to-fail forms one batch B >= 1 (the paper's
// single STF node is the batch of one; DESIGN.md §8). Algorithm 1 runs
// over the union of the members' chunks — all members are excluded from
// the source side, so helpers stay disjoint across members — and
// Algorithm 2 packs one reconstruction set plus an independent migration
// stream per member disk into each round.
//
// Also builds the plans the paper and the batch sweep compare against:
//  * migration-only — every chunk relocated off the STF node;
//  * reconstruction-only — every chunk decoded (this is the conventional
//    reactive repair, executed proactively);
//  * sequential — each batch member planned alone, back to back;
// and the plans a repair falls back to mid-execution: reactive repair
// once the batch is dead, and a bandwidth replan of the remaining rounds.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster_state.h"
#include "cluster/stripe_layout.h"
#include "core/cost_model.h"
#include "core/recon_sets.h"
#include "core/repair_plan.h"
#include "core/scheduler.h"

namespace fastpr::core {

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
  /// Plans for every node flagged soon-to-fail in `cluster` (at least
  /// one). Both references must outlive the planner.
  FastPrPlanner(const cluster::StripeLayout& layout,
                const cluster::ClusterState& cluster,
                const PlannerOptions& options);

  /// The STF batch, ascending node id.
  const std::vector<cluster::NodeId>& batch() const { return batch_; }

  /// The coupled migration+reconstruction plan (Algorithms 1 and 2),
  /// joint over the batch. Chunks whose stripes the batch itself left
  /// with fewer than k' healthy helpers cannot be reconstructed; they
  /// migrate while their member disk is still alive.
  RepairPlan plan_fastpr();

  /// Batch baseline: each member planned alone with Algorithms 1 and 2,
  /// the plans executed back to back (concatenated rounds, shared
  /// cross-round destination memory).
  RepairPlan plan_sequential();

  /// Baseline: one reconstruction set per round, no migration. Batch of
  /// one only.
  RepairPlan plan_reconstruction_only();

  /// Baseline: migrate everything, destinations spread for balance.
  /// Batch of one only.
  RepairPlan plan_migration_only();

  /// Reactive repair (DESIGN.md §7): the batch is dead, along with every
  /// node in `failed`, and the batch chunks not in `already_handled`
  /// (repaired or abandoned) must be rebuilt. Plans pure reconstruction
  /// — nothing can migrate off a dead disk — drawing helpers and
  /// destinations only from nodes still alive. Chunks whose preferred
  /// helpers are partly gone take the code's degraded path; chunks no
  /// surviving stripe can rebuild are reported unrepairable.
  ReactiveResult plan_reactive(
      const std::vector<cluster::ChunkRef>& already_handled,
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
  /// repairability — only read placement. Batch of one only.
  RepairPlan plan_fastpr_remaining(
      const std::vector<cluster::ChunkRef>& already_repaired,
      const std::vector<cluster::NodeId>& deprioritized);

  /// The §III analysis instantiated for this cluster and batch (B =
  /// batch size, U = chunks across all members, M = storage-node count,
  /// bandwidths from the cluster). Exactly Equations 1–6 at B = 1.
  CostModel cost_model() const;

  /// Stats of the last Algorithm 1 search: plan_fastpr's (also shared by
  /// plan_reconstruction_only), plan_sequential's (summed over members)
  /// or plan_fastpr_remaining's, whichever searched last.
  const ReconSetStats& recon_stats() const { return recon_stats_; }

 private:
  std::vector<cluster::NodeId> source_nodes() const;
  std::vector<cluster::NodeId> dest_nodes() const;
  /// Largest per-round repair count for which a scattered destination
  /// matching over `dests` live candidates is guaranteed (Hall):
  /// |dests| - (n-1).
  int scattered_round_capacity(size_t dests) const;
  ReconSetOptions effective_recon_options(size_t dests) const;
  SchedulerOptions effective_sched_options() const;
  /// The cost model for `members` repaired as one batch.
  CostModel model_for(const std::vector<cluster::NodeId>& members) const;

  /// `live` as a mask indexed by node id, for reaches_helpers.
  std::vector<char> live_mask(const std::vector<cluster::NodeId>& live) const;
  /// Whether `chunk` can still reach the helpers its repair fetches (k'
  /// for its index, or k_repair) among the nodes `live` marks.
  bool reaches_helpers(cluster::ChunkRef chunk,
                       const std::vector<char>& live) const;
  /// Removes and returns the chunks whose stripes the batch itself left
  /// with fewer than k' healthy helpers (order-stable partition).
  std::vector<cluster::ChunkRef> split_forced_migrations(
      std::vector<cluster::ChunkRef>& chunks) const;
  /// Every batch member's chunks, member order, minus `handled`.
  std::vector<cluster::ChunkRef> batch_chunks(
      const std::vector<cluster::ChunkRef>& handled = {}) const;

  /// Algorithm 1 over the batch's reconstructable chunks, computed once
  /// and shared by plan_fastpr and plan_reconstruction_only (both
  /// partition the same chunk set); forced_ receives the rest.
  const std::vector<std::vector<cluster::ChunkRef>>& recon_sets();

  /// §IV-A placement of `rounds` in order, sharing one standby cursor
  /// and one cross-round destination overlay.
  RepairPlan place(const std::vector<ScheduledRound>& rounds,
                   const std::vector<cluster::NodeId>* deprioritized =
                       nullptr) const;
  RepairPlan empty_plan() const;

  const cluster::StripeLayout& layout_;
  const cluster::ClusterState& cluster_;
  PlannerOptions options_;
  std::vector<cluster::NodeId> batch_;
  ReconSetStats recon_stats_;
  std::vector<std::vector<cluster::ChunkRef>> cached_sets_;
  std::vector<cluster::ChunkRef> forced_;
  bool sets_ready_ = false;
};

}  // namespace fastpr::core
