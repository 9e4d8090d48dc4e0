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
#include <memory>
#include <optional>
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
  /// Helper chunks fetched per repaired chunk (k for RS, k/l for LRC):
  /// the cost model's k. With a `code`, it must equal
  /// code->repair_fetch_count(0).
  int k_repair = 6;
  double chunk_bytes = 0;
  /// Wire packet size, needed by the chain strategy's round-time model
  /// (0 = unknown → StrategyChoice::kAuto resolves to fan-in).
  double packet_bytes = 0;
  /// Per-forward overhead of a chain hop (ModelParams field of the same
  /// name); keep equal to the testbed's charge so kAuto decides on the
  /// same numbers the execution will show.
  double chain_hop_overhead_seconds = 0;
  /// The erasure code whose per-chunk helper counts and candidate sets
  /// every plan draws helpers from (LRC locality included). Null means
  /// RS(n, k_repair) over the layout's n chunks per stripe, which the
  /// planner builds and owns. Must outlive the planner.
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

  /// Mid-repair bandwidth replan (DESIGN.md §11): the batch is still
  /// alive but measured link bandwidth drifted far from the model, so
  /// the remaining rounds are replanned from scratch. Runs plan_fastpr's
  /// pipeline over the chunks not in `already_repaired`, planning around
  /// the `deprioritized` nodes (the straggling-link endpoints)
  /// structurally: chunks that can reach k' helpers without them form
  /// their reconstruction sets over the reduced source list, so those
  /// rounds carry zero straggler reads by construction; chunks whose
  /// stripes need a straggler fall back to the full list with the
  /// stragglers ordered last in every adjacency. Never sacrifices
  /// repairability — only read placement. Any batch size. `done`, the
  /// rounds already executed, keeps a stripe with chunks on two members
  /// from landing both on one node (at B = 1 it may stay empty).
  RepairPlan plan_fastpr_remaining(
      const std::vector<cluster::ChunkRef>& already_repaired,
      const std::vector<cluster::NodeId>& deprioritized,
      const std::vector<RepairRound>& done = {});

  /// The §III analysis instantiated for this cluster and batch (B =
  /// batch size, U = chunks across all members, M = storage-node count,
  /// bandwidths from the cluster). Exactly Equations 1–6 at B = 1.
  CostModel cost_model() const;

  /// Stats of the last Algorithm 1 search: plan_fastpr's (also shared by
  /// plan_reconstruction_only), plan_sequential's (summed over members)
  /// or plan_fastpr_remaining's, whichever searched last.
  const ReconSetStats& recon_stats() const { return recon_stats_; }

 private:
  /// What the pipeline's search step found: Algorithm 1's sets, and the
  /// forced migrations (chunks with fewer than k' healthy helpers).
  struct Search {
    std::vector<std::vector<cluster::ChunkRef>> sets;
    std::vector<cluster::ChunkRef> forced;
  };

  /// The code every plan draws helpers from.
  const ec::ErasureCode& code() const { return *options_.code; }
  std::vector<cluster::NodeId> dest_nodes() const;
  /// Largest per-round repair count for which a scattered destination
  /// matching over `dests` live candidates is guaranteed (Hall):
  /// |dests| - (n-1).
  int scattered_round_capacity(size_t dests) const;
  ReconSetOptions effective_recon_options(size_t dests) const;
  /// The cost model for `members` repaired as one batch.
  CostModel model_for(const std::vector<cluster::NodeId>& members) const;

  /// Removes and returns (order-stably) the chunks that cannot reach
  /// their k' helpers among `live` (ascending node ids).
  std::vector<cluster::ChunkRef> split_unreachable(
      std::vector<cluster::ChunkRef>& chunks,
      const std::vector<cluster::NodeId>& live) const;
  /// Every batch member's chunks, member order, minus `handled`.
  std::vector<cluster::ChunkRef> batch_chunks(
      const std::vector<cluster::ChunkRef>& handled = {}) const;

  /// Pipeline step 1: splits off the forced migrations, then runs
  /// Algorithm 1 over the rest (counters added to recon_stats_). With
  /// `deprioritized`, chunks that reach k' helpers without those nodes
  /// search the reduced source list first, the rest the full list.
  Search search(std::vector<cluster::ChunkRef> chunks,
                const std::vector<cluster::NodeId>& deprioritized = {});
  /// The full batch's search, run once for plan_fastpr and
  /// plan_reconstruction_only.
  const Search& full_search();
  /// Pipeline step 2: Algorithm 2 with one migration quota per disk of
  /// `members`, then the forced migrations spread over the rounds.
  std::vector<ScheduledRound> schedule(
      Search found, const std::vector<cluster::NodeId>& members) const;

  /// §IV-A placement of `rounds` in order, sharing one standby cursor
  /// and one cross-round destination overlay that starts out holding
  /// the `done` rounds' destinations.
  RepairPlan place(const std::vector<ScheduledRound>& rounds,
                   const std::vector<cluster::NodeId>* deprioritized = nullptr,
                   const std::vector<RepairRound>& done = {}) const;
  RepairPlan empty_plan() const;

  const cluster::StripeLayout& layout_;
  const cluster::ClusterState& cluster_;
  /// options_.code always names the code: the caller's, or default_code_.
  PlannerOptions options_;
  std::unique_ptr<const ec::ErasureCode> default_code_;
  std::vector<cluster::NodeId> batch_;
  ReconSetStats recon_stats_;
  std::optional<Search> full_search_;
};

}  // namespace fastpr::core
