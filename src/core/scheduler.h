// Algorithm 2 of the paper: schedule repair rounds.
//
// Given the reconstruction sets from Algorithm 1, each round reconstructs
// the largest remaining set R_l while concurrently migrating cm chunks
// drawn from the smallest sets (cm = tr/tm — migration and
// reconstruction finish a round together). Larger sets go to
// reconstruction because they parallelize; smaller sets migrate because
// their parallelism is poor and migration costs no extra traffic.
#pragma once

#include <functional>
#include <vector>

#include "cluster/types.h"
#include "core/cost_model.h"

namespace fastpr::core {

struct ScheduledRound {
  std::vector<cluster::ChunkRef> reconstruct;  // R_l
  std::vector<cluster::ChunkRef> migrate;      // M_l
  /// How this round's reconstructions move their helper traffic.
  RepairStrategy strategy = RepairStrategy::kFanIn;
};

struct SchedulerOptions {
  /// Ablation: override the model-derived quota with a constant
  /// (negative = use cm = tr(cr)/tm from the cost model).
  int fixed_migration_quota = -1;
  /// Cap on cr + cm per round so the scattered destination matching is
  /// always feasible (|healthy dests| - (n-1)). 0 = no cap (hot-standby).
  int max_round_repairs = 0;
  /// Reconstruction strategy per round: fan-in, chain, or let the cost
  /// model pick the faster one for each round's cr (kAuto). The
  /// migration quota cm = tr(cr)/tm always uses the chosen strategy's
  /// tr — a pipelined round finishes sooner and carries fewer
  /// migrations alongside it.
  StrategyChoice strategy = StrategyChoice::kFanIn;
};

/// Resolves the planner-facing knob to a concrete per-round strategy.
RepairStrategy resolve_strategy(StrategyChoice choice,
                                const CostModel& model, int cr);

/// Runs Algorithm 2 (generalized to a batch of STF nodes, DESIGN.md §8).
/// `recon_sets` is consumed by value (the algorithm splits sets). Each
/// STF disk is an independent migration stream, so every one of the
/// model's `batch` members gets its OWN per-round quota cm = tr(cr)/tm
/// while `options.max_round_repairs` still bounds the round's total
/// cr + cm (shared destination capacity). `member_of` maps a chunk to
/// the index of the member storing it; when empty, every chunk is on
/// member 0, which is Algorithm 2 exactly.
std::vector<ScheduledRound> schedule_repair(
    std::vector<std::vector<cluster::ChunkRef>> recon_sets,
    const CostModel& model, const SchedulerOptions& options = {},
    const std::function<int(cluster::ChunkRef)>& member_of = {});

}  // namespace fastpr::core
