// One-call wrappers: build a cluster, plan each strategy, simulate, and
// report repair time per chunk — the loop every simulation experiment
// (Figures 8–10) runs 30 times and averages.
#pragma once

#include <cstdint>

#include "core/cost_model.h"
#include "core/fastpr.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace fastpr::sim {

struct ExperimentConfig {
  int num_nodes = 100;      // M (storage nodes)
  int num_stripes = 1000;
  int n = 9;                // stripe width
  int k = 6;                // data chunks / helpers per repair
  double chunk_bytes = 0;
  double disk_bw = 0;
  double net_bw = 0;
  int hot_standby = 3;      // spares provisioned (hot-standby scenario)
  core::Scenario scenario = core::Scenario::kScattered;
  TimingModel model = TimingModel::kPaperModel;
  uint64_t seed = 1;
};

/// Per-chunk repair times of all four approaches on one random layout.
struct StrategyTimes {
  double fastpr = 0;
  double reconstruction_only = 0;
  double migration_only = 0;
  double optimum = 0;       // Eq. (2), mathematical lower bound
  int stf_chunks = 0;       // U drawn for this layout
  int fastpr_rounds = 0;
};

/// Builds a random layout from `config.seed`, flags the most-loaded node
/// as STF (a node with no chunks would make the experiment vacuous),
/// plans all strategies and simulates them.
StrategyTimes run_experiment(const ExperimentConfig& config);

/// Averages `runs` experiments over different seeds (seed, seed+1, ...).
StrategyTimes run_averaged(const ExperimentConfig& config, int runs);

}  // namespace fastpr::sim
