// Trace-driven cluster lifetime simulation.
//
// The paper's motivation (§I, §II-B): minimizing repair time shrinks
// the *window of vulnerability* — the interval during which a failed
// node's stripes run with reduced redundancy and a correlated second
// failure can destroy data. This module plays years of cluster life:
// nodes fail as a Poisson process, a predictor flags a configurable
// fraction of failures with a random lead time, FastPR repairs flagged
// nodes proactively and reactive repair (FastPrPlanner::plan_reactive)
// cleans up everything the predictor missed (or didn't finish in time).
// It reports vulnerability time, degraded-stripe exposure, data-loss
// events and repair traffic — with the predictive policy ON or OFF, so
// benches can quantify what prediction accuracy buys.
#pragma once

#include <cstdint>
#include <memory>

#include "core/cost_model.h"
#include "ec/erasure_code.h"
#include "ec/rs_code.h"
#include "util/stats.h"

namespace fastpr::lifetime {

struct LifetimeConfig {
  int num_nodes = 100;
  /// The stripes' code: the planner draws helpers from it, and a stripe
  /// survives up to n - k concurrent losses.
  std::shared_ptr<const ec::ErasureCode> code =
      std::make_shared<const ec::RsCode>(9, 6);
  int num_stripes = 1000;
  double chunk_bytes = 0;
  double disk_bw = 0;
  double net_bw = 0;
  int hot_standby = 3;
  /// Only kScattered is supported (a spare taking over a node's
  /// identity is beyond the placement model).
  core::Scenario scenario = core::Scenario::kScattered;

  double sim_days = 365.0;
  /// Per-node exponential MTBF; cluster failure rate = nodes / mtbf.
  double node_mtbf_days = 1000.0;
  /// Fraction of failures the predictor flags in advance.
  double prediction_recall = 0.95;
  /// Flag precedes the failure by Uniform[min, max] days.
  double lead_days_min = 2.0;
  double lead_days_max = 10.0;
  /// Cluster-wide false-alarm rate (flagged nodes that never fail; they
  /// are still repaired, per the paper's assumption 2).
  double false_alarms_per_year = 2.0;
  /// Policy switch: false disables proactive repair entirely (pure
  /// reactive baseline).
  bool predictive_enabled = true;

  uint64_t seed = 1;
};

struct LifetimeReport {
  int failures = 0;
  int predicted = 0;          // flagged with enough lead to plan
  int completed_in_time = 0;  // proactive repair done before the failure
  int false_alarms = 0;
  int data_loss_stripes = 0;  // stripes that exceeded n-k concurrent losses

  /// Seconds during which some failed node's data had reduced
  /// redundancy (per failure; 0 when proactive repair finished early).
  double vulnerability_seconds = 0;
  /// Same, weighted by the number of stripes exposed.
  double degraded_stripe_seconds = 0;
  /// Chunks moved over the network for all repairs.
  long repair_traffic_chunks = 0;

  Summary repair_seconds;  // per-repair completion times

  double mean_vulnerability_per_failure() const {
    return failures == 0 ? 0.0 : vulnerability_seconds / failures;
  }
};

LifetimeReport simulate_lifetime(const LifetimeConfig& config);

}  // namespace fastpr::lifetime
