// Paper-shaped aggregation of one executed repair (DESIGN.md §5c).
//
// The evaluation sections of the paper reason about repair time round
// by round: each round reconstructs cr = |R_l| chunks while cm ≈ tr/tm
// chunks migrate concurrently (Algorithm 2). RepairReport is that
// table, measured: the coordinator fills one RepairRoundStats per
// executed round, the testbed adds the STF-disk utilization, and the
// caller can attach the cost model's per-round prediction so measured
// and modelled round structure diff side by side.
//
// This header deliberately depends on nothing but the standard library:
// predictions arrive as plain numbers (computed by callers who know
// core::CostModel), keeping telemetry at the bottom of the link graph.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fastpr::telemetry {

/// One executed repair round.
struct RepairRoundStats {
  int round = 0;  // 1-based, matching the paper's figures
  int cr = 0;     // chunks repaired by reconstruction (fallbacks included)
  int cm = 0;     // chunks repaired by migration
  /// Migrations that failed and were re-executed as reconstructions
  /// (each also counts in cr, not cm).
  int fallbacks = 0;
  /// Task reissues during the round — failed or stalled tasks sent out
  /// again with alternate helpers/destinations (fallback conversions
  /// included).
  int retries = 0;
  int64_t bytes_reconstructed = 0;  // repaired bytes written via decode
  int64_t bytes_migrated = 0;       // repaired bytes copied off the STF node
  double duration_seconds = 0;
  /// Fraction of the STF node's disk bandwidth consumed by this round's
  /// migration reads (bytes_migrated / (disk_bw * duration)). Filled by
  /// the testbed, which knows the configured disk rate; 0 when the disk
  /// is unshaped or the rate is unknown.
  double stf_bw_utilization = 0;
  /// Measured reconstruction / migration phase times: start of round to
  /// the last completion of each kind. 0 when unmeasured (simulator) or
  /// the round ran none of that kind.
  double tr_seconds = 0;
  double tm_seconds = 0;
};

/// Cost-model expectation for one round (see CostModel::round_time).
/// tr/tm are the model's Eq 1–4 phase terms; 0 when the caller only
/// attached the round total.
struct PredictedRound {
  int cr = 0;
  int cm = 0;
  double duration_seconds = 0;
  double tr_seconds = 0;
  double tm_seconds = 0;
};

/// One directed (src, dst) link's bandwidth estimate, as measured by
/// telemetry::FlowMonitor.
struct LinkBandwidth {
  int src = -1;
  int dst = -1;
  int64_t tx_bytes = 0;  // wire bytes handed to the transport
  int64_t rx_bytes = 0;  // wire bytes delivered
  double ewma_bytes_per_sec = 0;      // 0 until the first window closes
  double expected_bytes_per_sec = 0;  // the round's plan rate; 0 = unknown
  int64_t injected_delay_us = 0;      // fault-plan time excluded from rate
  bool straggler = false;  // ewma < kStragglerFactor * expected
};

/// Per-STF-node breakdown of an execution, one per batch member
/// (DESIGN.md §8). Plain ints so telemetry keeps its stdlib-only
/// footing; `stf` is the node id.
struct StfRepairStats {
  int stf = -1;
  int planned = 0;        // chunks of this node the plan covers
  int migrated = 0;
  int reconstructed = 0;
  int unrepaired = 0;
  /// Round (1-based) in which THIS node was declared dead; 0 = alive.
  int died_at_round = 0;
};

struct RepairReport {
  std::vector<RepairRoundStats> rounds;
  /// Empty, or exactly rounds.size() entries aligned by index.
  std::vector<PredictedRound> predicted;
  double total_seconds = 0;
  /// First round (1-based) in which the execution degraded from
  /// predictive to reactive repair (STF death); 0 = never degraded.
  int degraded_at_round = 0;
  /// One entry per STF batch member, in plan order. The JSON carries it
  /// for batches of two or more only, so single-STF output is unchanged.
  std::vector<StfRepairStats> per_stf;
  /// Per-link EWMA bandwidth estimates from the flow monitor; empty
  /// (and absent from the JSON) when flow telemetry was off.
  std::vector<LinkBandwidth> links;

  int total_cr() const;
  int total_cm() const;

  /// One JSON object: totals plus per-round rows (and predictions when
  /// attached). Embeddable — no trailing newline.
  std::string to_json() const;
  /// Header + one line per round.
  std::string to_csv() const;
};

/// JSON array of per-link rows — the `links` part of RepairReport's
/// JSON, also what `fastpr_cli --flow-out` writes standalone.
std::string links_to_json(const std::vector<LinkBandwidth>& links);

}  // namespace fastpr::telemetry
