// Cluster-wide adaptive repair-bandwidth throttler (DESIGN.md §10).
//
// The coordinator owns one global repair budget and leases per-agent
// shares with TTLs, in the style of ytsaurus's distributed throttler:
// each tick re-leases every agent's share, sized by the foreground
// pressure that agent last reported (FlowMonitor EWMAs relayed over
// kPressureReport / kPong piggybacks), and the global budget ramps via
// AIMD against a foreground p99 SLO target. Leases that expire
// un-renewed — the agent is silent, crashed, or partitioned — return
// their share to the pool so one stuck agent cannot strand budget.
//
// Panic mode reproduces the paper's motivating trade-off: when a
// deadline (the predictor's remaining-lifetime estimate, or an explicit
// CLI bound) says the STF node will die before repair finishes at the
// current pace, the throttler deliberately breaches the SLO, logs the
// decision once, and pins the budget at the ceiling until the run ends.
//
// Pure control logic: no clock (callers pass `now_us` on one monotonic
// timebase — the coordinator uses telemetry::trace_now_us()), no
// transport (tick() returns the grants to send). That keeps every edge
// case unit-testable with synthetic time.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "cluster/types.h"
#include "util/annotations.h"
#include "util/mutex.h"

namespace fastpr::core {

/// AIMD never cuts the global budget below this share of the ceiling
/// (repair always makes *some* progress — liveness).
inline constexpr double kFloorShare = 1.0 / 20;
/// Additive ramp per tick while under the SLO, as a share of the ceiling.
inline constexpr double kIncreaseShare = 1.0 / 20;
/// Multiplicative cut on an SLO breach.
inline constexpr double kDecreaseFactor = 0.5;
/// Lease lifetime. An agent whose last pressure report is older than
/// this is considered silent and its share returns to the pool; the
/// coordinator ticks at kLeaseTtlUs / 3 so healthy leases renew well
/// before expiring.
inline constexpr int64_t kLeaseTtlUs = 200'000;

struct ThrottlerOptions {
  /// Ceiling: the cluster-wide repair budget (bytes/s). Must be > 0.
  double total_bytes_per_sec = 0;
  /// Foreground p99 SLO target (seconds). <= 0 disables AIMD even when
  /// `adaptive` is set (there is no target to compare against).
  double slo_p99_seconds = 0;
  /// false = fixed budget (initial_fraction of the ceiling, forever) —
  /// the "polite cap" baseline of bench_foreground.
  bool adaptive = true;
  /// Starting budget as a fraction of the ceiling.
  double initial_fraction = 0.5;
};

/// One per-agent lease, to be delivered as a kLeaseGrant message.
struct LeaseGrant {
  cluster::NodeId agent = cluster::kNoNode;
  uint64_t seq = 0;            // globally monotonic across all grants
  double bytes_per_sec = 0;    // the leased repair rate
  int64_t ttl_us = 0;
};

struct ThrottlerStats {
  bool panic = false;
  int64_t leases_granted = 0;
  int64_t leases_expired = 0;
  int64_t slo_breaches = 0;
  double budget_bytes_per_sec = 0;
};

class RepairThrottler {
 public:
  explicit RepairThrottler(const ThrottlerOptions& options);

  /// Arms the throttler for one repair run: `total_repair_bytes` is the
  /// estimated bytes still to send (drives the panic-mode finish-time
  /// estimate), `now_us` starts every agent's lease clock. The grant
  /// sequence number keeps rising across resets so a stale grant from a
  /// previous run can never be applied by an agent.
  void reset(int64_t now_us, double total_repair_bytes)
      FASTPR_EXCLUDES(mutex_);

  /// Registers an agent in the pool (idempotent).
  void add_agent(cluster::NodeId node) FASTPR_EXCLUDES(mutex_);

  /// Folds one foreground-pressure observation from `node`. `seq` is the
  /// highest grant sequence the agent has applied (stale reports — seq
  /// older than the latest grant minus one full re-lease — still renew
  /// the lease; the payload is what matters). Re-admits an expired
  /// agent.
  void report_pressure(cluster::NodeId node, uint64_t seq,
                       double p99_seconds, double fg_bytes_per_sec,
                       int64_t now_us) FASTPR_EXCLUDES(mutex_);

  /// Repair progress: `bytes_done` more repair bytes have landed.
  void on_progress(double bytes_done) FASTPR_EXCLUDES(mutex_);

  /// Re-estimates the outstanding repair bytes (after a replan, say).
  void set_remaining(double bytes) FASTPR_EXCLUDES(mutex_);

  /// Absolute deadline (same timebase as now_us) by which repair must
  /// finish — the predicted STF death. Enables panic mode.
  void set_deadline(int64_t deadline_us) FASTPR_EXCLUDES(mutex_);

  /// One throttle step: expires silent leases, runs the AIMD update
  /// against the freshest pressure reports, evaluates the panic
  /// predicate, and returns a fresh lease for every known agent.
  std::vector<LeaseGrant> tick(int64_t now_us) FASTPR_EXCLUDES(mutex_);

  bool panic() const FASTPR_EXCLUDES(mutex_);
  double budget_bytes_per_sec() const FASTPR_EXCLUDES(mutex_);
  ThrottlerStats stats() const FASTPR_EXCLUDES(mutex_);

 private:
  struct AgentState {
    int64_t last_report_us = 0;
    uint64_t last_seq_granted = 0;
    double p99_seconds = 0;
    double fg_bytes_per_sec = 0;
    bool live = true;        // false once the lease expired un-renewed
    bool reported = false;   // any report since the last tick
  };

  /// Current finish-time estimate vs the deadline; flips panic_ (sticky
  /// for the rest of the run) and logs the decision once.
  void evaluate_panic_locked(int64_t now_us) FASTPR_REQUIRES(mutex_);
  double floor_rate() const {
    return options_.total_bytes_per_sec * kFloorShare;
  }

  const ThrottlerOptions options_;

  mutable Mutex mutex_{lock_order::kCoreThrottler};
  std::map<cluster::NodeId, AgentState> agents_ FASTPR_GUARDED_BY(mutex_);
  double budget_ FASTPR_GUARDED_BY(mutex_);  // bytes/s, in [floor, total]
  double bytes_remaining_ FASTPR_GUARDED_BY(mutex_) = 0;
  int64_t deadline_us_ FASTPR_GUARDED_BY(mutex_) = 0;  // 0 = none
  bool panic_ FASTPR_GUARDED_BY(mutex_) = false;
  uint64_t next_seq_ FASTPR_GUARDED_BY(mutex_) = 0;
  int64_t leases_granted_ FASTPR_GUARDED_BY(mutex_) = 0;
  int64_t leases_expired_ FASTPR_GUARDED_BY(mutex_) = 0;
  int64_t slo_breaches_ FASTPR_GUARDED_BY(mutex_) = 0;
};

}  // namespace fastpr::core
