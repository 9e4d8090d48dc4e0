// Agent-side enforcement of coordinator-leased repair bandwidth
// (DESIGN.md §10).
//
// A RepairBudget wraps one TokenBucket whose rate is whatever the
// coordinator last leased to this agent. Sender workers call acquire()
// for every repair data packet, so repair traffic blocks on the leased
// budget rather than the raw NIC share. Grants are applied only in
// sequence order — a re-sent or reordered kLeaseGrant can never
// double-apply — and a lease that reaches its TTL without renewal drops
// the bucket to a configured floor rate: a partitioned agent cannot
// keep consuming a share the coordinator has already returned to the
// pool, yet still trickles (liveness) until a fresh grant arrives.
//
// Lock discipline: the lease bookkeeping mutex (agent.repair_budget,
// rank 25) is only ever held for arithmetic; the blocking
// TokenBucket::acquire happens strictly after it is released.
#pragma once

#include <atomic>
#include <cstdint>

#include "cluster/types.h"
#include "util/annotations.h"
#include "util/mutex.h"
#include "util/token_bucket.h"
#include "util/units.h"

namespace fastpr::agent {

/// One foreground-pressure observation for a node: what an agent
/// reports to the coordinator in kPressureReport and piggybacks on
/// kPong.
struct NodePressure {
  double p99_seconds = 0;        // foreground op p99 latency
  double fg_bytes_per_sec = 0;   // foreground throughput on the node
};

/// Where an agent samples its node's foreground pressure from. The
/// testbed hands every agent a pointer into the foreground workload
/// (load::ForegroundWorkload implements this); without one, agents
/// report zero pressure and the throttler simply ramps to its ceiling.
class PressureSource {
 public:
  virtual ~PressureSource() = default;
  virtual NodePressure sample(cluster::NodeId node) = 0;
};

/// Late-binding indirection: agents capture their PressureSource at
/// construction, but the foreground workload is usually built *after*
/// the testbed. Agents point here; the testbed retargets it once the
/// workload exists. Unset target = zero pressure.
class ForwardingPressureSource final : public PressureSource {
 public:
  void set_target(PressureSource* target) {
    target_.store(target, std::memory_order_release);
  }
  NodePressure sample(cluster::NodeId node) override {
    PressureSource* t = target_.load(std::memory_order_acquire);
    return t != nullptr ? t->sample(node) : NodePressure{};
  }

 private:
  std::atomic<PressureSource*> target_{nullptr};
};

class RepairBudget {
 public:
  struct Options {
    /// Rate after a lease expires un-renewed (and before the first
    /// grant arrives). Keep small: this is the partitioned-agent
    /// trickle, not a working share.
    double floor_bytes_per_sec = 64 * kKiB;
  };

  explicit RepairBudget(const Options& options);

  /// Applies a grant if `seq` advances the applied sequence; stale or
  /// duplicate grants are dropped. Returns whether it was applied.
  bool apply_grant(uint64_t seq, double bytes_per_sec, int64_t ttl_us,
                   int64_t now_us) FASTPR_EXCLUDES(mutex_);

  /// Blocks until `bytes` of leased budget are available, first folding
  /// in TTL expiry (expired lease → floor rate).
  void acquire(int64_t bytes, int64_t now_us) FASTPR_EXCLUDES(mutex_);

  /// Teardown aid: unlimits the bucket so blocked senders drain out.
  /// Sticky — later grants and expiries are ignored.
  void release() FASTPR_EXCLUDES(mutex_);

  uint64_t applied_seq() const FASTPR_EXCLUDES(mutex_);
  double current_rate() const { return bucket_.rate(); }
  int64_t leases_applied() const FASTPR_EXCLUDES(mutex_);
  int64_t expirations() const FASTPR_EXCLUDES(mutex_);

 private:
  /// Drops to the floor rate if the active lease has outlived its TTL.
  /// Returns true when an expiry was folded in. Caller must NOT hold
  /// mutex_ (takes it, releases it, then touches the bucket).
  bool expire_if_stale(int64_t now_us) FASTPR_EXCLUDES(mutex_);

  const Options options_;
  TokenBucket bucket_;

  mutable Mutex mutex_{lock_order::kAgentRepairBudget};
  uint64_t applied_seq_ FASTPR_GUARDED_BY(mutex_) = 0;
  int64_t lease_expires_us_ FASTPR_GUARDED_BY(mutex_) = 0;  // 0 = no lease
  bool released_ FASTPR_GUARDED_BY(mutex_) = false;
  int64_t leases_applied_ FASTPR_GUARDED_BY(mutex_) = 0;
  int64_t expirations_ FASTPR_GUARDED_BY(mutex_) = 0;
};

}  // namespace fastpr::agent
