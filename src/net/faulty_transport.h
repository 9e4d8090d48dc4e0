// Fault-injecting Transport decorator (DESIGN.md §7).
//
// Wraps any Transport and interprets a FaultPlan on the send path:
//  * crash  — once a node crosses its send threshold (data packets or
//    payload bytes), it "dies": every subsequent message from OR to it
//    is swallowed, so the node goes silent and unreachable at once —
//    exactly how a crashed DataNode looks to the coordinator's probes.
//  * flaky  — matching messages are dropped, duplicated or delayed with
//    seeded probabilities, each under its own event budget.
//  * slow   — once a node crosses its byte threshold, every later data
//    packet it sends takes factor× the nominal transmit time; the extra
//    (factor − 1) share is injected as a real sleep. Unlike flaky
//    delays, slow time is NOT excluded from the flow monitor: a slowing
//    node should read as slow — that is exactly the signal the adaptive
//    repair throttler reacts to.
//
// Its settings come from the transport it wraps: flaky delays are
// charged to that transport's flow monitor, and slow-verb delays are
// sized against its shaped NIC rate (1 Gb/s when unshaped), so
// factor=4 means "4× the nominal transmit time" on its links.
//
// kShutdown is never faulted: agents stop themselves by sending a
// shutdown message through the transport, and eating it would hang
// teardown rather than simulate any real failure.
//
// The receive path is untouched — faults happen on the wire, and what
// was already delivered stays delivered.
#pragma once

#include <unordered_map>

#include "net/fault_plan.h"
#include "net/transport.h"
#include "util/mutex.h"
#include "util/rng.h"

namespace fastpr::net {

class FaultyTransport final : public Transport {
 public:
  /// `inner` must outlive this decorator. Plans may still contain
  /// kStfSentinel entries; they stay dormant until resolve_stf().
  FaultyTransport(ShapedTransport& inner, const FaultPlan& plan);

  void send(Message msg) override;
  std::optional<Message> recv(
      cluster::NodeId node,
      std::optional<std::chrono::milliseconds> timeout =
          std::nullopt) override;
  void shutdown() override;

  /// Rewrites kStfSentinel entries to `stf` and arms them (a sentinel
  /// crash with zero thresholds kills the node the moment it is known).
  /// Later calls find no sentinel left and arm nothing.
  void resolve_stf(cluster::NodeId stf);

  /// Manual crash trigger (tests): the node goes silent immediately.
  void crash(cluster::NodeId node);

  bool crashed(cluster::NodeId node) const;

 private:
  /// What to do with one message, decided under the lock, acted on
  /// outside it (inner_.send may block on NIC shaping).
  enum class Action { kForward, kDrop, kDuplicate, kDelay };

  struct CrashState {
    bool dead = false;
    bool has_packet_limit = false;
    bool has_byte_limit = false;
    uint64_t packets_left = 0;
    uint64_t bytes_left = 0;
  };

  struct FlakyState {
    FaultPlan::Flaky rule;
    uint64_t drops_left = 0;
    uint64_t dups_left = 0;
    uint64_t delays_left = 0;
  };

  struct SlowState {
    double factor = 1.0;
    uint64_t bytes_until_armed = 0;  // 0 = slow from the first packet
  };

  /// Arms plan_'s crash, flaky and slow entries: with stf == kNoNode
  /// every entry but the kStfSentinel ones, otherwise exactly those, as
  /// node `stf`.
  void arm(cluster::NodeId stf) FASTPR_REQUIRES(mutex_);
  /// Extra transmit time for this data packet under the slow verb, or
  /// zero. Decided (and the arming byte count ticked) under the lock.
  std::chrono::nanoseconds slow_penalty(const Message& msg)
      FASTPR_REQUIRES(mutex_);
  Action decide(const Message& msg, std::chrono::milliseconds* delay,
                std::chrono::nanoseconds* slow) FASTPR_EXCLUDES(mutex_);

  ShapedTransport& inner_;
  FaultPlan plan_;  // unresolved sentinel entries live here until armed
  /// Nominal per-node send rate (bytes/s) sizing `slow`-verb delays: a
  /// packet of B bytes from a node slowed by factor f sleeps an extra
  /// B·(f−1)/rate seconds.
  const double slow_base_rate_;

  mutable Mutex mutex_{lock_order::kNetFault};
  Rng rng_ FASTPR_GUARDED_BY(mutex_);
  std::unordered_map<cluster::NodeId, CrashState> crashes_
      FASTPR_GUARDED_BY(mutex_);
  std::vector<FlakyState> flaky_ FASTPR_GUARDED_BY(mutex_);
  std::unordered_map<cluster::NodeId, SlowState> slow_
      FASTPR_GUARDED_BY(mutex_);
};

}  // namespace fastpr::net
