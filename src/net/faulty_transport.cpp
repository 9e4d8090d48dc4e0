#include "net/faulty_transport.h"

#include <thread>

#include "telemetry/metrics.h"
#include "util/units.h"

namespace fastpr::net {

using cluster::NodeId;

namespace {

telemetry::Counter& fault_counter(const char* name) {
  return telemetry::MetricsRegistry::global().counter(name);
}

}  // namespace

FaultyTransport::FaultyTransport(ShapedTransport& inner,
                                 const FaultPlan& plan)
    : inner_(inner),
      plan_(plan),
      slow_base_rate_(inner.net_bytes_per_sec() > 0
                          ? inner.net_bytes_per_sec()
                          : Gbps(1)),
      rng_(plan.seed) {
  MutexLock lock(mutex_);
  arm(cluster::kNoNode);
}

void FaultyTransport::arm(NodeId stf) {
  // The node an entry arms as now, or kNoNode to leave it be.
  const auto target = [stf](NodeId node) {
    const bool sentinel = node == kStfSentinel;
    if (stf == cluster::kNoNode) return sentinel ? cluster::kNoNode : node;
    return sentinel ? stf : cluster::kNoNode;
  };
  for (const auto& c : plan_.crashes) {
    const NodeId node = target(c.node);
    if (node == cluster::kNoNode) continue;
    CrashState& state = crashes_[node];
    state.has_packet_limit = c.after_packets > 0;
    state.has_byte_limit = c.after_bytes > 0;
    state.packets_left = c.after_packets;
    state.bytes_left = c.after_bytes;
    if (!state.has_packet_limit && !state.has_byte_limit) {
      state.dead = true;  // dead from the start
      fault_counter("net.fault.crashes").add();
    }
  }
  for (FaultPlan::Flaky f : plan_.flaky) {
    f.node = target(f.node);
    if (f.node != cluster::kNoNode) {
      flaky_.push_back(FlakyState{f, f.max_drops, f.max_dups, f.max_delays});
    }
  }
  for (const auto& s : plan_.slow) {
    const NodeId node = target(s.node);
    if (node != cluster::kNoNode) {
      slow_[node] = SlowState{s.factor, s.after_bytes};
    }
  }
}

void FaultyTransport::resolve_stf(NodeId stf) {
  MutexLock lock(mutex_);
  arm(stf);
  plan_.resolve_stf(stf);
}

void FaultyTransport::crash(NodeId node) {
  MutexLock lock(mutex_);
  CrashState& state = crashes_[node];
  if (!state.dead) {
    state.dead = true;
    fault_counter("net.fault.crashes").add();
  }
}

bool FaultyTransport::crashed(NodeId node) const {
  MutexLock lock(mutex_);
  const auto it = crashes_.find(node);
  return it != crashes_.end() && it->second.dead;
}

std::chrono::nanoseconds FaultyTransport::slow_penalty(const Message& msg) {
  if (!is_data_packet(msg.type)) return std::chrono::nanoseconds{0};
  const auto it = slow_.find(msg.from);
  if (it == slow_.end()) return std::chrono::nanoseconds{0};
  SlowState& state = it->second;
  const uint64_t bytes = msg.payload.size();
  if (state.bytes_until_armed > 0) {
    // The threshold packet itself still goes out at full speed — the
    // node degrades after `after_bytes`, mirroring crash semantics.
    state.bytes_until_armed -= std::min(state.bytes_until_armed, bytes);
    return std::chrono::nanoseconds{0};
  }
  fault_counter("net.fault.slowed").add();
  const double extra_s =
      static_cast<double>(bytes) * (state.factor - 1.0) / slow_base_rate_;
  return std::chrono::nanoseconds{static_cast<int64_t>(extra_s * 1e9)};
}

FaultyTransport::Action FaultyTransport::decide(
    const Message& msg, std::chrono::milliseconds* delay,
    std::chrono::nanoseconds* slow) {
  MutexLock lock(mutex_);

  // Crashed endpoints: a dead sender emits nothing, a dead receiver
  // absorbs nothing — either way the message vanishes on the wire.
  {
    const auto from = crashes_.find(msg.from);
    const auto to = crashes_.find(msg.to);
    if ((from != crashes_.end() && from->second.dead) ||
        (to != crashes_.end() && to->second.dead)) {
      fault_counter("net.fault.suppressed").add();
      return Action::kDrop;
    }
  }

  // Send-threshold crashes tick on data packets only (commands and acks
  // are negligible traffic; the thresholds model "died N chunks in").
  // Chain forwards count too — a mid-chain hop dies mid-stream.
  if (is_data_packet(msg.type)) {
    const auto it = crashes_.find(msg.from);
    if (it != crashes_.end()) {
      CrashState& state = it->second;
      const uint64_t bytes = msg.payload.size();
      const bool packet_exhausted =
          state.has_packet_limit && state.packets_left == 0;
      const bool byte_exhausted =
          state.has_byte_limit && state.bytes_left < bytes;
      if (packet_exhausted || byte_exhausted) {
        state.dead = true;
        fault_counter("net.fault.crashes").add();
        return Action::kDrop;
      }
      if (state.has_packet_limit) --state.packets_left;
      if (state.has_byte_limit) state.bytes_left -= bytes;
    }
  }

  // Slow ticks after the crash checks (a dead node sends nothing) but
  // before flaky: a flaky-dropped packet still left the slow NIC.
  *slow = slow_penalty(msg);

  for (auto& f : flaky_) {
    if (f.rule.node != kAnyNode && f.rule.node != msg.from) continue;
    if (f.rule.data_only && !is_data_packet(msg.type)) continue;
    if (f.drops_left > 0 && rng_.chance(f.rule.drop_prob)) {
      --f.drops_left;
      fault_counter("net.fault.dropped").add();
      return Action::kDrop;
    }
    if (f.dups_left > 0 && rng_.chance(f.rule.dup_prob)) {
      --f.dups_left;
      fault_counter("net.fault.duplicated").add();
      return Action::kDuplicate;
    }
    if (f.delays_left > 0 && rng_.chance(f.rule.delay_prob)) {
      --f.delays_left;
      fault_counter("net.fault.delayed").add();
      *delay = f.rule.delay;
      return Action::kDelay;
    }
  }
  return Action::kForward;
}

void FaultyTransport::send(Message msg) {
  // Shutdown is the teardown handshake, not cluster weather — faulting
  // it would hang agents without simulating anything real.
  if (msg.type == MessageType::kShutdown) {
    inner_.send(std::move(msg));
    return;
  }

  std::chrono::milliseconds delay{0};
  std::chrono::nanoseconds slow{0};
  const Action action = decide(msg, &delay, &slow);
  // The slow verb stretches transmit time on the wire; unlike flaky
  // delays it is NOT reported as injected — the link must read slow.
  if (action != Action::kDrop && slow.count() > 0) {
    std::this_thread::sleep_for(slow);
  }
  switch (action) {
    case Action::kDrop:
      return;  // payload buffer recycles via ~Message
    case Action::kDuplicate:
      inner_.send(msg.clone());
      inner_.send(std::move(msg));
      return;
    case Action::kDelay:
      // Charge the injected latency to the flow monitor BEFORE the
      // sleep shifts this link's rx timestamps: the monitor subtracts
      // it from the window's active time, so a chaos delay does not
      // masquerade as a slow link (phantom straggler).
      if (inner_.flow_monitor() != nullptr && is_data_packet(msg.type)) {
        inner_.flow_monitor()->on_injected_delay(
            msg.from, msg.to,
            std::chrono::duration_cast<std::chrono::microseconds>(delay)
                .count());
      }
      std::this_thread::sleep_for(delay);
      inner_.send(std::move(msg));
      return;
    case Action::kForward:
      inner_.send(std::move(msg));
      return;
  }
}

std::optional<Message> FaultyTransport::recv(
    NodeId node, std::optional<std::chrono::milliseconds> timeout) {
  return inner_.recv(node, timeout);
}

void FaultyTransport::shutdown() { inner_.shutdown(); }

}  // namespace fastpr::net
