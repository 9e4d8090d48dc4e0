// Transport abstraction between cluster nodes (agents + coordinator).
//
// Two implementations:
//  * InprocTransport — message-passing inside one process with per-node
//    token-bucket NIC shaping; the workhorse of the testbed experiments
//    (the role Amazon EC2's network + Wonder Shaper play in the paper).
//  * TcpTransport — real sockets over loopback, demonstrating that the
//    agent protocol runs over an actual network stack.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>

#include "cluster/types.h"
#include "net/message.h"
#include "util/units.h"

namespace fastpr::net {

/// Burst of every shaped endpoint's tx and rx token bucket.
inline constexpr int64_t kNicBurstBytes = 1 * kMiB;

class Transport {
 public:
  virtual ~Transport() = default;

  /// Blocking send from msg.from to msg.to. Blocks while the shaped
  /// bandwidth is consumed — this is where "transmission time" comes
  /// from in testbed experiments.
  virtual void send(Message msg) = 0;

  /// Blocking receive for `node`; returns nullopt when the transport was
  /// shut down (or the timeout elapsed, if one is given).
  virtual std::optional<Message> recv(
      cluster::NodeId node,
      std::optional<std::chrono::milliseconds> timeout = std::nullopt) = 0;

  /// Unblocks all receivers with "closed".
  virtual void shutdown() = 0;
};

}  // namespace fastpr::net
