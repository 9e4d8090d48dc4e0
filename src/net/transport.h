// Transport abstraction between cluster nodes (agents + coordinator).
//
// Two implementations, both on one shaped core (ShapedTransport below):
//  * InprocTransport — message-passing inside one process; the workhorse
//    of the testbed experiments (the role Amazon EC2's network + Wonder
//    Shaper play in the paper).
//  * TcpTransport — real sockets over loopback, demonstrating that the
//    agent protocol runs over an actual network stack.
// FaultyTransport decorates either with scripted faults (DESIGN.md §7).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/types.h"
#include "net/message.h"
#include "telemetry/flow_monitor.h"
#include "util/mutex.h"
#include "util/token_bucket.h"
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

/// What both transports do per node, written once: an inbox (queue,
/// lock, condition variable) and a NIC (tx and rx token buckets at the
/// per-node bandwidth bn), plus the count of delivered data-packet
/// bytes. Only data packets are shaped, sampled and counted; control
/// messages ride for free (the paper's model charges only chunk
/// transfers; commands/acks are negligible next to 64 MB chunks).
///
/// A transport moves a message from the sender's NIC to the receiver's:
/// both shape a data packet once, in the sender's thread, then
/// InprocTransport delivers it and TcpTransport writes the frame for
/// the receiver's reader thread to deliver. Either way a data packet
/// pays its encoded size on both buckets, so both transports price
/// traffic identically.
class ShapedTransport : public Transport {
 public:
  struct Options {
    double net_bytes_per_sec = 0;  // <=0: unlimited
    /// Per-packet store-and-forward cost of a chain hop (data packets
    /// addressed to a hop >= 1): receive → fuse → re-send pays
    /// syscalls, interrupts and cache traffic that a fan-in helper's
    /// sequential stream does not. Charged deterministically as the
    /// byte-equivalent at the sender's current NIC rate (a fixed TIME
    /// per forward, so it is rate-independent), mirroring
    /// ModelParams.chain_hop_overhead_seconds so measured chain rounds
    /// and the cost model see the same per-forward cost. No effect on
    /// unthrottled transports.
    double chain_hop_overhead_seconds = 0;
    /// When set, every data packet's transmit/delivery is reported to
    /// this monitor as per-link flow samples. Not owned; must outlive
    /// the transport.
    telemetry::FlowMonitor* flow_monitor = nullptr;
  };

  std::optional<Message> recv(
      cluster::NodeId node,
      std::optional<std::chrono::milliseconds> timeout) final;

  /// Closes every inbox, wakes its receivers and unlimits every NIC so
  /// senders blocked on tokens drain out.
  void shutdown() override { close_and_wake(); }

  /// Charges `bytes` against a node's TX / RX bucket without delivering
  /// anything — foreground (client) traffic contending with repair on
  /// the same NIC. Blocks until tokens are available, exactly like a
  /// shaped data packet, so callers measure realistic queueing latency.
  /// No-op on unlimited transports.
  void charge_tx(cluster::NodeId node, int64_t bytes);
  void charge_rx(cluster::NodeId node, int64_t bytes);

  /// Encoded bytes of every data packet delivered so far (repair-traffic
  /// accounting; control messages add nothing).
  int64_t data_bytes_sent() const {
    return data_bytes_sent_.load(std::memory_order_relaxed);
  }

  /// The configured per-node NIC rate in bytes/s (<= 0: unlimited).
  double net_bytes_per_sec() const { return options_.net_bytes_per_sec; }
  telemetry::FlowMonitor* flow_monitor() const {
    return options_.flow_monitor;
  }

 protected:
  ShapedTransport(int num_nodes, const Options& options);

  int num_nodes() const { return static_cast<int>(nics_.size()); }
  /// Checks msg.from and msg.to name nodes of this transport.
  void check_route(const Message& msg) const;

  /// The link for a data packet of `bytes` encoded bytes: burst-sized
  /// slices that alternate the sender's tx bucket and the receiver's rx
  /// bucket, the chain-hop surcharge on the first tx slice, then one tx
  /// and one rx flow sample, stamped AFTER shaping so the monitor
  /// measures the link's achieved rate, shaping included. Slicing lets
  /// the two buckets refill while the other drains, as the two ends of
  /// a link do: from idle buckets a packet of B > burst bytes waits
  /// (B - burst)/R, not twice that. A packet within one burst takes one
  /// tx and one rx acquire.
  void shape(const Message& msg, int64_t bytes);

  /// Appends `msg` to msg.to's inbox, wakes one receiver and counts
  /// `data_bytes` (0 for control messages). Returns false, dropping the
  /// message, once the transport is closed.
  bool deliver(Message msg, int64_t data_bytes);

  /// shutdown()'s work; returns false when already closed.
  bool close_and_wake();
  bool closed() const { return closed_.load(std::memory_order_acquire); }

 private:
  // Per-node lock + condition variable: a delivery wakes only its
  // addressee's dispatcher, not every agent in the cluster (on a small
  // host the all-wakeup pattern costs more than the data copies).
  struct Nic {
    explicit Nic(double bytes_per_sec)
        : tx(bytes_per_sec, kNicBurstBytes),
          rx(bytes_per_sec, kNicBurstBytes) {}
    TokenBucket tx;
    TokenBucket rx;
    Mutex mutex{lock_order::kNetInbox};
    CondVar cv;
    std::deque<Message> inbox FASTPR_GUARDED_BY(mutex);
  };

  Nic& nic(cluster::NodeId node) { return *nics_[static_cast<size_t>(node)]; }

  const Options options_;
  std::vector<std::unique_ptr<Nic>> nics_;
  std::atomic<bool> closed_{false};
  std::atomic<int64_t> data_bytes_sent_{0};
};

}  // namespace fastpr::net
