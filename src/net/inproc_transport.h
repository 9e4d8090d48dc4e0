// In-process transport with token-bucket NIC emulation.
//
// Each node has a TX bucket and an RX bucket refilling at the configured
// per-node bandwidth bn. A send charges the sender's TX bucket and the
// receiver's RX bucket for the message's encoded size, then delivers to
// the receiver's inbox. Control messages ride for free (the paper's
// model charges only chunk transfers; commands/acks are negligible next
// to 64 MB chunks).
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <vector>

#include "net/transport.h"
#include "telemetry/flow_monitor.h"
#include "util/mutex.h"
#include "util/token_bucket.h"

namespace fastpr::net {

class InprocTransport final : public Transport {
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

  InprocTransport(int num_nodes, const Options& options);

  void send(Message msg) override;
  std::optional<Message> recv(
      cluster::NodeId node,
      std::optional<std::chrono::milliseconds> timeout) override;
  void shutdown() override;

  /// Changes one node's NIC rate (Experiment B.4's Wonder Shaper role).
  void set_node_bandwidth(cluster::NodeId node, double bytes_per_sec);

  /// Charges `bytes` against a node's TX / RX bucket without delivering
  /// anything — foreground (client) traffic contending with repair on
  /// the same NIC. Blocks until tokens are available, exactly like a
  /// shaped send, so callers measure realistic queueing latency. No-op
  /// on unlimited transports.
  void charge_tx(cluster::NodeId node, int64_t bytes);
  void charge_rx(cluster::NodeId node, int64_t bytes);

  /// Encoded bytes of every data packet accepted for delivery so far
  /// (repair-traffic accounting; control messages add nothing).
  int64_t data_bytes_sent() const;

 private:
  // Per-endpoint lock + condition variable: a packet delivery wakes only
  // its addressee's dispatcher, not every agent in the cluster (on a
  // small host the all-wakeup pattern costs more than the data copies).
  struct Endpoint {
    std::unique_ptr<TokenBucket> tx;
    std::unique_ptr<TokenBucket> rx;
    Mutex mutex{lock_order::kNetInbox};
    CondVar cv;
    std::deque<Message> inbox FASTPR_GUARDED_BY(mutex);
  };

  Options options_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::atomic<bool> closed_{false};
  std::atomic<int64_t> data_bytes_sent_{0};
};

}  // namespace fastpr::net
