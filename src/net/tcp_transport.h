// TCP transport over loopback sockets.
//
// Every node binds an ephemeral 127.0.0.1 port; an accept thread plus
// per-connection reader threads parse length-prefixed frames into the
// node's inbox. Senders keep one persistent connection per (src, dst)
// pair. Optional token buckets shape per-node bandwidth exactly like the
// in-process transport, so the agent protocol can be exercised over a
// real network stack with the same timing semantics.
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "net/transport.h"
#include "telemetry/flow_monitor.h"
#include "util/mutex.h"
#include "util/token_bucket.h"
#include "util/units.h"

namespace fastpr::net {

class TcpTransport final : public Transport {
 public:
  struct Options {
    double net_bytes_per_sec = 0;  // <=0: unlimited
    int64_t burst_bytes = 1 * kMiB;
    /// Per-packet store-and-forward cost of a chain hop (data packets
    /// addressed to a hop >= 1), charged as byte-equivalent time at the
    /// sender's NIC rate — see InprocTransport::Options for the full
    /// rationale. No effect on unthrottled transports.
    double chain_hop_overhead_seconds = 0;
    /// When set, every data packet's transmit/delivery is reported to
    /// this monitor as per-link flow samples. Not owned; must outlive
    /// the transport.
    telemetry::FlowMonitor* flow_monitor = nullptr;
  };

  TcpTransport(int num_nodes, const Options& options);
  ~TcpTransport() override;

  void send(Message msg) override;
  std::optional<Message> recv(
      cluster::NodeId node,
      std::optional<std::chrono::milliseconds> timeout) override;
  void shutdown() override;

 private:
  struct Endpoint {
    int listen_fd = -1;
    uint16_t port = 0;
    std::thread accept_thread;
    // reader_threads is appended by the accept thread and joined by
    // shutdown(); the readers themselves never touch the vector.
    Mutex reader_mutex{lock_order::kNetReader};
    std::vector<std::thread> reader_threads
        FASTPR_GUARDED_BY(reader_mutex);
    // Inbox, one lock + cv per endpoint so a frame delivery wakes only
    // its addressee's dispatcher (mirrors InprocTransport).
    Mutex mutex{lock_order::kNetInbox};
    CondVar cv;
    std::deque<Message> inbox FASTPR_GUARDED_BY(mutex);
    std::unique_ptr<TokenBucket> tx;
    std::unique_ptr<TokenBucket> rx;
    // One cached outgoing connection. write_mutex serializes frame
    // writes on this destination's socket only — concurrent sender
    // threads aiming at different destinations proceed in parallel —
    // while still keeping any single frame atomic on the wire. The
    // socket is connected lazily under write_mutex.
    struct Conn {
      Mutex write_mutex{lock_order::kNetConnWrite};
      int fd FASTPR_GUARDED_BY(write_mutex) = -1;
    };
    // Connection cache: dst → Conn. conn_mutex guards only the map;
    // send() drops it before the (blocking) connect/write, which run
    // under the per-connection write_mutex. Entries are shared_ptr so
    // a send can keep its Conn across the map unlock while shutdown
    // concurrently walks the map.
    Mutex conn_mutex{lock_order::kNetConnMap};
    std::map<cluster::NodeId, std::shared_ptr<Conn>> conns
        FASTPR_GUARDED_BY(conn_mutex);
  };

  void accept_loop(int node);
  void reader_loop(int node, int fd);
  /// Lazily connects conn to dst; returns the fd, or -1 if the connect
  /// lost a race with shutdown().
  int connect_to(Endpoint::Conn& conn, int dst)
      FASTPR_REQUIRES(conn.write_mutex);

  Options options_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::atomic<bool> closed_{false};
};

}  // namespace fastpr::net
