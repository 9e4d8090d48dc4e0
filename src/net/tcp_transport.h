// TCP transport over loopback sockets.
//
// Every node binds an ephemeral 127.0.0.1 port; an accept thread plus
// per-connection reader threads parse length-prefixed frames into the
// node's inbox. Senders keep one persistent connection per (src, dst)
// pair. The shaped core (net/transport.h) holds the inboxes and NICs: a
// send shapes the packet on the sender's tx and the receiver's rx
// before writing the frame, and the receiver's reader thread delivers
// it, so the agent protocol runs over a real network stack with the
// same timing semantics and byte accounting as the in-process
// transport.
#pragma once

#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "net/transport.h"

namespace fastpr::net {

class TcpTransport final : public ShapedTransport {
 public:
  TcpTransport(int num_nodes, const Options& options);
  ~TcpTransport() override;

  void send(Message msg) override;
  /// Closes the shaped core, then the sockets, and joins every thread.
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

  std::vector<std::unique_ptr<Endpoint>> endpoints_;
};

}  // namespace fastpr::net
