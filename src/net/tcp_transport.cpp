#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/check.h"
#include "util/logging.h"

namespace fastpr::net {

namespace {

/// Frames larger than this are treated as protocol corruption and drop
/// the connection: the largest legitimate frame is one chunk-sized data
/// packet plus headers, and testbed chunks are at most tens of MiB
/// (paper: 64 MB, testbed-scaled 1/16), so 256 MiB is comfortably above
/// any real frame while still rejecting a garbage length prefix before
/// it turns into a multi-gigabyte allocation.
constexpr uint32_t kMaxFrameBytes = 256 * kMiB;

bool write_all(int fd, const uint8_t* data, size_t len) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::write(fd, data + done, len - done);
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

bool read_all(int fd, uint8_t* data, size_t len) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::read(fd, data + done, len - done);
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

TcpTransport::TcpTransport(int num_nodes, const Options& options)
    : options_(options) {
  FASTPR_CHECK(num_nodes >= 1);
  endpoints_.reserve(static_cast<size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    auto ep = std::make_unique<Endpoint>();
    ep->tx = std::make_unique<TokenBucket>(options.net_bytes_per_sec,
                                           kNicBurstBytes);
    ep->rx = std::make_unique<TokenBucket>(options.net_bytes_per_sec,
                                           kNicBurstBytes);

    ep->listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    FASTPR_CHECK_MSG(ep->listen_fd >= 0, "socket() failed");
    int yes = 1;
    ::setsockopt(ep->listen_fd, SOL_SOCKET, SO_REUSEADDR, &yes, sizeof(yes));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // ephemeral
    FASTPR_CHECK_MSG(::bind(ep->listen_fd,
                            reinterpret_cast<sockaddr*>(&addr),
                            sizeof(addr)) == 0,
                     "bind() failed");
    socklen_t len = sizeof(addr);
    FASTPR_CHECK(::getsockname(ep->listen_fd,
                               reinterpret_cast<sockaddr*>(&addr),
                               &len) == 0);
    ep->port = ntohs(addr.sin_port);
    FASTPR_CHECK_MSG(::listen(ep->listen_fd, 64) == 0, "listen() failed");
    endpoints_.push_back(std::move(ep));
  }
  for (int i = 0; i < num_nodes; ++i) {
    endpoints_[static_cast<size_t>(i)]->accept_thread =
        std::thread([this, i] { accept_loop(i); });
  }
}

TcpTransport::~TcpTransport() { shutdown(); }

void TcpTransport::accept_loop(int node) {
  auto& ep = *endpoints_[static_cast<size_t>(node)];
  for (;;) {
    const int fd = ::accept(ep.listen_fd, nullptr, nullptr);
    if (fd < 0) return;  // listen socket closed: shutting down
    MutexLock lock(ep.reader_mutex);
    ep.reader_threads.emplace_back(
        [this, node, fd] { reader_loop(node, fd); });
  }
}

void TcpTransport::reader_loop(int node, int fd) {
  auto& ep = *endpoints_[static_cast<size_t>(node)];
  // Pool-backed frame staging, reused across the connection's lifetime:
  // one connection parses thousands of packet frames and this avoids a
  // frame-sized allocation (and zero-fill) per packet. The deserialized
  // payload is itself copied into a separately pooled buffer.
  PooledBuffer frame;
  static telemetry::Counter& rx_frames =
      telemetry::MetricsRegistry::global().counter("tcp.frames_rx");
  static telemetry::Counter& rx_bytes =
      telemetry::MetricsRegistry::global().counter("tcp.bytes_rx");
  for (;;) {
    uint32_t frame_len = 0;
    if (!read_all(fd, reinterpret_cast<uint8_t*>(&frame_len),
                  sizeof(frame_len))) {
      break;
    }
    if (frame_len > kMaxFrameBytes) break;
    frame.resize_uninitialized(frame_len);
    {
      FASTPR_TRACE_SPAN("tcp.read_frame", "tcp",
                        static_cast<int64_t>(frame_len), "bytes");
      if (!read_all(fd, frame.data(), frame.size())) break;
    }
    rx_frames.add();
    rx_bytes.add(static_cast<int64_t>(frame.size()));
    auto msg = deserialize(frame.span());
    if (!msg.has_value()) {
      LOG_WARN("tcp: malformed frame dropped on node " << node);
      continue;
    }
    if (is_data_packet(msg->type)) {
      ep.rx->acquire(static_cast<int64_t>(frame.size()));
      // Delivery timestamp AFTER rx shaping, so the flow monitor sees
      // the link's achieved (shaped) rate.
      if (options_.flow_monitor != nullptr) {
        options_.flow_monitor->on_rx(msg->from, msg->to,
                                     static_cast<int64_t>(frame.size()),
                                     telemetry::trace_now_us());
      }
    }
    {
      MutexLock lock(ep.mutex);
      if (closed_.load(std::memory_order_acquire)) break;
      ep.inbox.push_back(std::move(*msg));
    }
    ep.cv.notify_one();
  }
  ::close(fd);
}

int TcpTransport::connect_to(Endpoint::Conn& conn, int dst) {
  if (conn.fd >= 0) return conn.fd;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  FASTPR_CHECK_MSG(fd >= 0, "socket() failed");
  int yes = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &yes, sizeof(yes));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(endpoints_[static_cast<size_t>(dst)]->port);
  // Blocking loopback connect under this destination's write_mutex: the
  // lazy connect is part of the first frame write, and only senders to
  // this same destination wait on it.
  // fastpr-lint: allow(lock-held-blocking)
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    // The listen socket vanishes when shutdown() races us; that is an
    // orderly refusal, not a protocol error.
    FASTPR_CHECK_MSG(closed_.load(std::memory_order_acquire),
                     "connect() to node " << dst << " failed");
    return -1;
  }
  conn.fd = fd;
  return fd;
}

void TcpTransport::send(Message msg) {
  FASTPR_CHECK(msg.from >= 0 &&
               msg.from < static_cast<int>(endpoints_.size()));
  FASTPR_CHECK(msg.to >= 0 && msg.to < static_cast<int>(endpoints_.size()));
  auto& ep = *endpoints_[static_cast<size_t>(msg.from)];

  const auto frame = serialize_pooled(msg);
  if (is_data_packet(msg.type)) {
    int64_t tx_bytes = static_cast<int64_t>(frame.size());
    if (msg.hop != 0 && options_.chain_hop_overhead_seconds > 0) {
      // Chain-hop store-and-forward cost, mirroring InprocTransport.
      tx_bytes += static_cast<int64_t>(
          options_.chain_hop_overhead_seconds * ep.tx->rate());
    }
    ep.tx->acquire(tx_bytes);
    if (options_.flow_monitor != nullptr) {
      options_.flow_monitor->on_tx(msg.from, msg.to,
                                   static_cast<int64_t>(frame.size()),
                                   telemetry::trace_now_us());
    }
  }

  static telemetry::Counter& tx_frames =
      telemetry::MetricsRegistry::global().counter("tcp.frames_tx");
  static telemetry::Counter& tx_bytes =
      telemetry::MetricsRegistry::global().counter("tcp.bytes_tx");
  tx_frames.add();
  tx_bytes.add(static_cast<int64_t>(frame.size()));

  FASTPR_TRACE_SPAN("tcp.send_frame", "tcp",
                    static_cast<int64_t>(frame.size()), "bytes");
  // Map lookup only under conn_mutex; the blocking connect/write below
  // happens under the per-connection write_mutex so a slow destination
  // cannot head-of-line block frames bound elsewhere.
  std::shared_ptr<Endpoint::Conn> conn;
  {
    MutexLock lock(ep.conn_mutex);
    if (closed_.load(std::memory_order_acquire)) return;
    auto& slot = ep.conns[msg.to];
    if (!slot) slot = std::make_shared<Endpoint::Conn>();
    conn = slot;
  }

  MutexLock write_lock(conn->write_mutex);
  if (closed_.load(std::memory_order_acquire)) return;
  const int fd = connect_to(*conn, msg.to);
  if (fd < 0) return;  // shutdown() raced the lazy connect
  const uint32_t frame_len = static_cast<uint32_t>(frame.size());
  // Held across the socket write on purpose: write_mutex is what keeps
  // a frame atomic against concurrent senders to the same destination.
  // fastpr-lint: allow(lock-held-blocking)
  if (!write_all(fd, reinterpret_cast<const uint8_t*>(&frame_len),
                 sizeof(frame_len)) ||
      !write_all(fd, frame.data(), frame.size())) {
    ::close(fd);
    conn->fd = -1;
    // A write torn by shutdown() closing the socket is orderly; any
    // other failure is a broken peer and must surface.
    FASTPR_CHECK_MSG(closed_.load(std::memory_order_acquire),
                     "tcp send to node " << msg.to << " failed");
  }
}

std::optional<Message> TcpTransport::recv(
    cluster::NodeId node, std::optional<std::chrono::milliseconds> timeout) {
  FASTPR_CHECK(node >= 0 && node < static_cast<int>(endpoints_.size()));
  auto& ep = *endpoints_[static_cast<size_t>(node)];
  MutexLock lock(ep.mutex);
  const auto ready = [&]() FASTPR_REQUIRES(ep.mutex) {
    return closed_.load(std::memory_order_acquire) || !ep.inbox.empty();
  };
  if (timeout.has_value()) {
    if (!ep.cv.wait_for(ep.mutex, *timeout, ready)) return std::nullopt;
  } else {
    ep.cv.wait(ep.mutex, ready);
  }
  if (ep.inbox.empty()) return std::nullopt;  // closed
  Message msg = std::move(ep.inbox.front());
  ep.inbox.pop_front();
  return msg;
}

void TcpTransport::shutdown() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  for (auto& ep : endpoints_) {
    {
      // Acquire the inbox lock so a racing recv() observes closed_
      // before it starts an indefinite wait.
      MutexLock lock(ep->mutex);
    }
    ep->cv.notify_all();
    // Unlimit buckets so senders blocked on tokens drain out.
    ep->tx->set_rate(0);
    ep->rx->set_rate(0);
    ::shutdown(ep->listen_fd, SHUT_RDWR);
    ::close(ep->listen_fd);
    {
      MutexLock lock(ep->conn_mutex);
      for (auto& [dst, conn] : ep->conns) {
        (void)dst;
        // Waits for any in-flight frame on this connection, then tears
        // the socket so readers on the far side unblock.
        MutexLock write_lock(conn->write_mutex);
        if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
      }
    }
  }
  for (auto& ep : endpoints_) {
    if (ep->accept_thread.joinable()) ep->accept_thread.join();
    // Swap the registry out under the lock, join outside it: a join is
    // unbounded and nothing should wait on reader_mutex behind it (the
    // accept thread that appends here is already joined above).
    std::vector<std::thread> readers;
    {
      MutexLock lock(ep->reader_mutex);
      readers.swap(ep->reader_threads);
    }
    for (auto& t : readers) {
      if (t.joinable()) t.join();
    }
    MutexLock conn_lock(ep->conn_mutex);
    for (auto& [dst, conn] : ep->conns) {
      (void)dst;
      MutexLock write_lock(conn->write_mutex);
      if (conn->fd >= 0) ::close(conn->fd);
      conn->fd = -1;
    }
    ep->conns.clear();
  }
}

}  // namespace fastpr::net
