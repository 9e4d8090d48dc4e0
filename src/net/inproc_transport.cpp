#include "net/inproc_transport.h"

#include "telemetry/trace.h"
#include "util/check.h"

namespace fastpr::net {

InprocTransport::InprocTransport(int num_nodes, const Options& options)
    : options_(options) {
  FASTPR_CHECK(num_nodes >= 1);
  endpoints_.reserve(static_cast<size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    auto ep = std::make_unique<Endpoint>();
    ep->tx = std::make_unique<TokenBucket>(options.net_bytes_per_sec,
                                           kNicBurstBytes);
    ep->rx = std::make_unique<TokenBucket>(options.net_bytes_per_sec,
                                           kNicBurstBytes);
    endpoints_.push_back(std::move(ep));
  }
}

void InprocTransport::send(Message msg) {
  FASTPR_CHECK(msg.from >= 0 &&
               msg.from < static_cast<int>(endpoints_.size()));
  FASTPR_CHECK(msg.to >= 0 && msg.to < static_cast<int>(endpoints_.size()));

  if (is_data_packet(msg.type)) {
    const auto bytes = static_cast<int64_t>(msg.encoded_size());
    auto& from = *endpoints_[static_cast<size_t>(msg.from)];
    auto& to = *endpoints_[static_cast<size_t>(msg.to)];
    from.data_tx.fetch_add(bytes, std::memory_order_relaxed);
    to.data_rx.fetch_add(bytes, std::memory_order_relaxed);
    if (options_.flow_monitor != nullptr) {
      options_.flow_monitor->on_tx(msg.from, msg.to, bytes,
                                   telemetry::trace_now_us());
    }
    int64_t tx_bytes = bytes;
    if (msg.hop != 0 && options_.chain_hop_overhead_seconds > 0) {
      // Store-and-forward cost of the chain hop, as the byte-equivalent
      // of a fixed time at the hop's current uplink rate (0 when
      // unthrottled). This is the measured-side twin of
      // ModelParams.chain_hop_overhead_seconds.
      tx_bytes += static_cast<int64_t>(
          options_.chain_hop_overhead_seconds * from.tx->rate());
    }
    {
      // Span duration ≈ time this packet waited on bandwidth shaping.
      FASTPR_TRACE_SPAN("inproc.shape", "net", tx_bytes, "bytes");
      // Sender's uplink first, then receiver's downlink: a saturated
      // receiver back-pressures all of its senders, which is exactly the
      // hot-standby bottleneck of Eq. (6).
      from.tx->acquire(tx_bytes);
      to.rx->acquire(bytes);
    }
    // Delivery timestamp AFTER shaping: the flow monitor's rx samples
    // measure the link's achieved rate, shaping included.
    if (options_.flow_monitor != nullptr) {
      options_.flow_monitor->on_rx(msg.from, msg.to, bytes,
                                   telemetry::trace_now_us());
    }
  }

  auto& ep = *endpoints_[static_cast<size_t>(msg.to)];
  {
    MutexLock lock(ep.mutex);
    if (closed_.load(std::memory_order_acquire)) return;
    bytes_sent_.fetch_add(static_cast<int64_t>(msg.encoded_size()),
                          std::memory_order_relaxed);
    ep.inbox.push_back(std::move(msg));
  }
  ep.cv.notify_one();
}

std::optional<Message> InprocTransport::recv(
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

void InprocTransport::shutdown() {
  closed_.store(true, std::memory_order_release);
  for (auto& ep : endpoints_) {
    {
      // Acquire the lock so a racing recv() observes closed_ before it
      // starts an indefinite wait.
      MutexLock lock(ep->mutex);
    }
    ep->cv.notify_all();
    // Unlimit buckets so senders blocked on tokens drain out.
    ep->tx->set_rate(0);
    ep->rx->set_rate(0);
  }
}

void InprocTransport::set_node_bandwidth(cluster::NodeId node,
                                         double bytes_per_sec) {
  FASTPR_CHECK(node >= 0 && node < static_cast<int>(endpoints_.size()));
  endpoints_[static_cast<size_t>(node)]->tx->set_rate(bytes_per_sec);
  endpoints_[static_cast<size_t>(node)]->rx->set_rate(bytes_per_sec);
}

void InprocTransport::charge_tx(cluster::NodeId node, int64_t bytes) {
  FASTPR_CHECK(node >= 0 && node < static_cast<int>(endpoints_.size()));
  FASTPR_CHECK(bytes >= 0);
  endpoints_[static_cast<size_t>(node)]->tx->acquire(bytes);
}

void InprocTransport::charge_rx(cluster::NodeId node, int64_t bytes) {
  FASTPR_CHECK(node >= 0 && node < static_cast<int>(endpoints_.size()));
  FASTPR_CHECK(bytes >= 0);
  endpoints_[static_cast<size_t>(node)]->rx->acquire(bytes);
}

int64_t InprocTransport::total_bytes_sent() const {
  return bytes_sent_.load(std::memory_order_relaxed);
}

int64_t InprocTransport::data_bytes_tx(cluster::NodeId node) const {
  FASTPR_CHECK(node >= 0 && node < static_cast<int>(endpoints_.size()));
  return endpoints_[static_cast<size_t>(node)]->data_tx.load(
      std::memory_order_relaxed);
}

int64_t InprocTransport::data_bytes_rx(cluster::NodeId node) const {
  FASTPR_CHECK(node >= 0 && node < static_cast<int>(endpoints_.size()));
  return endpoints_[static_cast<size_t>(node)]->data_rx.load(
      std::memory_order_relaxed);
}

}  // namespace fastpr::net
