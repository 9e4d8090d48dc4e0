#include "net/transport.h"

#include <algorithm>

#include "telemetry/trace.h"
#include "util/check.h"

namespace fastpr::net {

ShapedTransport::ShapedTransport(int num_nodes, const Options& options)
    : options_(options) {
  FASTPR_CHECK(num_nodes >= 1);
  nics_.reserve(static_cast<size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    nics_.push_back(std::make_unique<Nic>(options.net_bytes_per_sec));
  }
}

void ShapedTransport::check_route(const Message& msg) const {
  FASTPR_CHECK(msg.from >= 0 && msg.from < num_nodes());
  FASTPR_CHECK(msg.to >= 0 && msg.to < num_nodes());
}

void ShapedTransport::shape(const Message& msg, int64_t bytes) {
  Nic& from = nic(msg.from);
  Nic& to = nic(msg.to);
  int64_t surcharge = 0;
  if (msg.hop != 0 && options_.chain_hop_overhead_seconds > 0) {
    // Store-and-forward cost of the chain hop, as the byte-equivalent
    // of a fixed time at the hop's current uplink rate (0 when
    // unthrottled). This is the measured-side twin of
    // ModelParams.chain_hop_overhead_seconds.
    surcharge = static_cast<int64_t>(options_.chain_hop_overhead_seconds *
                                     from.tx.rate());
  }
  for (int64_t left = bytes; left > 0;) {
    const int64_t slice = std::min(left, kNicBurstBytes);
    from.tx.acquire(slice + surcharge);
    surcharge = 0;
    to.rx.acquire(slice);
    left -= slice;
  }
  if (options_.flow_monitor != nullptr) {
    options_.flow_monitor->on_tx(msg.from, msg.to, bytes,
                                 telemetry::trace_now_us());
    options_.flow_monitor->on_rx(msg.from, msg.to, bytes,
                                 telemetry::trace_now_us());
  }
}

bool ShapedTransport::deliver(Message msg, int64_t data_bytes) {
  Nic& to = nic(msg.to);
  {
    MutexLock lock(to.mutex);
    if (closed()) return false;
    data_bytes_sent_.fetch_add(data_bytes, std::memory_order_relaxed);
    to.inbox.push_back(std::move(msg));
  }
  to.cv.notify_one();
  return true;
}

std::optional<Message> ShapedTransport::recv(
    cluster::NodeId node, std::optional<std::chrono::milliseconds> timeout) {
  FASTPR_CHECK(node >= 0 && node < num_nodes());
  Nic& ep = nic(node);
  MutexLock lock(ep.mutex);
  const auto ready = [&]() FASTPR_REQUIRES(ep.mutex) {
    return closed() || !ep.inbox.empty();
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

bool ShapedTransport::close_and_wake() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return false;
  for (auto& ep : nics_) {
    {
      // Acquire the lock so a racing recv() observes closed_ before it
      // starts an indefinite wait.
      MutexLock lock(ep->mutex);
    }
    ep->cv.notify_all();
    // Unlimit buckets so senders blocked on tokens drain out.
    ep->tx.set_rate(0);
    ep->rx.set_rate(0);
  }
  return true;
}

void ShapedTransport::charge_tx(cluster::NodeId node, int64_t bytes) {
  FASTPR_CHECK(node >= 0 && node < num_nodes());
  FASTPR_CHECK(bytes >= 0);
  nic(node).tx.acquire(bytes);
}

void ShapedTransport::charge_rx(cluster::NodeId node, int64_t bytes) {
  FASTPR_CHECK(node >= 0 && node < num_nodes());
  FASTPR_CHECK(bytes >= 0);
  nic(node).rx.acquire(bytes);
}

}  // namespace fastpr::net
