#include "net/inproc_transport.h"

#include "telemetry/trace.h"

namespace fastpr::net {

void InprocTransport::send(Message msg) {
  check_route(msg);
  const int64_t bytes =
      is_data_packet(msg.type) ? static_cast<int64_t>(msg.encoded_size()) : 0;
  if (bytes > 0) {
    // Span duration ≈ time this packet waited on bandwidth shaping.
    // The sender waits on the receiver's downlink too: a saturated
    // receiver back-pressures all of its senders, which is exactly the
    // hot-standby bottleneck of Eq. (6).
    FASTPR_TRACE_SPAN("inproc.shape", "net", bytes, "bytes");
    shape(msg, bytes);
  }
  deliver(std::move(msg), bytes);
}

}  // namespace fastpr::net
