// In-process transport on the shaped core (net/transport.h).
//
// A send runs entirely in the sender's thread: it charges the sender's
// TX bucket and the receiver's RX bucket for a data packet's encoded
// size, then moves the Message object into the receiver's inbox.
#pragma once

#include "net/transport.h"

namespace fastpr::net {

class InprocTransport final : public ShapedTransport {
 public:
  InprocTransport(int num_nodes, const Options& options)
      : ShapedTransport(num_nodes, options) {}

  void send(Message msg) override;
};

}  // namespace fastpr::net
