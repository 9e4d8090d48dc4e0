// Per-link flow telemetry (DESIGN.md §5c).
//
// Transports report every data-packet transmit/receive to a
// FlowMonitor as (src, dst, bytes, timestamp). The monitor accumulates
// receives into per-link windows; each time a window closes it folds
// the window's observed rate into an EWMA bytes/sec estimate for that
// directed link. Links whose EWMA runs a fixed factor below the
// round's plan rate are flagged as stragglers — the live sensor the
// adaptive throttler (ROADMAP item 1) and mid-repair replanning
// (item 3) consume.
//
// Fault injection: net::FaultyTransport charges its injected delays
// via on_injected_delay(), and the monitor excludes that time from the
// window's active duration — a link that is only slow because the
// chaos plan slept on it is NOT a straggler.
//
// Timestamps are µs on the tracing clock (telemetry::trace_now_us()).
// All methods are thread-safe (transports call from sender and reader
// threads concurrently); with -DFASTPR_TELEMETRY=OFF every method is
// an inline no-op and snapshot() returns nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "telemetry/repair_report.h"
#include "telemetry/telemetry.h"
#include "util/annotations.h"
#include "util/mutex.h"

namespace fastpr::telemetry {

#if FASTPR_TELEMETRY_ENABLED

class FlowMonitor {
 public:
  void on_tx(int src, int dst, int64_t bytes, int64_t now_us);
  void on_rx(int src, int dst, int64_t bytes, int64_t now_us);

  /// Credits fault-injected latency on (src, dst): the monitor removes
  /// it from the active time of the current window so chaos delays do
  /// not read as link slowness.
  void on_injected_delay(int src, int dst, int64_t delay_us);

  /// The plan rate a specific link is expected to sustain this round.
  void set_expected_rate(int src, int dst, double bytes_per_sec);
  /// Fallback plan rate for links without a specific expectation.
  void set_default_expected_rate(double bytes_per_sec);

  /// All observed links, straggler flags evaluated against the current
  /// expectations, ordered by (src, dst).
  std::vector<LinkBandwidth> snapshot() const;

  void clear();

 private:
  struct Link {
    int64_t tx_bytes = 0;
    int64_t rx_bytes = 0;
    int64_t window_start_us = -1;  // -1: window not open yet
    int64_t last_rx_us = -1;
    int64_t window_bytes = 0;
    int64_t window_injected_us = 0;
    int64_t total_injected_us = 0;
    double ewma_bytes_per_sec = 0;
    double expected_bytes_per_sec = 0;
  };

  Link& link(int src, int dst) FASTPR_REQUIRES(mutex_);
  void fold_window(Link& l, int64_t now_us) FASTPR_REQUIRES(mutex_);

  mutable Mutex mutex_{lock_order::kTelemetryFlow};
  /// Directed links keyed (src, dst), kept sorted for snapshot order.
  std::vector<std::pair<std::pair<int, int>, Link>> links_
      FASTPR_GUARDED_BY(mutex_);
  double default_expected_bytes_per_sec_ FASTPR_GUARDED_BY(mutex_) = 0;
};

#else  // !FASTPR_TELEMETRY_ENABLED

class FlowMonitor {
 public:
  void on_tx(int, int, int64_t, int64_t) {}
  void on_rx(int, int, int64_t, int64_t) {}
  void on_injected_delay(int, int, int64_t) {}
  void set_expected_rate(int, int, double) {}
  void set_default_expected_rate(double) {}
  std::vector<LinkBandwidth> snapshot() const { return {}; }
  void clear() {}
};

#endif  // FASTPR_TELEMETRY_ENABLED

}  // namespace fastpr::telemetry
