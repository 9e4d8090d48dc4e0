#include "telemetry/flow_monitor.h"

#include <algorithm>

namespace fastpr::telemetry {

#if FASTPR_TELEMETRY_ENABLED

namespace {

/// Minimum active (injection-corrected) time before a window closes into
/// the EWMA; short windows alias packet gaps into the rate.
constexpr double kWindowSeconds = 0.02;
constexpr double kEwmaAlpha = 0.3;
/// A link is a straggler when its EWMA estimate runs below
/// kStragglerFactor * expected rate (and both are known).
constexpr double kStragglerFactor = 0.5;
/// A receive gap longer than this is idle time (the link simply had
/// nothing scheduled — e.g. the round barrier between repair rounds),
/// excluded from the window's active duration like injected delay.
/// Without it a bursty-but-healthy link reads as a straggler:
/// bytes / (burst + idle) can fall arbitrarily far below the plan rate.
/// Must sit above the slowest plausible genuine packet interval — a
/// truly degraded link's gaps stay active.
constexpr double kIdleGapSeconds = 0.1;

}  // namespace

FlowMonitor::Link& FlowMonitor::link(int src, int dst) {
  const std::pair<int, int> key{src, dst};
  auto it = std::lower_bound(
      links_.begin(), links_.end(), key,
      [](const auto& entry, const std::pair<int, int>& k) {
        return entry.first < k;
      });
  if (it == links_.end() || it->first != key) {
    it = links_.insert(it, {key, Link{}});
  }
  return it->second;
}

void FlowMonitor::fold_window(Link& l, int64_t now_us) {
  if (l.window_start_us < 0) return;
  const int64_t active_us =
      now_us - l.window_start_us - l.window_injected_us;
  if (active_us < static_cast<int64_t>(kWindowSeconds * 1e6)) {
    return;  // window still open
  }
  if (active_us > 0 && l.window_bytes > 0) {
    const double rate = static_cast<double>(l.window_bytes) /
                        (static_cast<double>(active_us) / 1e6);
    l.ewma_bytes_per_sec =
        l.ewma_bytes_per_sec == 0
            ? rate
            : kEwmaAlpha * rate + (1.0 - kEwmaAlpha) * l.ewma_bytes_per_sec;
  }
  l.window_start_us = now_us;
  l.window_bytes = 0;
  l.window_injected_us = 0;
}

void FlowMonitor::on_tx(int src, int dst, int64_t bytes, int64_t now_us) {
  (void)now_us;
  MutexLock lock(mutex_);
  link(src, dst).tx_bytes += bytes;
}

void FlowMonitor::on_rx(int src, int dst, int64_t bytes, int64_t now_us) {
  MutexLock lock(mutex_);
  Link& l = link(src, dst);
  l.rx_bytes += bytes;
  if (l.window_start_us < 0) {
    l.window_start_us = now_us;
  } else if (l.last_rx_us >= 0) {
    // Idle gaps (nothing scheduled on the link, e.g. the barrier
    // between rounds) are excluded from active time exactly like
    // injected delay — only sub-gap pacing counts toward the rate.
    const int64_t gap_us = now_us - l.last_rx_us;
    if (gap_us > static_cast<int64_t>(kIdleGapSeconds * 1e6)) {
      l.window_injected_us += gap_us;
    }
  }
  l.last_rx_us = now_us;
  l.window_bytes += bytes;
  fold_window(l, now_us);
}

void FlowMonitor::on_injected_delay(int src, int dst, int64_t delay_us) {
  MutexLock lock(mutex_);
  Link& l = link(src, dst);
  l.total_injected_us += delay_us;
  if (l.window_start_us >= 0) l.window_injected_us += delay_us;
}

void FlowMonitor::set_expected_rate(int src, int dst,
                                    double bytes_per_sec) {
  MutexLock lock(mutex_);
  link(src, dst).expected_bytes_per_sec = bytes_per_sec;
}

void FlowMonitor::set_default_expected_rate(double bytes_per_sec) {
  MutexLock lock(mutex_);
  default_expected_bytes_per_sec_ = bytes_per_sec;
}

std::vector<LinkStats> FlowMonitor::snapshot() const {
  MutexLock lock(mutex_);
  std::vector<LinkStats> out;
  out.reserve(links_.size());
  for (const auto& [key, l] : links_) {
    LinkStats s;
    s.src = key.first;
    s.dst = key.second;
    s.tx_bytes = l.tx_bytes;
    s.rx_bytes = l.rx_bytes;
    s.ewma_bytes_per_sec = l.ewma_bytes_per_sec;
    s.expected_bytes_per_sec = l.expected_bytes_per_sec > 0
                                   ? l.expected_bytes_per_sec
                                   : default_expected_bytes_per_sec_;
    s.injected_delay_us = l.total_injected_us;
    s.straggler = s.ewma_bytes_per_sec > 0 &&
                  s.expected_bytes_per_sec > 0 &&
                  s.ewma_bytes_per_sec <
                      kStragglerFactor * s.expected_bytes_per_sec;
    out.push_back(s);
  }
  return out;
}

void FlowMonitor::clear() {
  MutexLock lock(mutex_);
  links_.clear();
}

#endif  // FASTPR_TELEMETRY_ENABLED

}  // namespace fastpr::telemetry
