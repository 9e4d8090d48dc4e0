// telemetry::FlowMonitor: window → EWMA folding math, straggler
// flagging against expected rates, and the fault-injection credit that
// keeps chaos-delayed links from reading as stragglers (DESIGN.md §5c).
//
// All timestamps are explicit µs values — no clocks, so every expected
// rate below is exact arithmetic.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "telemetry/flow_monitor.h"
#include "telemetry/telemetry.h"
#include "util/units.h"

namespace fastpr {
namespace {

using telemetry::FlowMonitor;
using telemetry::LinkStats;

#if FASTPR_TELEMETRY_ENABLED

// Default options: 0.02 s windows, EWMA alpha 0.3.
constexpr int64_t kWindowUs = 20000;

TEST(FlowMonitor, FirstWindowSeedsEwmaThenFolds) {
  FlowMonitor fm;
  // Window 1: 40000 bytes over 20 ms = 2 MB/s, seeds the EWMA.
  fm.on_rx(0, 1, 20000, 0);
  fm.on_rx(0, 1, 20000, kWindowUs);
  auto snap = fm.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].src, 0);
  EXPECT_EQ(snap[0].dst, 1);
  EXPECT_EQ(snap[0].rx_bytes, 40000);
  EXPECT_DOUBLE_EQ(snap[0].ewma_bytes_per_sec, 2e6);

  // Window 2: 10000 bytes over 20 ms = 0.5 MB/s.
  // EWMA = 0.3 * 0.5e6 + 0.7 * 2e6 = 1.55e6.
  fm.on_rx(0, 1, 10000, 2 * kWindowUs);
  snap = fm.snapshot();
  EXPECT_DOUBLE_EQ(snap[0].ewma_bytes_per_sec, 1.55e6);
}

TEST(FlowMonitor, TxAndRxAreSeparateDirectedCounters) {
  FlowMonitor fm;
  fm.on_tx(0, 1, 100, 0);
  fm.on_tx(0, 1, 100, 0);
  fm.on_rx(1, 0, 77, 0);
  const auto snap = fm.snapshot();
  ASSERT_EQ(snap.size(), 2u);  // (0,1) and (1,0), sorted
  EXPECT_EQ(snap[0].src, 0);
  EXPECT_EQ(snap[0].tx_bytes, 200);
  EXPECT_EQ(snap[0].rx_bytes, 0);
  EXPECT_EQ(snap[1].src, 1);
  EXPECT_EQ(snap[1].rx_bytes, 77);
}

TEST(FlowMonitor, StragglerNeedsBothEstimateAndExpectation) {
  FlowMonitor fm;
  // 40000 bytes / 20 ms = 2 MB/s measured.
  fm.on_rx(0, 1, 40000, 0);
  fm.on_rx(0, 1, 0, kWindowUs);

  // No expectation: never a straggler.
  EXPECT_FALSE(fm.snapshot()[0].straggler);

  // Expected 3 MB/s: 2 MB/s is above the 0.5 factor — healthy.
  fm.set_expected_rate(0, 1, MBps(3));
  EXPECT_FALSE(fm.snapshot()[0].straggler);

  // Expected 5 MB/s: 2 < 0.5 * 5 — straggler.
  fm.set_expected_rate(0, 1, MBps(5));
  EXPECT_TRUE(fm.snapshot()[0].straggler);

  // A link with no estimate yet is not flagged even under the default
  // expectation.
  fm.set_default_expected_rate(MBps(5));
  fm.on_tx(2, 3, 10, 0);
  const auto snap = fm.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_DOUBLE_EQ(snap[1].expected_bytes_per_sec, MBps(5));
  EXPECT_FALSE(snap[1].straggler);
}

TEST(FlowMonitor, DefaultExpectedRateYieldsToSpecific) {
  FlowMonitor fm;
  fm.set_default_expected_rate(MBps(1));
  fm.set_expected_rate(0, 1, MBps(8));
  fm.on_tx(0, 1, 10, 0);
  fm.on_tx(4, 5, 10, 0);
  const auto snap = fm.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_DOUBLE_EQ(snap[0].expected_bytes_per_sec, MBps(8));
  EXPECT_DOUBLE_EQ(snap[1].expected_bytes_per_sec, MBps(1));
}

// The chaos-correctness property (DESIGN.md §5c): a link that is slow
// only because FaultyTransport slept on it keeps its injection-credited
// rate and is NOT a straggler.
TEST(FlowMonitor, InjectedDelayIsExcludedFromRate) {
  FlowMonitor fm;
  fm.set_expected_rate(1, 2, MBps(2));

  // 40000 bytes delivered across 100 ms of wall time, but 80 ms of it
  // was an injected fault-plan delay: active time is 20 ms, so the
  // credited rate is the full 2 MB/s the plan expects.
  fm.on_rx(1, 2, 20000, 0);
  fm.on_injected_delay(1, 2, 80000);
  fm.on_rx(1, 2, 20000, 100000);

  const auto snap = fm.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_DOUBLE_EQ(snap[0].ewma_bytes_per_sec, 2e6);
  EXPECT_EQ(snap[0].injected_delay_us, 80000);
  EXPECT_FALSE(snap[0].straggler);

  // Control: same traffic with no injection credit reads 0.4 MB/s and
  // IS a straggler.
  FlowMonitor control;
  control.set_expected_rate(1, 2, MBps(2));
  control.on_rx(1, 2, 20000, 0);
  control.on_rx(1, 2, 20000, 100000);
  const auto csnap = control.snapshot();
  EXPECT_DOUBLE_EQ(csnap[0].ewma_bytes_per_sec, 4e5);
  EXPECT_TRUE(csnap[0].straggler);
}

TEST(FlowMonitor, IdleGapsAreExcludedFromActiveTime) {
  // A receive gap longer than the idle threshold (0.1 s) means
  // the link had nothing scheduled — the round barrier, not slowness —
  // and is credited like injected delay. Two 40000-byte bursts, each
  // paced at 2 MB/s, separated by half a second of idle: the folded
  // rate must be the 4 MB/s of the pacing, not bytes / wall time.
  FlowMonitor fm;
  fm.set_expected_rate(1, 2, MBps(4));
  fm.on_rx(1, 2, 20000, 0);
  fm.on_rx(1, 2, 20000, 10000);
  fm.on_rx(1, 2, 20000, 510000);  // 500 ms gap: idle, not slowness
  fm.on_rx(1, 2, 20000, 520000);  // 20 ms active -> window folds
  const auto snap = fm.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_DOUBLE_EQ(snap[0].ewma_bytes_per_sec, 4e6);
  EXPECT_FALSE(snap[0].straggler);
  // The credit is window-local bookkeeping, not reported injection.
  EXPECT_EQ(snap[0].injected_delay_us, 0);

  // A gap at or below the threshold stays ACTIVE: genuine slow pacing
  // on a degraded link is still measured and still flags.
  FlowMonitor slow;
  slow.set_expected_rate(1, 2, MBps(4));
  slow.on_rx(1, 2, 20000, 0);
  slow.on_rx(1, 2, 20000, 100000);  // exactly 0.1 s: not idle
  const auto sslow = slow.snapshot();
  EXPECT_DOUBLE_EQ(sslow[0].ewma_bytes_per_sec, 4e5);  // 40000 B / 0.1 s
  EXPECT_TRUE(sslow[0].straggler);
}

TEST(FlowMonitor, ShortWindowStaysOpen) {
  FlowMonitor fm;
  fm.on_rx(0, 1, 1000, 0);
  fm.on_rx(0, 1, 1000, kWindowUs / 2);  // below the window threshold
  EXPECT_DOUBLE_EQ(fm.snapshot()[0].ewma_bytes_per_sec, 0);
  EXPECT_EQ(fm.snapshot()[0].rx_bytes, 2000);
}

TEST(FlowMonitor, ClearDropsAllLinks) {
  FlowMonitor fm;
  fm.on_tx(0, 1, 10, 0);
  fm.on_rx(0, 1, 10, 0);
  EXPECT_EQ(fm.snapshot().size(), 1u);
  fm.clear();
  EXPECT_TRUE(fm.snapshot().empty());
}

TEST(FlowMonitor, ConcurrentReportersDoNotLoseBytes) {
  FlowMonitor fm;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fm, t] {
      for (int i = 0; i < kPerThread; ++i) {
        fm.on_tx(t, 99, 3, i);
        fm.on_rx(t, 99, 3, i);
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto snap = fm.snapshot();
  ASSERT_EQ(snap.size(), static_cast<size_t>(kThreads));
  for (const auto& l : snap) {
    EXPECT_EQ(l.tx_bytes, 3 * kPerThread);
    EXPECT_EQ(l.rx_bytes, 3 * kPerThread);
  }
}

#else  // !FASTPR_TELEMETRY_ENABLED

TEST(FlowMonitor, DisabledBuildIsInertNoOp) {
  FlowMonitor fm;
  fm.on_tx(0, 1, 100, 0);
  fm.on_rx(0, 1, 100, 0);
  fm.on_injected_delay(0, 1, 50);
  fm.set_expected_rate(0, 1, MBps(1));
  fm.set_default_expected_rate(MBps(1));
  EXPECT_TRUE(fm.snapshot().empty());
  fm.clear();
}

#endif  // FASTPR_TELEMETRY_ENABLED

}  // namespace
}  // namespace fastpr
