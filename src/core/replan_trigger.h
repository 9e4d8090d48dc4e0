// Mid-repair bandwidth replan trigger (DESIGN.md §11).
//
// The coordinator compares each round's measured per-link throughput
// (FlowMonitor EWMAs) against the rate the plan priced in, and feeds the
// worst measured/expected ratio here. When the ratio stays below the
// degrade threshold for enough consecutive rounds — hysteresis, so one
// noisy window never thrashes the plan — the trigger fires and the
// coordinator replans the remaining rounds around the degraded links
// (FastPrPlanner::plan_fastpr_remaining), the bandwidth-drift analog of
// PR 4's one-time reactive replan. After firing, the trigger stays in
// cooldown until the ratio recovers above the re-arm threshold, and a
// cap bounds total replans per run (each one re-runs Algorithms 1 + 2).
//
// Pure control logic with explicit epochs instead of a clock: feed()
// ignores ratios from epochs at or before the last one seen, so a
// stale end-of-round sample that raced a replan cannot re-fire it.
// Thread-safe: the coordinator is thread-confined today, but the
// trigger is shared with Testbed accessors in tests.
#pragma once

#include <cstdint>

#include "util/annotations.h"
#include "util/mutex.h"

namespace fastpr::core {

/// A round breaches when its worst-link measured/expected ratio drops
/// below this.
inline constexpr double kDegradeRatio = 0.5;
/// After firing, the trigger re-arms only once the ratio recovers to
/// this (above kDegradeRatio, else it would re-arm inside the degraded
/// band and thrash).
inline constexpr double kRearmRatio = 0.8;
static_assert(kRearmRatio > kDegradeRatio);

struct BandwidthReplanOptions {
  /// Master switch; disabled triggers never fire (the control arm of
  /// bench_topology's flapping scenario).
  bool enabled = false;
  /// Fire after this many CONSECUTIVE breaching rounds (hysteresis
  /// floor).
  int min_breach_rounds = 2;
  /// Replans per run; each costs a full Algorithm 1 + 2 pass.
  int max_replans = 1;
};

struct BandwidthReplanStats {
  int64_t samples = 0;   // accepted (fresh-epoch) feeds
  int64_t breaches = 0;  // samples below kDegradeRatio
  int replans = 0;       // times the trigger fired
};

class BandwidthReplanTrigger {
 public:
  explicit BandwidthReplanTrigger(const BandwidthReplanOptions& options);

  /// Folds one end-of-round observation: `epoch` is the round index (or
  /// any monotone counter), `ratio` the worst-link measured/expected.
  /// Returns true when the caller should replan NOW. Samples with epoch
  /// <= the last accepted one are dropped (stale after a replan spliced
  /// the round list). Never fires while disabled, exhausted, or in
  /// cooldown.
  bool feed(int64_t epoch, double ratio) FASTPR_EXCLUDES(mutex_);

  /// Permanently disarms the trigger (the run degraded to reactive
  /// repair — the plan being monitored no longer exists).
  void disable() FASTPR_EXCLUDES(mutex_);

  bool enabled() const FASTPR_EXCLUDES(mutex_);
  BandwidthReplanStats stats() const FASTPR_EXCLUDES(mutex_);

 private:
  const BandwidthReplanOptions options_;

  mutable Mutex mutex_{lock_order::kCoreReplanTrigger};
  bool disabled_ FASTPR_GUARDED_BY(mutex_) = false;
  bool cooldown_ FASTPR_GUARDED_BY(mutex_) = false;
  int breach_streak_ FASTPR_GUARDED_BY(mutex_) = 0;
  int64_t last_epoch_ FASTPR_GUARDED_BY(mutex_) = -1;
  int64_t samples_ FASTPR_GUARDED_BY(mutex_) = 0;
  int64_t breaches_ FASTPR_GUARDED_BY(mutex_) = 0;
  int replans_ FASTPR_GUARDED_BY(mutex_) = 0;
};

}  // namespace fastpr::core
