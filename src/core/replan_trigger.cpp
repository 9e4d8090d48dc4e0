#include "core/replan_trigger.h"

#include "util/check.h"
#include "util/logging.h"

namespace fastpr::core {

namespace {

BandwidthReplanOptions validated(const BandwidthReplanOptions& o) {
  FASTPR_CHECK(o.min_breach_rounds >= 1);
  FASTPR_CHECK(o.max_replans >= 0);
  return o;
}

}  // namespace

BandwidthReplanTrigger::BandwidthReplanTrigger(
    const BandwidthReplanOptions& options)
    : options_(validated(options)) {}

bool BandwidthReplanTrigger::feed(int64_t epoch, double ratio) {
  MutexLock lock(mutex_);
  if (disabled_ || !options_.enabled) return false;
  if (epoch <= last_epoch_) return false;  // stale-epoch sample
  last_epoch_ = epoch;
  ++samples_;
  FASTPR_CHECK_MSG(ratio >= 0, "drift ratio must be non-negative");

  if (cooldown_) {
    if (ratio >= kRearmRatio) cooldown_ = false;
    return false;
  }
  if (ratio >= kDegradeRatio) {
    // A single healthy round resets the streak — breaches must be
    // consecutive to fire (no replan thrash on noisy estimates).
    breach_streak_ = 0;
    return false;
  }
  ++breaches_;
  if (++breach_streak_ < options_.min_breach_rounds) return false;
  if (replans_ >= options_.max_replans) return false;
  ++replans_;
  breach_streak_ = 0;
  cooldown_ = true;
  LOG_INFO("bandwidth replan trigger fired: epoch=" << epoch << " ratio="
                                                    << ratio);
  return true;
}

void BandwidthReplanTrigger::disable() {
  MutexLock lock(mutex_);
  disabled_ = true;
}

bool BandwidthReplanTrigger::enabled() const {
  MutexLock lock(mutex_);
  return options_.enabled && !disabled_;
}

BandwidthReplanStats BandwidthReplanTrigger::stats() const {
  MutexLock lock(mutex_);
  return BandwidthReplanStats{samples_, breaches_, replans_};
}

}  // namespace fastpr::core
