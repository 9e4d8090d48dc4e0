// BandwidthReplanTrigger (DESIGN.md §11): the pure control logic behind
// mid-repair bandwidth replanning. Exercises every edge of the state
// machine with explicit epochs — hysteresis (consecutive-breach floor,
// healthy-round streak reset), stale-epoch rejection, cooldown and
// re-arm, the replan cap, permanent disable, and constructor
// validation. The coordinator-integration path (FlowMonitor drift →
// plan splice) is covered by test_chaos and bench_topology; this file
// pins the trigger semantics those runs rely on.
#include <gtest/gtest.h>

#include "core/replan_trigger.h"
#include "util/check.h"

namespace fastpr::core {
namespace {

BandwidthReplanOptions armed() {
  BandwidthReplanOptions options;
  options.enabled = true;
  return options;  // min_breach 2, max 1
}

TEST(BandwidthReplanTrigger, DisabledTriggerNeverFiresOrCounts) {
  BandwidthReplanTrigger trigger{BandwidthReplanOptions{}};
  EXPECT_FALSE(trigger.enabled());
  for (int64_t epoch = 1; epoch <= 10; ++epoch) {
    EXPECT_FALSE(trigger.feed(epoch, 0.0));
  }
  const auto stats = trigger.stats();
  EXPECT_EQ(stats.samples, 0);
  EXPECT_EQ(stats.breaches, 0);
  EXPECT_EQ(stats.replans, 0);
}

TEST(BandwidthReplanTrigger, FiresOnlyAfterMinBreachRounds) {
  auto options = armed();
  options.min_breach_rounds = 3;
  BandwidthReplanTrigger trigger{options};
  EXPECT_TRUE(trigger.enabled());
  EXPECT_FALSE(trigger.feed(1, 0.3));
  EXPECT_FALSE(trigger.feed(2, 0.3));
  EXPECT_TRUE(trigger.feed(3, 0.3));
  const auto stats = trigger.stats();
  EXPECT_EQ(stats.samples, 3);
  EXPECT_EQ(stats.breaches, 3);
  EXPECT_EQ(stats.replans, 1);
}

TEST(BandwidthReplanTrigger, HealthyRoundResetsBreachStreak) {
  // Hysteresis: breaches must be CONSECUTIVE. A single recovered round
  // between two breaches keeps a min_breach_rounds=2 trigger silent.
  BandwidthReplanTrigger trigger{armed()};
  EXPECT_FALSE(trigger.feed(1, 0.3));   // breach 1
  EXPECT_FALSE(trigger.feed(2, 0.9));   // healthy — streak resets
  EXPECT_FALSE(trigger.feed(3, 0.3));   // breach 1 again
  EXPECT_TRUE(trigger.feed(4, 0.3));    // breach 2 — fires
  const auto stats = trigger.stats();
  EXPECT_EQ(stats.samples, 4);
  EXPECT_EQ(stats.breaches, 3);
  EXPECT_EQ(stats.replans, 1);
}

TEST(BandwidthReplanTrigger, BoundaryRatioIsNotABreach) {
  // ratio == kDegradeRatio counts as healthy (feed breaches strictly
  // below the threshold), so a link running exactly at plan-degraded
  // pace never thrashes the plan.
  auto options = armed();
  options.min_breach_rounds = 1;
  BandwidthReplanTrigger trigger{options};
  EXPECT_FALSE(trigger.feed(1, kDegradeRatio));
  EXPECT_EQ(trigger.stats().breaches, 0);
}

TEST(BandwidthReplanTrigger, StaleEpochsAreDroppedWithoutCounting) {
  // After a replan splices the round list, an in-flight end-of-round
  // sample for an already-seen epoch must not advance the streak.
  BandwidthReplanTrigger trigger{armed()};
  EXPECT_FALSE(trigger.feed(5, 0.3));  // breach 1
  EXPECT_FALSE(trigger.feed(5, 0.3));  // same epoch: dropped
  EXPECT_FALSE(trigger.feed(4, 0.3));  // older epoch: dropped
  EXPECT_EQ(trigger.stats().samples, 1);
  EXPECT_TRUE(trigger.feed(6, 0.3));   // breach 2 — fires
  const auto stats = trigger.stats();
  EXPECT_EQ(stats.samples, 2);
  EXPECT_EQ(stats.breaches, 2);
}

TEST(BandwidthReplanTrigger, CooldownHoldsUntilRearmRatio) {
  auto options = armed();
  options.min_breach_rounds = 1;
  options.max_replans = 2;
  BandwidthReplanTrigger trigger{options};
  EXPECT_TRUE(trigger.feed(1, 0.3));   // fires, enters cooldown
  EXPECT_FALSE(trigger.feed(2, 0.3));  // cooldown swallows the breach
  EXPECT_FALSE(trigger.feed(3, 0.6));  // above degrade, below rearm: held
  EXPECT_FALSE(trigger.feed(4, 0.85)); // >= rearm 0.8 — re-arms
  EXPECT_TRUE(trigger.feed(5, 0.3));   // armed again, fires
  const auto stats = trigger.stats();
  EXPECT_EQ(stats.replans, 2);
  // Cooldown samples are accepted (fresh epochs) but not breaches.
  EXPECT_EQ(stats.samples, 5);
  EXPECT_EQ(stats.breaches, 2);
}

TEST(BandwidthReplanTrigger, MaxReplansCapsFiring) {
  auto options = armed();
  options.min_breach_rounds = 1;
  BandwidthReplanTrigger trigger{options};  // max_replans = 1
  EXPECT_TRUE(trigger.feed(1, 0.3));
  EXPECT_FALSE(trigger.feed(2, 0.9));  // re-arms
  EXPECT_FALSE(trigger.feed(3, 0.3));  // breach, but replans exhausted
  EXPECT_FALSE(trigger.feed(4, 0.3));
  const auto stats = trigger.stats();
  EXPECT_EQ(stats.replans, 1);
  EXPECT_EQ(stats.breaches, 3);
}

TEST(BandwidthReplanTrigger, MaxReplansZeroNeverFires) {
  auto options = armed();
  options.min_breach_rounds = 1;
  options.max_replans = 0;
  BandwidthReplanTrigger trigger{options};
  for (int64_t epoch = 1; epoch <= 5; ++epoch) {
    EXPECT_FALSE(trigger.feed(epoch, 0.1));
  }
  EXPECT_EQ(trigger.stats().replans, 0);
  EXPECT_EQ(trigger.stats().breaches, 5);
}

TEST(BandwidthReplanTrigger, DisableIsPermanent) {
  // The degraded-to-reactive path disarms the trigger for good: the
  // plan it was monitoring no longer exists.
  auto options = armed();
  options.min_breach_rounds = 1;
  BandwidthReplanTrigger trigger{options};
  trigger.disable();
  EXPECT_FALSE(trigger.enabled());
  EXPECT_FALSE(trigger.feed(1, 0.0));
  EXPECT_EQ(trigger.stats().samples, 0);
}

TEST(BandwidthReplanTrigger, ConstructorRejectsDegenerateOptions) {
  auto zero_breach = armed();
  zero_breach.min_breach_rounds = 0;
  EXPECT_THROW(BandwidthReplanTrigger{zero_breach}, CheckFailure);

  auto negative_cap = armed();
  negative_cap.max_replans = -1;
  EXPECT_THROW(BandwidthReplanTrigger{negative_cap}, CheckFailure);
}

TEST(BandwidthReplanTrigger, NegativeRatioIsRejected) {
  BandwidthReplanTrigger trigger{armed()};
  EXPECT_THROW(trigger.feed(1, -0.1), CheckFailure);
}

}  // namespace
}  // namespace fastpr::core
