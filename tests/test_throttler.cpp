// Lease protocol edge cases (DESIGN.md §10): AIMD against the SLO,
// expiry returning budget to the pool, sequence-stamped grants that
// cannot double-apply, panic mode, and throttler state surviving a
// mid-repair STF death. All with synthetic time — the throttler and the
// budget take `now_us` from the caller.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "agent/repair_budget.h"
#include "core/repair_throttler.h"
#include "util/check.h"
#include "util/units.h"

namespace fastpr {
namespace {

using core::LeaseGrant;
using core::RepairThrottler;
using core::ThrottlerOptions;

ThrottlerOptions base_options() {
  ThrottlerOptions o;
  o.total_bytes_per_sec = 100e6;  // floor and AIMD step 5e6 (1/20)
  o.slo_p99_seconds = 0.050;
  o.initial_fraction = 0.5;
  return o;
}

double grant_rate(const std::vector<LeaseGrant>& grants,
                  cluster::NodeId node) {
  for (const auto& g : grants) {
    if (g.agent == node) return g.bytes_per_sec;
  }
  ADD_FAILURE() << "no grant for agent " << node;
  return -1;
}

TEST(RepairThrottler, AimdRampsUnderSloAndCutsOnBreach) {
  RepairThrottler t(base_options());
  t.add_agent(1);
  t.reset(0, /*total_repair_bytes=*/1e9);
  // Exact-value assertion, not a configuration boundary.
  // fastpr-lint: allow(units)
  EXPECT_DOUBLE_EQ(t.budget_bytes_per_sec(), 50e6);

  // Under the SLO: additive increase per tick.
  t.report_pressure(1, 0, /*p99=*/0.010, /*fg=*/0, 1000);
  t.tick(1000);
  EXPECT_DOUBLE_EQ(t.budget_bytes_per_sec(), 55e6);

  // Breach: multiplicative cut.
  t.report_pressure(1, 1, /*p99=*/0.200, /*fg=*/0, 2000);
  t.tick(2000);
  EXPECT_DOUBLE_EQ(t.budget_bytes_per_sec(), 27.5e6);
  EXPECT_EQ(t.stats().slo_breaches, 1);
}

TEST(RepairThrottler, HoldsBudgetWithoutFreshReports) {
  RepairThrottler t(base_options());
  t.add_agent(1);
  t.reset(0, 1e9);
  t.report_pressure(1, 0, 0.010, 0, 1000);
  t.tick(1000);
  const double after_ramp = t.budget_bytes_per_sec();
  // No report between ticks: the AIMD holds rather than ramping blind.
  t.tick(2000);
  EXPECT_DOUBLE_EQ(t.budget_bytes_per_sec(), after_ramp);
}

TEST(RepairThrottler, CutNeverGoesBelowFloor) {
  RepairThrottler t(base_options());
  t.add_agent(1);
  t.reset(0, 1e9);
  for (int i = 0; i < 20; ++i) {
    const int64_t now = 1000 * (i + 1);
    t.report_pressure(1, 0, /*p99=*/1.0, 0, now);
    t.tick(now);
  }
  EXPECT_DOUBLE_EQ(t.budget_bytes_per_sec(), 5e6);
}

TEST(RepairThrottler, FixedModeNeverAdapts) {
  ThrottlerOptions o = base_options();
  o.adaptive = false;
  o.initial_fraction = 0.1;  // the "polite cap" baseline
  RepairThrottler t(o);
  t.add_agent(1);
  t.reset(0, 1e9);
  t.report_pressure(1, 0, /*p99=*/1.0, 0, 1000);
  t.tick(1000);
  t.report_pressure(1, 0, /*p99=*/0.001, 0, 2000);
  t.tick(2000);
  EXPECT_DOUBLE_EQ(t.budget_bytes_per_sec(), 10e6);
  EXPECT_EQ(t.stats().slo_breaches, 0);
}

TEST(RepairThrottler, SharesWeightedByForegroundHeadroom) {
  RepairThrottler t(base_options());
  t.add_agent(1);
  t.add_agent(2);
  t.reset(0, 1e9);
  // Agent 2's node serves 3x the foreground bytes of agent 1's.
  t.report_pressure(1, 0, 0.010, /*fg=*/10e6, 1000);
  t.report_pressure(2, 0, 0.010, /*fg=*/30e6, 1000);
  const auto grants = t.tick(1000);
  ASSERT_EQ(grants.size(), 2u);
  const double r1 = grant_rate(grants, 1);
  const double r2 = grant_rate(grants, 2);
  EXPECT_GT(r1, r2);  // quieter node gets the bigger repair share
  EXPECT_NEAR(r1 + r2, t.budget_bytes_per_sec(), 1.0);
  // w = 2/(1+fg/mean): fg {10,30} around mean 20 → weights {4/3, 0.8}.
  EXPECT_NEAR(r1 / r2, (4.0 / 3.0) / 0.8, 1e-9);
}

TEST(RepairThrottler, ExpiredLeaseReturnsShareToPool) {
  RepairThrottler t(base_options());
  t.add_agent(1);
  t.add_agent(2);
  t.reset(0, 1e9);
  t.report_pressure(1, 0, 0.010, 0, 1000);
  t.report_pressure(2, 0, 0.010, 0, 1000);
  t.tick(1000);

  // Agent 2 goes silent past the TTL; agent 1 keeps renewing.
  const int64_t later = 1000 + 3 * core::kLeaseTtlUs;
  t.report_pressure(1, 0, 0.010, 0, later);
  const auto grants = t.tick(later);
  EXPECT_EQ(t.stats().leases_expired, 1);
  // The survivor now holds the whole budget; the silent agent only gets
  // the minimal re-admission trickle.
  EXPECT_NEAR(grant_rate(grants, 1), t.budget_bytes_per_sec(), 1.0);
  EXPECT_LE(grant_rate(grants, 2),
            base_options().total_bytes_per_sec * core::kFloorShare / 2 +
                1.0);

  // A fresh pressure report re-admits the expired agent.
  const int64_t revived = later + 1000;
  t.report_pressure(2, 0, 0.010, 0, revived);
  t.report_pressure(1, 0, 0.010, 0, revived);
  const auto regrants = t.tick(revived);
  EXPECT_NEAR(grant_rate(regrants, 1) + grant_rate(regrants, 2),
              t.budget_bytes_per_sec(), 1.0);
  EXPECT_GT(grant_rate(regrants, 2), 1e6);
}

TEST(RepairThrottler, GrantSequenceStrictlyMonotonicAcrossResets) {
  RepairThrottler t(base_options());
  t.add_agent(1);
  t.add_agent(2);
  t.reset(0, 1e9);
  uint64_t last_seq = 0;
  for (int round = 0; round < 3; ++round) {
    const int64_t now = 1000 * (round + 1);
    t.report_pressure(1, last_seq, 0.01, 0, now);
    t.report_pressure(2, last_seq, 0.01, 0, now);
    for (const auto& g : t.tick(now)) {
      EXPECT_GT(g.seq, last_seq);
      last_seq = std::max(last_seq, g.seq);
    }
  }
  // A new repair run must not reuse sequence numbers: stale grants from
  // the previous run stay unappliable.
  t.reset(10'000, 5e8);
  t.report_pressure(1, last_seq, 0.01, 0, 11'000);
  for (const auto& g : t.tick(11'000)) EXPECT_GT(g.seq, last_seq);
}

TEST(RepairThrottler, PanicPinsBudgetAtCeilingAndSticks) {
  RepairThrottler t(base_options());
  t.add_agent(1);
  t.reset(0, /*total_repair_bytes=*/1e9);
  // At the initial 50 MB/s the 1 GB backlog takes 20 s; deadline in 5 s.
  t.set_deadline(5'000'000);
  t.report_pressure(1, 0, 0.010, 0, 1000);
  t.tick(1000);
  EXPECT_TRUE(t.panic());
  EXPECT_DOUBLE_EQ(t.budget_bytes_per_sec(), 100e6);

  // Sticky: an SLO breach after the flip no longer cuts the budget.
  t.report_pressure(1, 0, /*p99=*/1.0, 0, 2000);
  const auto grants = t.tick(2000);
  EXPECT_TRUE(t.panic());
  EXPECT_DOUBLE_EQ(t.budget_bytes_per_sec(), 100e6);
  EXPECT_NEAR(grant_rate(grants, 1), 100e6, 1.0);
  EXPECT_EQ(t.stats().slo_breaches, 0);  // AIMD is out of the loop
}

TEST(RepairThrottler, NoPanicWhenPaceMeetsDeadline) {
  RepairThrottler t(base_options());
  t.add_agent(1);
  t.reset(0, 1e9);           // 20 s of work at the initial budget
  t.set_deadline(60'000'000);  // 60 s away: comfortably feasible
  t.report_pressure(1, 0, 0.010, 0, 1000);
  t.tick(1000);
  EXPECT_FALSE(t.panic());
  // Progress keeps the estimate feasible as time passes.
  t.on_progress(9e8);
  t.report_pressure(1, 0, 0.010, 0, 50'000'000);
  t.tick(50'000'000);
  EXPECT_FALSE(t.panic());
}

TEST(RepairThrottler, SurvivesMidRepairStfDeath) {
  // The STF node dies mid-repair: its agent vanishes (no more pressure
  // reports), the plan shrinks (set_remaining), and the throttler must
  // keep leasing to the survivors without wedging or leaking the dead
  // agent's share.
  RepairThrottler t(base_options());
  t.add_agent(1);
  t.add_agent(2);
  t.add_agent(3);  // the STF node's agent
  t.reset(0, 1e9);
  for (int i = 0; i < 3; ++i) {
    const int64_t now = 50'000 * (i + 1);
    t.report_pressure(1, 0, 0.01, 0, now);
    t.report_pressure(2, 0, 0.01, 0, now);
    t.report_pressure(3, 0, 0.01, 0, now);
    ASSERT_EQ(t.tick(now).size(), 3u);
  }
  // Death: agent 3 silent, reactive replan re-estimates the backlog.
  t.set_remaining(4e8);
  const int64_t after = 150'000 + 3 * core::kLeaseTtlUs;
  t.report_pressure(1, 0, 0.01, 0, after);
  t.report_pressure(2, 0, 0.01, 0, after);
  const auto grants = t.tick(after);
  ASSERT_EQ(grants.size(), 3u);  // dead agent still listed (re-admission)
  EXPECT_EQ(t.stats().leases_expired, 1);
  EXPECT_NEAR(grant_rate(grants, 1) + grant_rate(grants, 2),
              t.budget_bytes_per_sec(), 1.0);
  // And the feedback loop still works for the survivors.
  t.report_pressure(1, 0, /*p99=*/1.0, 0, after + 1000);
  t.tick(after + 1000);
  EXPECT_EQ(t.stats().slo_breaches, 1);
}

TEST(RepairThrottler, RejectsUnknownAgentsAndBadOptions) {
  RepairThrottler t(base_options());
  t.add_agent(1);
  t.reset(0, 1e9);
  t.report_pressure(99, 0, 1.0, 1e9, 1000);  // never added: ignored
  t.report_pressure(1, 0, 0.01, 0, 1000);
  t.tick(1000);
  EXPECT_EQ(t.stats().slo_breaches, 0);

  ThrottlerOptions bad = base_options();
  bad.total_bytes_per_sec = 0;
  EXPECT_THROW(RepairThrottler{bad}, CheckFailure);
}

TEST(RepairBudget, DoubleGrantImpossibleViaSeqStamping) {
  agent::RepairBudget b;
  EXPECT_TRUE(b.apply_grant(/*seq=*/5, 10e6, 200'000, 0));
  EXPECT_EQ(b.applied_seq(), 5u);
  // Re-delivered and reordered grants are dropped, not re-applied.
  EXPECT_FALSE(b.apply_grant(5, 99e6, 200'000, 0));
  EXPECT_FALSE(b.apply_grant(4, 99e6, 200'000, 0));
  EXPECT_DOUBLE_EQ(b.current_rate(), 10e6);
  EXPECT_TRUE(b.apply_grant(6, 20e6, 200'000, 0));
  EXPECT_EQ(b.leases_applied(), 2);
  EXPECT_DOUBLE_EQ(b.current_rate(), 20e6);
}

TEST(RepairBudget, ExpiryDropsToFloorUntilRenewed) {
  agent::RepairBudget b;
  ASSERT_TRUE(b.apply_grant(1, 50e6, /*ttl_us=*/100'000, /*now_us=*/0));
  b.acquire(1, 50'000);  // inside the TTL: leased rate holds
  EXPECT_DOUBLE_EQ(b.current_rate(), 50e6);
  b.acquire(1, 250'000);  // past the TTL: down to the trickle
  EXPECT_DOUBLE_EQ(b.current_rate(), 64.0 * kKiB);
  EXPECT_EQ(b.expirations(), 1);
  // A fresh grant re-arms the lease.
  ASSERT_TRUE(b.apply_grant(2, 30e6, 100'000, 300'000));
  b.acquire(1, 350'000);
  EXPECT_DOUBLE_EQ(b.current_rate(), 30e6);
}

TEST(RepairBudget, GrantRateClampedToFloor) {
  agent::RepairBudget b;
  // A near-zero share (e.g. a re-admission lease) still trickles.
  ASSERT_TRUE(b.apply_grant(1, 1.0, 200'000, 0));
  EXPECT_DOUBLE_EQ(b.current_rate(), 64.0 * kKiB);
}

TEST(RepairBudget, ReleaseUnblocksAndIsSticky) {
  agent::RepairBudget b;
  ASSERT_TRUE(b.apply_grant(1, /*bytes_per_sec=*/1e5, 1'000'000, 0));
  std::thread sender([&] {
    // ~80 s of budget at the leased rate; only release() lets this
    // return promptly.
    b.acquire(8'000'000, 1000);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  b.release();
  sender.join();
  // Sticky: neither a late grant nor an expiry re-throttles teardown.
  EXPECT_FALSE(b.apply_grant(2, 1.0, 1000, 2'000'000));
  b.acquire(100'000'000, 5'000'000);  // returns immediately (unlimited)
  EXPECT_DOUBLE_EQ(b.current_rate(), 0.0);
}

}  // namespace
}  // namespace fastpr
