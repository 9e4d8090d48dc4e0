// Checks an execution's round structure against the plan it ran
// (DESIGN.md §7): plans the executor must not reshape run round for
// round as planned; FastPR plans may have migrations pulled forward.
#pragma once

#include <gtest/gtest.h>

#include <map>

#include "agent/coordinator.h"
#include "core/repair_plan.h"

namespace fastpr::test_rounds {

/// One executed round per planned round, each with the plan's (cr, cm):
/// what reconstruction-only and migration-only plans must show.
inline void expect_rounds_as_planned(const agent::ExecutionReport& report,
                                     const core::RepairPlan& plan) {
  const auto& rounds = report.repair.rounds;
  ASSERT_EQ(rounds.size(), plan.rounds.size());
  for (size_t i = 0; i < rounds.size(); ++i) {
    EXPECT_EQ(rounds[i].round, static_cast<int>(i) + 1);
    EXPECT_EQ(rounds[i].cr,
              static_cast<int>(plan.rounds[i].reconstructions.size()));
    EXPECT_EQ(rounds[i].cm,
              static_cast<int>(plan.rounds[i].migrations.size()));
  }
  for (const auto& done : report.completions) {
    EXPECT_EQ(done.executed_round, done.planned_round);
  }
}

/// The per-chunk record of a fault-free execution that may pull
/// migrations forward: every chunk runs in its planned round or earlier,
/// and only as a migration when earlier; each executed round's
/// reconstructions are the plan's for that round minus the chunks pulled
/// out of it; the rounds' cr + cm add up to the plan's chunks.
inline void expect_rounds_within_plan(const agent::ExecutionReport& report,
                                      const core::RepairPlan& plan) {
  std::map<cluster::ChunkRef, std::pair<int, bool>> planned;  // round, mig
  for (size_t i = 0; i < plan.rounds.size(); ++i) {
    const int round = static_cast<int>(i) + 1;
    for (const auto& t : plan.rounds[i].migrations) {
      planned[t.chunk] = {round, true};
    }
    for (const auto& t : plan.rounds[i].reconstructions) {
      planned[t.chunk] = {round, false};
    }
  }
  std::map<int, int> pulled_out;  // plan round → reconstructions pulled
  std::map<int, int> cr;          // executed round → reconstructions
  for (const auto& done : report.completions) {
    const auto it = planned.find(done.chunk);
    ASSERT_NE(it, planned.end());
    EXPECT_EQ(done.planned_round, it->second.first);
    EXPECT_LE(done.executed_round, done.planned_round);
    if (!done.migrated) {
      EXPECT_FALSE(it->second.second) << "a planned migration reconstructed";
      EXPECT_EQ(done.executed_round, done.planned_round);
      ++cr[done.executed_round];
    } else if (!it->second.second) {
      EXPECT_LT(done.executed_round, done.planned_round);
      ++pulled_out[done.planned_round];
    }
  }
  int total = 0;
  int previous = 0;
  for (const auto& row : report.repair.rounds) {
    EXPECT_GT(row.round, previous);
    previous = row.round;
    ASSERT_LE(row.round, static_cast<int>(plan.rounds.size()));
    const auto& round = plan.rounds[static_cast<size_t>(row.round - 1)];
    EXPECT_EQ(row.cr, static_cast<int>(round.reconstructions.size()) -
                          pulled_out[row.round]);
    EXPECT_EQ(row.cr, cr[row.round]);
    total += row.cr + row.cm;
  }
  EXPECT_EQ(total, plan.total_repaired());
}

}  // namespace fastpr::test_rounds
