#include "lifetime/lifetime_sim.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "cluster/rebalancer.h"
#include "core/fastpr.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/rng.h"

namespace fastpr::lifetime {

namespace {

using cluster::ChunkRef;
using cluster::NodeId;

constexpr double kSecondsPerDay = 86400.0;

struct FailureEvent {
  double day = 0;
  NodeId node = cluster::kNoNode;
  bool predicted = false;
  double flag_day = 0;      // meaningful when predicted
  bool false_alarm = false;  // flagged but never fails
};

/// While a failure is unrepaired, its stripes run degraded; a stripe
/// whose concurrently lost chunks the code cannot decode is data loss.
struct DegradedWindow {
  double until_day = 0;
  std::unordered_map<int32_t, int> lost;  // stripe → lost chunk index
};

}  // namespace

LifetimeReport simulate_lifetime(const LifetimeConfig& config) {
  const ec::ErasureCode& code = *config.code;
  FASTPR_CHECK(config.num_nodes >= code.n() + 1);
  FASTPR_CHECK(config.node_mtbf_days > 0);
  FASTPR_CHECK_MSG(config.scenario == core::Scenario::kScattered,
                   "lifetime simulation models scattered repair (spares "
                   "taking over service is out of scope)");
  Rng rng(config.seed);

  auto layout = cluster::StripeLayout::random(
      config.num_nodes, code.n(), config.num_stripes, rng);
  cluster::ClusterState state(
      config.num_nodes, config.hot_standby,
      cluster::BandwidthProfile{config.disk_bw, config.net_bw});

  // --- Build the event schedule. ---
  std::vector<FailureEvent> events;
  const double cluster_rate =
      static_cast<double>(config.num_nodes) / config.node_mtbf_days;
  double day = 0;
  for (;;) {
    day += -std::log(rng.uniform_real(1e-12, 1.0)) / cluster_rate;
    if (day > config.sim_days) break;
    FailureEvent ev;
    ev.day = day;
    ev.node = static_cast<NodeId>(rng.uniform(0, config.num_nodes - 1));
    ev.predicted = config.predictive_enabled &&
                   rng.chance(config.prediction_recall);
    if (ev.predicted) {
      ev.flag_day = day - rng.uniform_real(config.lead_days_min,
                                           config.lead_days_max);
    }
    events.push_back(ev);
  }
  // False alarms: flagged nodes that never fail (repaired anyway).
  if (config.predictive_enabled && config.false_alarms_per_year > 0) {
    double fa_day = 0;
    const double fa_rate = config.false_alarms_per_year / 365.0;
    for (;;) {
      fa_day += -std::log(rng.uniform_real(1e-12, 1.0)) / fa_rate;
      if (fa_day > config.sim_days) break;
      FailureEvent ev;
      ev.day = fa_day;
      ev.node = static_cast<NodeId>(rng.uniform(0, config.num_nodes - 1));
      ev.predicted = true;
      ev.false_alarm = true;
      ev.flag_day = fa_day;
      events.push_back(ev);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const FailureEvent& a, const FailureEvent& b) {
              return a.day < b.day;
            });

  // --- Simulation helpers. ---
  sim::SimParams sp;
  sp.chunk_bytes = config.chunk_bytes;
  sp.disk_bw = config.disk_bw;
  sp.net_bw = config.net_bw;
  sp.k_repair = code.repair_fetch_count(0);
  sp.hot_standby = config.hot_standby;
  sp.scenario = config.scenario;

  LifetimeReport report;
  std::map<NodeId, DegradedWindow> degraded;  // node → exposure window
  std::unordered_set<int32_t> lost_stripes;

  const auto account_overlap = [&](NodeId node, double at_day) {
    // Data loss when the code cannot decode a stripe's concurrently lost
    // chunks (for an MDS code, more than n - k of them).
    std::unordered_map<int32_t, std::vector<int>> stripe_lost;
    for (const auto& [stripe, index] : degraded.at(node).lost) {
      stripe_lost[stripe] = {index};
    }
    for (const auto& [other, window] : degraded) {
      if (other == node || window.until_day <= at_day) continue;
      for (const auto& [stripe, index] : window.lost) {
        const auto it = stripe_lost.find(stripe);
        if (it != stripe_lost.end()) it->second.push_back(index);
      }
    }
    for (const auto& [stripe, lost] : stripe_lost) {
      if (!code.can_decode(lost) &&
          lost_stripes.insert(stripe).second) {
        ++report.data_loss_stripes;
      }
    }
  };

  const auto apply_plan = [&](const core::RepairPlan& plan) {
    for (const auto& round : plan.rounds) {
      for (const auto& t : round.migrations) {
        layout.move_chunk(t.chunk, t.dst);
      }
      for (const auto& t : round.reconstructions) {
        if (state.is_hot_standby(t.dst)) continue;  // off-layout spare
        layout.move_chunk(t.chunk, t.dst);
      }
    }
  };

  core::PlannerOptions popts;
  popts.scenario = config.scenario;
  popts.k_repair = code.repair_fetch_count(0);
  popts.chunk_bytes = config.chunk_bytes;
  popts.code = &code;
  // Cap Algorithm 1's planning cost per repair (§IV-D chunk grouping).
  popts.recon.chunk_group_size = 128;

  // --- Play the schedule. ---
  for (const auto& ev : events) {
    if (layout.load(ev.node) == 0) continue;  // empty node: nothing to do

    if (ev.false_alarm) ++report.false_alarms;
    if (!ev.false_alarm) ++report.failures;

    if (ev.predicted) {
      if (!ev.false_alarm) ++report.predicted;
      state.set_health(ev.node, cluster::NodeHealth::kSoonToFail);
      core::FastPrPlanner planner(layout, state, popts);
      const auto plan = planner.plan_fastpr();
      const auto timing = sim::simulate(plan, sp);
      report.repair_traffic_chunks += timing.repair_traffic_chunks;
      report.repair_seconds.add(timing.total_time);

      const double lead_seconds =
          ev.false_alarm ? timing.total_time
                         : (ev.day - ev.flag_day) * kSecondsPerDay;
      if (timing.total_time <= lead_seconds) {
        // Proactive repair finished before the failure: no exposure.
        if (!ev.false_alarm) ++report.completed_in_time;
      } else {
        // Late: the un-repaired fraction is exposed from the failure
        // until the remaining chunks finish (still proactive-rate).
        const double exposed =
            timing.total_time - lead_seconds;
        report.vulnerability_seconds += exposed;
        report.degraded_stripe_seconds +=
            exposed * layout.load(ev.node) *
            (1.0 - lead_seconds / timing.total_time);
        DegradedWindow window;
        window.until_day = ev.day + exposed / kSecondsPerDay;
        for (ChunkRef c : layout.chunks_on(ev.node)) {
          window.lost[c.stripe] = c.index;
        }
        degraded[ev.node] = std::move(window);
        account_overlap(ev.node, ev.day);
      }
      apply_plan(plan);
      // Node survived (false alarm) or is replaced; either way it
      // rejoins empty and healthy.
      state.set_health(ev.node, cluster::NodeHealth::kHealthy);
    } else {
      // Unpredicted: reactive repair after the fact, full exposure. The
      // lost node is the batch; nothing of it has been handled yet.
      state.set_health(ev.node, cluster::NodeHealth::kSoonToFail);
      core::FastPrPlanner planner(layout, state, popts);
      const auto result = planner.plan_reactive({}, {});
      const auto timing = sim::simulate(result.plan, sp);
      report.repair_traffic_chunks += timing.repair_traffic_chunks;
      report.repair_seconds.add(timing.total_time);
      report.vulnerability_seconds += timing.total_time;
      report.degraded_stripe_seconds +=
          timing.total_time * layout.load(ev.node);

      DegradedWindow window;
      window.until_day = ev.day + timing.total_time / kSecondsPerDay;
      for (ChunkRef c : layout.chunks_on(ev.node)) {
        window.lost[c.stripe] = c.index;
      }
      degraded[ev.node] = std::move(window);
      account_overlap(ev.node, ev.day);

      for (ChunkRef c : result.unrepairable) {
        if (lost_stripes.insert(c.stripe).second) {
          ++report.data_loss_stripes;
        }
      }
      apply_plan(result.plan);
      state.set_health(ev.node, cluster::NodeHealth::kHealthy);
    }

    // Background rebalance restores a uniform spread (§II-B).
    cluster::rebalance(layout, state.healthy_storage_nodes(),
                       /*tolerance=*/4);
    layout.check_invariants();
  }
  return report;
}

}  // namespace fastpr::lifetime
