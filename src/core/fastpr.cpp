#include "core/fastpr.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "core/placement.h"
#include "core/reactive.h"
#include "telemetry/trace.h"
#include "util/check.h"

namespace fastpr::core {

using cluster::ChunkRef;
using cluster::NodeId;

FastPrPlanner::FastPrPlanner(const cluster::StripeLayout& layout,
                             const cluster::ClusterState& cluster,
                             const PlannerOptions& options)
    : layout_(layout),
      cluster_(cluster),
      options_(options),
      stf_(cluster.stf_node()) {
  FASTPR_CHECK_MSG(stf_ != cluster::kNoNode,
                   "no STF node flagged in the cluster");
  FASTPR_CHECK(options.k_repair >= 1);
  FASTPR_CHECK(options.chunk_bytes > 0);
  if (options.scenario == Scenario::kHotStandby) {
    FASTPR_CHECK_MSG(cluster.num_hot_standby() >= 1,
                     "hot-standby repair needs spare nodes");
  }
}

std::vector<NodeId> FastPrPlanner::source_nodes() const {
  return cluster_.healthy_storage_nodes();
}

std::vector<NodeId> FastPrPlanner::dest_nodes() const {
  return options_.scenario == Scenario::kScattered
             ? cluster_.healthy_storage_nodes()
             : cluster_.hot_standby_nodes();
}

int FastPrPlanner::scattered_round_capacity() const {
  const int cap = static_cast<int>(cluster_.healthy_storage_nodes().size()) -
                  (layout_.chunks_per_stripe() - 1);
  FASTPR_CHECK_MSG(cap >= 1,
                   "cluster too small for scattered repair: need M - n >= 1");
  return cap;
}

ReconSetOptions FastPrPlanner::effective_recon_options() const {
  ReconSetOptions opts = options_.recon;
  if (options_.scenario == Scenario::kScattered) {
    const int cap = scattered_round_capacity();
    opts.max_set_size =
        opts.max_set_size > 0 ? std::min(opts.max_set_size, cap) : cap;
  }
  if (opts.topology == nullptr) opts.topology = options_.topology;
  return opts;
}

CostModel FastPrPlanner::cost_model() const {
  ModelParams params;
  params.num_nodes = cluster_.num_storage_nodes();
  params.stf_chunks =
      std::max(1, static_cast<int>(layout_.chunks_on(stf_).size()));
  params.chunk_bytes = options_.chunk_bytes;
  params.disk_bw = cluster_.bandwidth().disk_bytes_per_sec;
  params.net_bw = cluster_.bandwidth().net_bytes_per_sec;
  params.k_repair = options_.k_repair;
  params.hot_standby = std::max(1, cluster_.num_hot_standby());
  params.scenario = options_.scenario;
  params.packet_bytes = options_.packet_bytes;
  params.chain_hop_overhead_seconds = options_.chain_hop_overhead_seconds;
  params.repair_bw_fraction = options_.repair_bw_fraction;
  if (options_.topology != nullptr && !options_.topology->is_flat()) {
    // Rack-disjoint stripes put every helper in a foreign rack; rack-
    // aware migrations stay in-rack while hot-standby spares live in an
    // overflow rack every migration must cross into (DESIGN.md §11).
    params.oversubscription = options_.topology->oversubscription();
    params.cross_rack_helper_fraction = 1.0;
    params.cross_rack_migration_fraction =
        options_.scenario == Scenario::kHotStandby ? 1.0 : 0.0;
  }
  return CostModel(params);
}

void FastPrPlanner::use_reconstruction_sets(
    std::vector<std::vector<ChunkRef>> sets) {
  // Exact-cover check against the STF node's chunks.
  std::unordered_set<ChunkRef, cluster::ChunkRefHash> expected;
  for (ChunkRef c : layout_.chunks_on(stf_)) expected.insert(c);
  size_t covered = 0;
  const size_t cap =
      options_.scenario == Scenario::kScattered
          ? static_cast<size_t>(scattered_round_capacity())
          : std::numeric_limits<size_t>::max();
  const size_t total = expected.size();
  for (const auto& set : sets) {
    FASTPR_CHECK_MSG(set.size() <= cap,
                     "precomputed set exceeds destination capacity");
    for (ChunkRef c : set) {
      FASTPR_CHECK_MSG(expected.erase(c) == 1,
                       "precomputed sets repeat a chunk or cover a "
                       "foreign one");
      ++covered;
    }
  }
  FASTPR_CHECK_MSG(covered == total, "precomputed sets cover "
                                         << covered << " of " << total
                                         << " chunks");
  cached_sets_ = std::move(sets);
  recon_stats_ = {};
  sets_ready_ = true;
}

const std::vector<std::vector<ChunkRef>>& FastPrPlanner::recon_sets() {
  if (!sets_ready_) {
    FASTPR_TRACE_SPAN("planner.recon_sets", "planner");
    recon_stats_ = {};
    cached_sets_ = find_reconstruction_sets(
        layout_, stf_, source_nodes(), options_.k_repair,
        effective_recon_options(), &recon_stats_, options_.code);
    sets_ready_ = true;
  }
  return cached_sets_;
}

RepairPlan FastPrPlanner::plan_fastpr() {
  FASTPR_TRACE_SPAN("planner.plan_fastpr", "planner");
  const auto sources = source_nodes();
  const auto dests = dest_nodes();

  auto sets = recon_sets();  // copy: the scheduler splits sets

  SchedulerOptions sched = options_.sched;
  if (options_.scenario == Scenario::kScattered) {
    sched.max_round_repairs = scattered_round_capacity();
  }
  const auto rounds = [&] {
    FASTPR_TRACE_SPAN("planner.schedule", "planner");
    return schedule_repair(std::move(sets), cost_model(), sched);
  }();

  RepairPlan plan;
  plan.stf_node = stf_;
  int standby_cursor = 0;
  for (const auto& round : rounds) {
    plan.rounds.push_back(assign_round(layout_, stf_, sources, dests,
                                       options_.scenario, options_.k_repair,
                                       round, &standby_cursor,
                                       options_.code,
                                       options_.balance_destinations,
                                       options_.topology));
  }
  return plan;
}

RepairPlan FastPrPlanner::plan_reconstruction_only() {
  const auto sources = source_nodes();
  const auto dests = dest_nodes();
  const auto& sets = recon_sets();
  const CostModel model = cost_model();

  RepairPlan plan;
  plan.stf_node = stf_;
  int standby_cursor = 0;
  for (const auto& set : sets) {
    ScheduledRound round;
    round.reconstruct = set;
    round.strategy = resolve_strategy(options_.sched.strategy, model,
                                      static_cast<int>(set.size()));
    plan.rounds.push_back(assign_round(layout_, stf_, sources, dests,
                                       options_.scenario, options_.k_repair,
                                       round, &standby_cursor,
                                       options_.code,
                                       options_.balance_destinations,
                                       options_.topology));
  }
  return plan;
}

RepairPlan FastPrPlanner::plan_migration_only() {
  const auto sources = source_nodes();
  const auto dests = dest_nodes();
  const auto chunks = layout_.chunks_on(stf_);

  RepairPlan plan;
  plan.stf_node = stf_;
  int standby_cursor = 0;

  if (options_.scenario == Scenario::kHotStandby) {
    ScheduledRound round;
    round.migrate = chunks;
    plan.rounds.push_back(assign_round(layout_, stf_, sources, dests,
                                       options_.scenario, options_.k_repair,
                                       round, &standby_cursor,
                                       options_.code,
                                       options_.balance_destinations,
                                       options_.topology));
    return plan;
  }

  // Scattered: batch into rounds small enough that every batch admits a
  // perfect destination matching. (Rounds do not change migration time —
  // the STF node serializes them anyway.)
  const size_t batch = static_cast<size_t>(scattered_round_capacity());
  for (size_t start = 0; start < chunks.size(); start += batch) {
    ScheduledRound round;
    const size_t end = std::min(chunks.size(), start + batch);
    round.migrate.assign(chunks.begin() + static_cast<ptrdiff_t>(start),
                         chunks.begin() + static_cast<ptrdiff_t>(end));
    plan.rounds.push_back(assign_round(layout_, stf_, sources, dests,
                                       options_.scenario, options_.k_repair,
                                       round, &standby_cursor,
                                       options_.code,
                                       options_.balance_destinations,
                                       options_.topology));
  }
  return plan;
}

ReactiveReplan FastPrPlanner::plan_reactive(
    const std::vector<ChunkRef>& already_repaired,
    const std::vector<NodeId>& failed) {
  std::unordered_set<ChunkRef, cluster::ChunkRefHash> handled(
      already_repaired.begin(), already_repaired.end());
  std::vector<ChunkRef> remaining;
  for (ChunkRef chunk : layout_.chunks_on(stf_)) {
    if (handled.count(chunk) == 0) remaining.push_back(chunk);
  }

  ReactiveReplan out;
  out.plan.stf_node = stf_;
  if (remaining.empty()) return out;

  // The dead set: the STF node itself plus everything declared failed
  // during execution (deduplicated, order-stable for determinism).
  std::vector<NodeId> dead{stf_};
  std::unordered_set<NodeId> dead_set{stf_};
  for (NodeId n : failed) {
    if (dead_set.insert(n).second) dead.push_back(n);
  }

  ReactiveOptions reactive;
  reactive.scenario = options_.scenario;
  reactive.k_repair = options_.k_repair;
  reactive.chunk_bytes = options_.chunk_bytes;
  reactive.code = options_.code;
  reactive.recon = options_.recon;
  // Reactive rounds keep the helper rack-spreading preference; the rack
  // destination invariant is best-effort in degraded mode (survival
  // beats placement quality once data is at risk).
  if (reactive.recon.topology == nullptr) {
    reactive.recon.topology = options_.topology;
  }
  ReactivePlanner planner(layout_, cluster_, reactive);
  ReactiveResult result = planner.plan_chunks(remaining, dead);
  out.plan = std::move(result.plan);
  out.plan.stf_node = stf_;
  out.unrepairable = std::move(result.unrecoverable);
  out.degraded_repairs = result.degraded_repairs;
  return out;
}

RepairPlan FastPrPlanner::plan_fastpr_remaining(
    const std::vector<ChunkRef>& already_repaired,
    const std::vector<NodeId>& deprioritized) {
  FASTPR_TRACE_SPAN("planner.plan_fastpr_remaining", "planner");
  std::unordered_set<ChunkRef, cluster::ChunkRefHash> handled(
      already_repaired.begin(), already_repaired.end());
  std::vector<ChunkRef> remaining;
  for (ChunkRef chunk : layout_.chunks_on(stf_)) {
    if (handled.count(chunk) == 0) remaining.push_back(chunk);
  }

  RepairPlan plan;
  plan.stf_node = stf_;
  if (remaining.empty()) return plan;

  const auto sources = source_nodes();
  const auto dests = dest_nodes();

  const ReconSetOptions recon = effective_recon_options();
  recon_stats_ = {};
  std::vector<std::vector<ChunkRef>> sets;

  // Stragglers are planned around structurally: chunks that can still
  // reach k' helpers without the deprioritized nodes form their sets
  // over the REDUCED source list, so those rounds are matchable with
  // zero straggler reads by construction. Preference ordering alone
  // cannot deliver that — Algorithm 1 packs rounds to the full node
  // count's capacity, leaving the per-round matching too saturated to
  // route around even one avoided node. Chunks whose stripes lost too
  // many holders to the straggler set fall back to the full source
  // list with the stragglers merely deprioritized.
  std::vector<ChunkRef> tainted;
  bool reduced = false;
  if (!deprioritized.empty()) {
    const std::unordered_set<NodeId> slow_set(deprioritized.begin(),
                                              deprioritized.end());
    std::vector<NodeId> fast_sources;
    for (NodeId node : sources) {
      if (slow_set.count(node) == 0) fast_sources.push_back(node);
    }
    if (static_cast<int>(fast_sources.size()) >= options_.k_repair) {
      const std::unordered_set<NodeId> fast_set(fast_sources.begin(),
                                                fast_sources.end());
      const auto fast_helpers = [&](ChunkRef chunk) {
        const auto& nodes = layout_.stripe_nodes(chunk.stripe);
        int eligible = 0;
        if (options_.code != nullptr) {
          for (int idx : options_.code->helper_candidates(chunk.index)) {
            if (fast_set.count(nodes[static_cast<size_t>(idx)]) > 0) {
              ++eligible;
            }
          }
        } else {
          for (NodeId node : nodes) {
            if (fast_set.count(node) > 0) ++eligible;
          }
        }
        return eligible;
      };
      const auto fetch = [&](ChunkRef chunk) {
        return options_.code != nullptr
                   ? options_.code->repair_fetch_count(chunk.index)
                   : options_.k_repair;
      };
      std::vector<ChunkRef> clean;
      for (ChunkRef chunk : remaining) {
        (fast_helpers(chunk) >= fetch(chunk) ? clean : tainted)
            .push_back(chunk);
      }
      if (!clean.empty()) {
        sets = find_reconstruction_sets_for(clean, layout_, fast_sources,
                                            options_.k_repair, recon,
                                            &recon_stats_, options_.code);
      }
      reduced = true;
    }
  }
  if (!reduced) tainted = std::move(remaining);
  if (!tainted.empty()) {
    ReconSetOptions tainted_recon = recon;
    tainted_recon.deprioritized = deprioritized;
    auto tainted_sets =
        find_reconstruction_sets_for(tainted, layout_, sources,
                                     options_.k_repair, tainted_recon,
                                     &recon_stats_, options_.code);
    for (auto& set : tainted_sets) sets.push_back(std::move(set));
  }

  SchedulerOptions sched = options_.sched;
  if (options_.scenario == Scenario::kScattered) {
    sched.max_round_repairs = scattered_round_capacity();
  }
  const auto rounds = schedule_repair(std::move(sets), cost_model(), sched);

  int standby_cursor = 0;
  for (const auto& round : rounds) {
    plan.rounds.push_back(assign_round(layout_, stf_, sources, dests,
                                       options_.scenario, options_.k_repair,
                                       round, &standby_cursor,
                                       options_.code,
                                       options_.balance_destinations,
                                       options_.topology,
                                       &deprioritized));
  }
  return plan;
}

}  // namespace fastpr::core
