#include "core/fastpr.h"

#include <algorithm>
#include <iterator>
#include <unordered_set>

#include "core/placement.h"
#include "telemetry/trace.h"
#include "util/check.h"

namespace fastpr::core {

using cluster::ChunkRef;
using cluster::NodeId;

namespace {

/// Spreads migration-only chunks over the scheduled rounds, respecting
/// the per-round repair cap (scattered destination feasibility); rounds
/// are appended when every existing one is full. Deterministic
/// round-robin so plans stay reproducible.
void distribute_forced_migrations(std::vector<ScheduledRound>& rounds,
                                  const std::vector<ChunkRef>& forced,
                                  int round_cap) {
  if (forced.empty()) return;
  if (rounds.empty()) rounds.emplace_back();
  size_t next = 0;
  for (ChunkRef chunk : forced) {
    size_t tried = 0;
    while (round_cap > 0 && tried < rounds.size()) {
      const auto& r = rounds[next % rounds.size()];
      if (static_cast<int>(r.reconstruct.size() + r.migrate.size()) <
          round_cap) {
        break;
      }
      ++next;
      ++tried;
    }
    if (round_cap > 0 && tried == rounds.size()) {
      rounds.emplace_back();
      next = rounds.size() - 1;
    }
    rounds[next % rounds.size()].migrate.push_back(chunk);
    ++next;
  }
}

}  // namespace

FastPrPlanner::FastPrPlanner(const cluster::StripeLayout& layout,
                             const cluster::ClusterState& cluster,
                             const PlannerOptions& options)
    : layout_(layout),
      cluster_(cluster),
      options_(options),
      batch_(cluster.stf_nodes()) {
  FASTPR_CHECK_MSG(!batch_.empty(), "no STF node flagged in the cluster");
  FASTPR_CHECK(options.k_repair >= 1);
  FASTPR_CHECK(options.chunk_bytes > 0);
  if (options.scenario == Scenario::kHotStandby) {
    // A stripe may lose up to B chunks to the batch, and §IV-A demands
    // they land on B distinct spares — so a hot-standby batch can never
    // exceed the spare count (conceptually each spare replaces one
    // member).
    FASTPR_CHECK_MSG(
        static_cast<size_t>(cluster.num_hot_standby()) >= batch_.size(),
        "hot-standby batch of " << batch_.size() << " needs at least "
                                << batch_.size() << " spares, have "
                                << cluster.num_hot_standby());
  }
}

std::vector<NodeId> FastPrPlanner::source_nodes() const {
  // Healthy storage nodes only — every batch member is flagged, so STF
  // nodes never serve as helpers for each other.
  return cluster_.healthy_storage_nodes();
}

std::vector<NodeId> FastPrPlanner::dest_nodes() const {
  return options_.scenario == Scenario::kScattered
             ? cluster_.healthy_storage_nodes()
             : cluster_.hot_standby_nodes();
}

int FastPrPlanner::scattered_round_capacity(size_t dests) const {
  // Hall bound per stripe across the whole plan: a stripe with b STF
  // chunks excludes its n-b surviving holders plus at most b-1
  // previously used destinations — n-1 total, same as single-STF.
  const int cap =
      static_cast<int>(dests) - (layout_.chunks_per_stripe() - 1);
  FASTPR_CHECK_MSG(cap >= 1,
                   "cluster too small for scattered repair: need M - n >= 1");
  return cap;
}

ReconSetOptions FastPrPlanner::effective_recon_options(size_t dests) const {
  ReconSetOptions opts = options_.recon;
  if (options_.scenario == Scenario::kScattered) {
    const int cap = scattered_round_capacity(dests);
    opts.max_set_size =
        opts.max_set_size > 0 ? std::min(opts.max_set_size, cap) : cap;
  }
  if (opts.topology == nullptr) opts.topology = options_.topology;
  return opts;
}

SchedulerOptions FastPrPlanner::effective_sched_options() const {
  SchedulerOptions sched = options_.sched;
  if (options_.scenario == Scenario::kScattered) {
    sched.max_round_repairs =
        scattered_round_capacity(cluster_.healthy_storage_nodes().size());
  }
  return sched;
}

CostModel FastPrPlanner::model_for(const std::vector<NodeId>& members) const {
  ModelParams params;
  params.num_nodes = cluster_.num_storage_nodes();
  int total = 0;
  for (NodeId s : members) {
    total += static_cast<int>(layout_.chunks_on(s).size());
  }
  params.stf_chunks = std::max(1, total);
  params.chunk_bytes = options_.chunk_bytes;
  params.disk_bw = cluster_.bandwidth().disk_bytes_per_sec;
  params.net_bw = cluster_.bandwidth().net_bytes_per_sec;
  params.k_repair = options_.k_repair;
  params.batch = static_cast<int>(members.size());
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

CostModel FastPrPlanner::cost_model() const { return model_for(batch_); }

std::vector<char> FastPrPlanner::live_mask(
    const std::vector<NodeId>& live) const {
  std::vector<char> mask(
      static_cast<size_t>(std::max(layout_.num_nodes(), cluster_.num_nodes())),
      0);
  for (NodeId node : live) mask[static_cast<size_t>(node)] = 1;
  return mask;
}

bool FastPrPlanner::reaches_helpers(ChunkRef chunk,
                                    const std::vector<char>& live) const {
  const auto& nodes = layout_.stripe_nodes(chunk.stripe);
  int helpers = 0;
  if (options_.code != nullptr) {
    for (int idx : options_.code->helper_candidates(chunk.index)) {
      helpers += live[static_cast<size_t>(nodes[static_cast<size_t>(idx)])];
    }
  } else {
    for (NodeId node : nodes) helpers += live[static_cast<size_t>(node)];
  }
  return helpers >= (options_.code != nullptr
                         ? options_.code->repair_fetch_count(chunk.index)
                         : options_.k_repair);
}

std::vector<ChunkRef> FastPrPlanner::split_forced_migrations(
    std::vector<ChunkRef>& chunks) const {
  // A stripe can lose several chunks to the batch at once; when fewer
  // than k' healthy helpers survive, reconstruction is impossible and
  // the chunk MUST be migrated while its member disk is still alive.
  const auto healthy = live_mask(cluster_.healthy_storage_nodes());
  std::vector<ChunkRef> searchable;
  std::vector<ChunkRef> forced;
  searchable.reserve(chunks.size());
  for (ChunkRef chunk : chunks) {
    (reaches_helpers(chunk, healthy) ? searchable : forced).push_back(chunk);
  }
  chunks.swap(searchable);
  return forced;
}

std::vector<ChunkRef> FastPrPlanner::batch_chunks(
    const std::vector<ChunkRef>& handled) const {
  const std::unordered_set<ChunkRef, cluster::ChunkRefHash> skip(
      handled.begin(), handled.end());
  std::vector<ChunkRef> chunks;
  for (NodeId member : batch_) {
    for (ChunkRef chunk : layout_.chunks_on(member)) {
      if (skip.count(chunk) == 0) chunks.push_back(chunk);
    }
  }
  return chunks;
}

const std::vector<std::vector<ChunkRef>>& FastPrPlanner::recon_sets() {
  if (!sets_ready_) {
    FASTPR_TRACE_SPAN("planner.recon_sets", "planner");
    recon_stats_ = {};
    auto chunks = batch_chunks();
    forced_ = split_forced_migrations(chunks);
    cached_sets_ = find_reconstruction_sets_for(
        std::move(chunks), layout_, source_nodes(), options_.k_repair,
        effective_recon_options(cluster_.healthy_storage_nodes().size()),
        &recon_stats_, options_.code);
    sets_ready_ = true;
  }
  return cached_sets_;
}

RepairPlan FastPrPlanner::empty_plan() const {
  RepairPlan plan;
  plan.stf_nodes = batch_;
  return plan;
}

RepairPlan FastPrPlanner::place(const std::vector<ScheduledRound>& rounds,
                                const std::vector<NodeId>* deprioritized)
    const {
  const auto sources = source_nodes();
  const auto dests = dest_nodes();
  PlacedOverlay placed(batch_chunks());
  int standby_cursor = 0;
  RepairPlan plan = empty_plan();
  plan.rounds.reserve(rounds.size());
  for (const auto& round : rounds) {
    plan.rounds.push_back(assign_round(
        layout_, batch_, sources, dests, options_.scenario,
        options_.k_repair, round, &standby_cursor, options_.code,
        options_.balance_destinations, &placed, options_.topology,
        deprioritized));
  }
  return plan;
}

RepairPlan FastPrPlanner::plan_fastpr() {
  FASTPR_TRACE_SPAN("planner.plan_fastpr", "planner");
  auto sets = recon_sets();  // copy: the scheduler splits sets
  const SchedulerOptions sched = effective_sched_options();
  const auto rounds = [&] {
    FASTPR_TRACE_SPAN("planner.schedule", "planner");
    const auto member_of = [this](ChunkRef chunk) {
      return static_cast<int>(
          std::find(batch_.begin(), batch_.end(), layout_.node_of(chunk)) -
          batch_.begin());
    };
    auto scheduled =
        schedule_repair(std::move(sets), cost_model(), sched, member_of);
    distribute_forced_migrations(scheduled, forced_, sched.max_round_repairs);
    return scheduled;
  }();
  return place(rounds);
}

RepairPlan FastPrPlanner::plan_sequential() {
  FASTPR_TRACE_SPAN("planner.plan_sequential", "planner");
  const auto sources = source_nodes();
  const ReconSetOptions recon =
      effective_recon_options(cluster_.healthy_storage_nodes().size());
  const SchedulerOptions sched = effective_sched_options();
  recon_stats_ = {};
  std::vector<ScheduledRound> rounds;
  for (NodeId stf : batch_) {
    auto chunks = layout_.chunks_on(stf);
    const auto forced = split_forced_migrations(chunks);
    auto sets = find_reconstruction_sets_for(
        std::move(chunks), layout_, sources, options_.k_repair, recon,
        &recon_stats_, options_.code);
    auto member_rounds =
        schedule_repair(std::move(sets), model_for({stf}), sched);
    distribute_forced_migrations(member_rounds, forced,
                                 sched.max_round_repairs);
    rounds.insert(rounds.end(), std::make_move_iterator(member_rounds.begin()),
                  std::make_move_iterator(member_rounds.end()));
  }
  return place(rounds);
}

RepairPlan FastPrPlanner::plan_reconstruction_only() {
  FASTPR_CHECK_MSG(batch_.size() == 1,
                   "reconstruction-only baseline plans one STF node");
  const CostModel model = cost_model();
  std::vector<ScheduledRound> rounds;
  for (const auto& set : recon_sets()) {
    ScheduledRound& round = rounds.emplace_back();
    round.reconstruct = set;
    round.strategy = resolve_strategy(options_.sched.strategy, model,
                                      static_cast<int>(set.size()));
  }
  return place(rounds);
}

RepairPlan FastPrPlanner::plan_migration_only() {
  FASTPR_CHECK_MSG(batch_.size() == 1,
                   "migration-only baseline plans one STF node");
  const auto& chunks = layout_.chunks_on(batch_.front());
  std::vector<ScheduledRound> rounds;
  if (options_.scenario == Scenario::kHotStandby) {
    rounds.emplace_back().migrate = chunks;
    return place(rounds);
  }
  // Scattered: batch into rounds small enough that every batch admits a
  // perfect destination matching. (Rounds do not change migration time —
  // the STF node serializes them anyway.)
  const size_t per_round = static_cast<size_t>(
      scattered_round_capacity(cluster_.healthy_storage_nodes().size()));
  for (size_t start = 0; start < chunks.size(); start += per_round) {
    const size_t end = std::min(chunks.size(), start + per_round);
    rounds.emplace_back().migrate.assign(
        chunks.begin() + static_cast<ptrdiff_t>(start),
        chunks.begin() + static_cast<ptrdiff_t>(end));
  }
  return place(rounds);
}

ReactiveResult FastPrPlanner::plan_reactive(
    const std::vector<ChunkRef>& already_handled,
    const std::vector<NodeId>& failed) {
  ReactiveResult out;
  out.plan = empty_plan();
  const auto lost = batch_chunks(already_handled);
  if (lost.empty()) return out;

  // The dead set: the batch plus everything declared failed during
  // execution (deduplicated, order-stable for determinism). Helpers and
  // destinations come only from the nodes still alive; a dead
  // hot-standby spare cannot absorb chunks either.
  std::vector<NodeId> dead = batch_;
  for (NodeId node : failed) {
    if (std::find(dead.begin(), dead.end(), node) == dead.end()) {
      dead.push_back(node);
    }
  }
  const auto alive = [&](const std::vector<NodeId>& nodes) {
    std::vector<NodeId> kept;
    for (NodeId node : nodes) {
      if (std::find(dead.begin(), dead.end(), node) == dead.end()) {
        kept.push_back(node);
      }
    }
    return kept;
  };
  const auto live = alive(cluster_.healthy_storage_nodes());
  const auto dests = alive(dest_nodes());
  const auto live_nodes = live_mask(live);

  // Chunks whose preferred candidates survived go through Algorithm 1;
  // the rest take the code's degraded path (LRC rebuilds through global
  // parities when a local group is damaged), or are lost.
  std::vector<ChunkRef> matchable;
  std::vector<ReconstructionTask> degraded;
  for (ChunkRef chunk : lost) {
    if (reaches_helpers(chunk, live_nodes)) {
      matchable.push_back(chunk);
      continue;
    }
    if (options_.code != nullptr) {
      const auto& nodes = layout_.stripe_nodes(chunk.stripe);
      std::vector<bool> available(nodes.size());
      for (size_t i = 0; i < nodes.size(); ++i) {
        available[i] = live_nodes[static_cast<size_t>(nodes[i])] != 0;
      }
      try {
        ReconstructionTask task;
        task.chunk = chunk;
        for (int idx : options_.code->repair_helpers(chunk.index,
                                                     available)) {
          task.sources.push_back(
              SourceRead{nodes[static_cast<size_t>(idx)],
                         ChunkRef{chunk.stripe, idx}});
        }
        degraded.push_back(std::move(task));
        continue;
      } catch (const CheckFailure&) {
        // fall through to unrepairable
      }
    }
    out.unrepairable.push_back(chunk);
  }

  // Matched chunks: one round per reconstruction set. The rack
  // destination invariant is best-effort once data is at risk, so
  // placement stays flat (Algorithm 1 keeps the helper rack spreading).
  const auto sets = find_reconstruction_sets_for(
      matchable, layout_, live, options_.k_repair,
      effective_recon_options(dests.size()), nullptr, options_.code);
  PlacedOverlay placed(lost);
  int standby_cursor = 0;
  for (const auto& set : sets) {
    ScheduledRound round;
    round.reconstruct = set;
    out.plan.rounds.push_back(assign_round(
        layout_, dead, live, dests, options_.scenario, options_.k_repair,
        round, &standby_cursor, options_.code,
        /*balance_destinations=*/false, &placed));
  }

  // Degraded chunks: one dedicated round each (their helper sets are
  // hand-picked by the code and may not fit the matching's candidate
  // structure). Destination: the next free spare, or the least-loaded
  // node holding nothing of the stripe.
  for (auto& task : degraded) {
    const cluster::StripeId stripe = task.chunk.stripe;
    if (options_.scenario == Scenario::kHotStandby) {
      task.dst = next_spare(dests, stripe, &standby_cursor, &placed);
    } else {
      for (NodeId node : dests) {
        if (layout_.stripe_uses_node(stripe, node) ||
            placed.used(stripe, node)) {
          continue;
        }
        if (task.dst == cluster::kNoNode ||
            layout_.load(node) < layout_.load(task.dst)) {
          task.dst = node;
        }
      }
      FASTPR_CHECK_MSG(task.dst != cluster::kNoNode,
                       "no destination for degraded repair");
      placed.record(stripe, task.dst);
    }
    ++out.degraded_repairs;
    out.plan.rounds.emplace_back().reconstructions.push_back(std::move(task));
  }
  return out;
}

RepairPlan FastPrPlanner::plan_fastpr_remaining(
    const std::vector<ChunkRef>& already_repaired,
    const std::vector<NodeId>& deprioritized) {
  FASTPR_TRACE_SPAN("planner.plan_fastpr_remaining", "planner");
  FASTPR_CHECK_MSG(batch_.size() == 1,
                   "bandwidth replans cover one STF node");
  std::vector<ChunkRef> remaining = batch_chunks(already_repaired);
  if (remaining.empty()) return empty_plan();

  const auto sources = source_nodes();
  const ReconSetOptions recon = effective_recon_options(sources.size());
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
    std::vector<NodeId> fast_sources;
    for (NodeId node : sources) {
      if (std::find(deprioritized.begin(), deprioritized.end(), node) ==
          deprioritized.end()) {
        fast_sources.push_back(node);
      }
    }
    if (static_cast<int>(fast_sources.size()) >= options_.k_repair) {
      const auto fast = live_mask(fast_sources);
      std::vector<ChunkRef> clean;
      for (ChunkRef chunk : remaining) {
        (reaches_helpers(chunk, fast) ? clean : tainted).push_back(chunk);
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

  const auto rounds = schedule_repair(std::move(sets), cost_model(),
                                      effective_sched_options());
  return place(rounds, &deprioritized);
}

}  // namespace fastpr::core
