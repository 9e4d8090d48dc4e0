#include "agent/coordinator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>

#include "telemetry/metrics.h"
#include "util/check.h"
#include "util/logging.h"

namespace fastpr::agent {

using cluster::ChunkRef;
using cluster::NodeId;
using net::Message;
using net::MessageType;

namespace {

telemetry::Counter& coord_counter(const char* name) {
  return telemetry::MetricsRegistry::global().counter(name);
}

std::string chunk_str(ChunkRef chunk) {
  return "(" + std::to_string(chunk.stripe) + "," +
         std::to_string(chunk.index) + ")";
}

}  // namespace

Coordinator::Coordinator(NodeId id, net::Transport& transport,
                         const ec::ErasureCode& code,
                         const cluster::StripeLayout& layout,
                         const CoordinatorOptions& options)
    : id_(id),
      transport_(transport),
      code_(code),
      layout_(layout),
      options_(options) {
  FASTPR_CHECK(options.chunk_bytes >= 1);
  FASTPR_CHECK(options.packet_bytes >= 1);
  FASTPR_CHECK(options.packet_bytes <= options.chunk_bytes);
  FASTPR_CHECK(options.max_attempts >= 1);
  FASTPR_CHECK(options.max_round_extensions >= 0);
  FASTPR_CHECK(options.stf_failure_threshold >= 1);
}

void Coordinator::issue_task(uint64_t task_id, const PendingTask& task) {
  // One command per attempt, to the destination: it drives the transfer
  // (DESIGN.md §5b). A migration is the one-source fan-in of the STF's
  // own chunk with coefficient 1.
  Message cmd;
  cmd.type = MessageType::kRepairCmd;
  cmd.from = id_;
  cmd.to = task.current_dst();
  cmd.task_id = task_id;
  cmd.attempt = task.attempt;
  cmd.chunk = task.chunk();
  cmd.dst = cmd.to;
  cmd.chunk_bytes = options_.chunk_bytes;
  cmd.packet_bytes = options_.packet_bytes;
  cmd.trace = telemetry::current_trace_context();
  if (task.is_migration) {
    cmd.sources.push_back(net::SourceSpec{task.mig.src, task.mig.chunk, 1});
  } else {
    // Decode coefficients for this helper set; a chain computes the same
    // sum, just associated left-to-right down the hops.
    std::vector<int> helper_indices;
    helper_indices.reserve(task.recon.sources.size());
    for (const auto& src : task.recon.sources) {
      helper_indices.push_back(src.chunk.index);
    }
    const auto coeffs =
        code_.repair_coefficients(task.recon.chunk.index, helper_indices);
    FASTPR_CHECK(coeffs.size() == task.recon.sources.size());
    for (size_t i = 0; i < coeffs.size(); ++i) {
      cmd.sources.push_back(net::SourceSpec{task.recon.sources[i].node,
                                            task.recon.sources[i].chunk,
                                            coeffs[i]});
    }
    if (task.recon.strategy == core::RepairStrategy::kChain) {
      cmd.shape = net::RepairShape::kChain;
      coord_counter("coordinator.chain_tasks").add();
    }
  }
  // fastpr-lint: allow(ack-tracking) — reply tracked via pending_;
  // non-acknowledgement is salvaged by round extensions + probes.
  transport_.send(std::move(cmd));
}

void Coordinator::cancel_attempt(uint64_t task_id, const PendingTask& task,
                                 NodeId keep_dst) {
  // Chain hops hold per-task state (a fan-in source holds none), and a
  // reissued chain re-picks its hop set, so every old hop is torn down
  // along with a destination the task moved off.
  std::vector<NodeId> nodes;
  if (task.current_dst() != keep_dst) nodes.push_back(task.current_dst());
  if (!task.is_migration &&
      task.recon.strategy == core::RepairStrategy::kChain) {
    for (const auto& src : task.recon.sources) nodes.push_back(src.node);
  }
  for (NodeId node : nodes) {
    if (node == cluster::kNoNode) continue;
    Message msg;
    msg.type = MessageType::kCancelTask;
    msg.from = id_;
    msg.to = node;
    msg.task_id = task_id;
    msg.attempt = task.attempt;
    msg.trace = telemetry::current_trace_context();
    // fastpr-lint: allow(ack-tracking) — best-effort tidy-up; superseded
    // agent state also self-cleans via per-packet attempt checks.
    transport_.send(std::move(msg));
  }
}

core::ReconstructionTask Coordinator::fallback_for(
    const core::MigrationTask& task, NodeId stf,
    const std::unordered_set<NodeId>& failed) const {
  core::ReconstructionTask recon;
  recon.chunk = task.chunk;
  recon.dst = task.dst;
  recon.sources = pick_sources(task.chunk, task.dst, stf, failed);
  return recon;
}

std::vector<core::SourceRead> Coordinator::pick_sources(
    ChunkRef chunk, NodeId dst, NodeId stf,
    const std::unordered_set<NodeId>& exclude) const {
  // k helpers from the stripe's other nodes. We cannot use an STF node
  // (it is being retired or its read just failed) or any known-failed
  // node; beyond that any k suffice for RS, and the code object picks
  // valid helpers for LRC (local group first, global parities when the
  // group is depleted). During a batch execution every batch member is
  // off-limits, not just the caller's `stf`.
  const auto& nodes = layout_.stripe_nodes(chunk.stripe);
  std::vector<bool> available(nodes.size(), false);
  for (size_t i = 0; i < nodes.size(); ++i) {
    available[i] = nodes[i] != stf && nodes[i] != dst &&
                   stf_set_.count(nodes[i]) == 0 &&
                   exclude.count(nodes[i]) == 0 &&
                   static_cast<int>(i) != chunk.index;
  }
  const auto helpers = code_.repair_helpers(chunk.index, available);
  std::vector<core::SourceRead> sources;
  sources.reserve(helpers.size());
  for (int h : helpers) {
    sources.push_back(core::SourceRead{
        nodes[static_cast<size_t>(h)], ChunkRef{chunk.stripe, h}});
  }
  return sources;
}

bool Coordinator::needs_rebuild(const PendingTask& task) const {
  const auto bad = [&](NodeId n) {
    return failed_nodes_.count(n) != 0 || task.excluded.count(n) != 0;
  };
  if (task.is_migration) {
    return stf_node_dead(task.mig.src) || bad(task.mig.src) ||
           bad(task.mig.dst);
  }
  if (task.recon.dst == cluster::kNoNode || bad(task.recon.dst)) return true;
  for (const auto& src : task.recon.sources) {
    if (bad(src.node)) return true;
  }
  return false;
}

bool Coordinator::rebuild_task(PendingTask& task, ExecutionReport& report) {
  const auto bad = [&](NodeId n) {
    return failed_nodes_.count(n) != 0 || task.excluded.count(n) != 0;
  };
  if (task.is_migration) {
    const bool stf_gone = stf_node_dead(task.mig.src) || bad(task.mig.src);
    if (!stf_gone) {
      if (bad(task.mig.dst)) {
        const NodeId dst = choose_destination(task.mig.chunk.stripe, task);
        if (dst == cluster::kNoNode) return false;
        task.mig.dst = dst;
      }
      return true;
    }
    // Predictive migration degrades in place to a fallback
    // reconstruction (same task_id, next attempt).
    task.is_migration = false;
    ++report.fallback_reconstructions;
    coord_counter("coordinator.fallbacks").add();
    task.recon.chunk = task.mig.chunk;
    task.recon.dst = task.mig.dst;
    task.recon.sources.clear();
  }
  ChunkRef chunk = task.recon.chunk;
  NodeId dst = task.recon.dst;
  if (dst == cluster::kNoNode || bad(dst)) {
    dst = choose_destination(chunk.stripe, task);
    if (dst == cluster::kNoNode) return false;
  }
  std::unordered_set<NodeId> exclude = task.excluded;
  exclude.insert(failed_nodes_.begin(), failed_nodes_.end());
  try {
    task.recon.sources = pick_sources(chunk, dst, stf_, exclude);
  } catch (const CheckFailure&) {
    return false;  // fewer than k viable chunks left in the stripe
  }
  task.recon.dst = dst;
  return true;
}

NodeId Coordinator::choose_destination(cluster::StripeId stripe,
                                       const PendingTask& task) {
  std::unordered_set<NodeId> in_use;
  for (const auto& [id, p] : pending_) in_use.insert(p.current_dst());

  std::vector<NodeId> pool = options_.dest_candidates;
  if (pool.empty()) {
    pool.resize(static_cast<size_t>(layout_.num_nodes()));
    std::iota(pool.begin(), pool.end(), 0);
  }

  NodeId best = cluster::kNoNode;
  std::pair<int, int> best_key{0, 0};
  for (NodeId n : pool) {
    if (stf_set_.count(n) != 0 || failed_nodes_.count(n) != 0 ||
        task.excluded.count(n) != 0) {
      continue;
    }
    if (layout_.stripe_uses_node(stripe, n)) continue;
    // Spare (hot-standby) ids sit beyond the layout and hold no chunks.
    const int placed = n < layout_.num_nodes() ? layout_.load(n) : 0;
    const std::pair<int, int> key{in_use.count(n) != 0 ? 1 : 0,
                                  placed + extra_dst_load_[n]};
    if (best == cluster::kNoNode || key < best_key) {
      best = n;
      best_key = key;
    }
  }
  if (best != cluster::kNoNode) ++extra_dst_load_[best];
  return best;
}

void Coordinator::start_task(PendingTask task, ExecutionReport& report) {
  const uint64_t id = next_task_id_++;
  if (needs_rebuild(task) && !rebuild_task(task, report)) {
    report.unrepaired.push_back(task.chunk());
    report.errors.push_back("chunk " + chunk_str(task.chunk()) +
                            " unrepaired: no viable helper set");
    coord_counter("coordinator.tasks_abandoned").add();
    return;
  }
  const auto [it, inserted] = pending_.emplace(id, std::move(task));
  FASTPR_CHECK(inserted);
  issue_task(id, it->second);
}

void Coordinator::handle_task_done(const Message& msg,
                                   ExecutionReport& report) {
  const auto it = pending_.find(msg.task_id);
  if (it == pending_.end() || it->second.attempt != msg.attempt) {
    coord_counter("coordinator.stale_acks").add();
    return;
  }
  const PendingTask& task = it->second;
  CompletedRepair done;
  done.chunk = task.chunk();
  done.dst = msg.from;
  done.migrated = task.is_migration;
  done.attempts = static_cast<int>(task.attempt);
  report.completions.push_back(done);
  if (task.is_migration) {
    ++report.migrated;
  } else {
    ++report.reconstructed;
  }
  pending_.erase(it);
}

void Coordinator::handle_task_failed(const Message& msg,
                                     ExecutionReport& report) {
  const auto it = pending_.find(msg.task_id);
  if (it == pending_.end()) return;
  PendingTask& task = it->second;
  // Even a stale failure report names a faulty node; remember it for
  // future attempts of this task.
  if (msg.from != cluster::kNoNode) task.excluded.insert(msg.from);
  if (msg.attempt != task.attempt || task.waiting_retry) return;

  LOG_INFO("coordinator: task " << msg.task_id << " attempt "
                                << msg.attempt << " failed ('" << msg.error
                                << "')");
  if (task.is_migration) {
    // A migration failure is an STF read failure: fall back to
    // reconstruction immediately (the reactive path reads other disks,
    // so no backoff), and count it toward declaring THAT member dead —
    // each batch member's disk fails independently.
    const NodeId src = task.mig.src;
    const int failures = ++stf_failures_by_[src];
    task.excluded.insert(src);
    if (!stf_node_dead(src) &&
        failures >= options_.stf_failure_threshold) {
      declare_stf_dead(src, report);
    }
    reissue_now(msg.task_id, report);
    return;
  }
  schedule_retry(msg.task_id, task);
}

void Coordinator::schedule_retry(uint64_t task_id, PendingTask& task) {
  auto backoff = options_.retry_backoff;
  for (uint32_t i = 1; i < task.attempt; ++i) backoff *= 2;
  task.waiting_retry = true;
  retries_due_.emplace(telemetry::TraceClock::now() + backoff, task_id);
}

void Coordinator::reissue_now(uint64_t task_id, ExecutionReport& report) {
  const auto it = pending_.find(task_id);
  if (it == pending_.end()) return;
  PendingTask& task = it->second;
  if (static_cast<int>(task.attempt) >= options_.max_attempts) {
    abandon(task_id, "attempts exhausted", report);
    return;
  }
  // Attempt-guarded cancels: one carrying the old attempt cannot kill
  // the state a reused node gets from the new attempt.
  const PendingTask old = task;
  ++task.attempt;
  if (!rebuild_task(task, report)) {
    abandon(task_id, "no viable helper set or destination", report);
    return;
  }
  ++report.retries;
  coord_counter("coordinator.retries").add();
  cancel_attempt(task_id, old, task.current_dst());
  issue_task(task_id, task);
}

void Coordinator::abandon(uint64_t task_id, const std::string& reason,
                          ExecutionReport& report) {
  const auto it = pending_.find(task_id);
  if (it == pending_.end()) return;
  const ChunkRef chunk = it->second.chunk();
  report.unrepaired.push_back(chunk);
  report.errors.push_back("chunk " + chunk_str(chunk) +
                          " unrepaired: " + reason);
  coord_counter("coordinator.tasks_abandoned").add();
  cancel_attempt(task_id, it->second, cluster::kNoNode);
  pending_.erase(it);
}

void Coordinator::start_probe(ExecutionReport& report) {
  if (probe_active_) return;
  probe_active_ = true;
  ++probe_epoch_;
  probe_deadline_ = telemetry::TraceClock::now() + options_.probe_timeout;
  probe_sent_us_ = telemetry::trace_now_us();
  probe_outstanding_.clear();
  stragglers_.clear();

  std::unordered_set<NodeId> nodes;
  for (const auto& [id, task] : pending_) {
    if (task.waiting_retry) continue;  // the backoff machinery owns these
    stragglers_.push_back(id);
    collect_task_nodes(task, nodes);
  }
  for (NodeId n : nodes) {
    if (failed_nodes_.count(n) != 0) continue;
    probe_outstanding_[n] = false;
    Message ping;
    ping.type = MessageType::kPing;
    ping.from = id_;
    ping.to = n;
    ping.task_id = probe_epoch_;  // echoed by kPong; matches the probe
    ping.trace = telemetry::current_trace_context();
    // fastpr-lint: allow(ack-tracking) — reply tracked via
    // probe_outstanding_; silence is the signal being measured.
    transport_.send(std::move(ping));
  }
  coord_counter("coordinator.probes").add();
  if (probe_outstanding_.empty()) finish_probe(report);
}

void Coordinator::finish_probe(ExecutionReport& report) {
  probe_active_ = false;
  for (const auto& [node, replied] : probe_outstanding_) {
    if (replied) continue;
    failed_nodes_.insert(node);
    coord_counter("coordinator.nodes_declared_failed").add();
    LOG_INFO("coordinator: node " << node
                                  << " unresponsive to probe; excluded");
    if (stf_set_.count(node) != 0) declare_stf_dead(node, report);
  }
  const std::vector<uint64_t> ids = std::move(stragglers_);
  stragglers_.clear();
  for (uint64_t id : ids) {
    const auto it = pending_.find(id);
    if (it == pending_.end() || it->second.waiting_retry) continue;
    reissue_now(id, report);
  }
}

void Coordinator::declare_stf_dead(NodeId node, ExecutionReport& report) {
  if (stf_node_dead(node)) return;
  stf_dead_set_.insert(node);
  stf_death_round_[node] = current_round_;
  failed_nodes_.insert(node);
  if (!report.degraded_to_reactive) {
    // First member death flips the execution-level degradation flag;
    // later deaths only extend the dead set (surviving members keep
    // their predictive schedule).
    report.degraded_to_reactive = true;
    report.degraded_at_round = current_round_;
    coord_counter("coordinator.degraded_executions").add();
    if (options_.bandwidth_trigger != nullptr) {
      // The predictive schedule this trigger was watching is being
      // replaced by the reactive tail; drift against it is meaningless.
      options_.bandwidth_trigger->disable();
    }
  }
  report.errors.push_back(
      "STF node " + std::to_string(node) + " declared dead in round " +
      std::to_string(current_round_) + "; degrading to reactive repair");
  LOG_INFO("coordinator: STF node "
           << node << " dead; predictive repair degrades to reactive");
}

double Coordinator::task_send_bytes(const PendingTask& task) const {
  // Migration streams the chunk once; a reconstruction (fan-in or
  // chain, which forwards once per hop) moves ~|sources| chunks.
  const double chunk = static_cast<double>(options_.chunk_bytes);
  if (task.is_migration) return chunk;
  return chunk * static_cast<double>(std::max<size_t>(
                     1, task.recon.sources.size()));
}

void Coordinator::lease_tick() {
  if (options_.throttler == nullptr) return;
  const auto grants = options_.throttler->tick(telemetry::trace_now_us());
  for (const auto& grant : grants) {
    Message msg;
    msg.type = MessageType::kLeaseGrant;
    msg.from = id_;
    msg.to = grant.agent;
    msg.task_id = grant.seq;  // lease protocol: seq rides in task_id
    msg.chunk_bytes = static_cast<uint64_t>(std::max(0.0, grant.bytes_per_sec));
    msg.packet_bytes = static_cast<uint64_t>(grant.ttl_us);
    msg.trace = telemetry::current_trace_context();
    // fastpr-lint: allow(ack-tracking) — renewal is the ack: a silent
    // agent's lease expires back into the pool by design.
    transport_.send(std::move(msg));
  }
  next_lease_tick_ = telemetry::TraceClock::now() +
                     std::chrono::microseconds(
                         options_.throttler->lease_ttl_us() / 3);
}

void Coordinator::collect_task_nodes(
    const PendingTask& task, std::unordered_set<NodeId>& out) const {
  if (task.is_migration) {
    out.insert(task.mig.src);
    out.insert(task.mig.dst);
    return;
  }
  out.insert(task.recon.dst);
  for (const auto& src : task.recon.sources) out.insert(src.node);
}

ExecutionReport Coordinator::execute(const core::RepairPlan& plan) {
  using Clock = telemetry::TraceClock;
  // One causal trace per execution: the root context minted here rides
  // in every outgoing command header, so every agent span on every node
  // descends from the execute span below.
  telemetry::ScopedTraceContext trace_root(
      telemetry::make_root_context(static_cast<int>(id_)), id_);
  FASTPR_TRACE_SPAN("coordinator.execute", "coordinator");
  ExecutionReport report;

  pending_.clear();
  retries_due_.clear();
  failed_nodes_.clear();
  extra_dst_load_.clear();
  stragglers_.clear();
  FASTPR_CHECK_MSG(!plan.stf_nodes.empty(), "plan names no STF node");
  stf_batch_ = plan.stf_nodes;
  stf_ = stf_batch_.front();
  stf_set_.clear();
  stf_set_.insert(stf_batch_.begin(), stf_batch_.end());
  stf_dead_set_.clear();
  stf_death_round_.clear();
  stf_failures_by_.clear();
  probe_active_ = false;

  // The tail of the schedule is mutable: when the STF dies mid-repair,
  // the replan hook replaces the remaining rounds with a reactive plan.
  std::vector<core::RepairRound> rounds = plan.rounds;
  bool replanned = false;

  // Estimated repair send bytes of a schedule tail — the denominator of
  // the throttler's finish-time (panic) estimate.
  const auto rounds_send_bytes = [&](const std::vector<core::RepairRound>& rs,
                                     size_t from_idx) {
    double bytes = 0;
    const double chunk = static_cast<double>(options_.chunk_bytes);
    for (size_t i = from_idx; i < rs.size(); ++i) {
      for (const auto& t : rs[i].reconstructions) {
        bytes += chunk * static_cast<double>(
                             std::max<size_t>(1, t.sources.size()));
      }
      bytes += chunk * static_cast<double>(rs[i].migrations.size());
    }
    return bytes;
  };

  if (options_.throttler != nullptr) {
    options_.throttler->reset(telemetry::trace_now_us(),
                              rounds_send_bytes(rounds, 0));
    if (options_.stf_deadline_seconds > 0) {
      options_.throttler->set_deadline(
          telemetry::trace_now_us() +
          static_cast<int64_t>(options_.stf_deadline_seconds * 1e6));
    }
    // Initial grants before any data flows, so round 1 repair traffic
    // starts under leased budget instead of a floor-rate stall.
    lease_tick();
  }

  for (size_t round_idx = 0; round_idx < rounds.size(); ++round_idx) {
    const core::RepairRound round = rounds[round_idx];
    current_round_ = static_cast<int>(round_idx) + 1;
    FASTPR_TRACE_SPAN("coordinator.round", "coordinator",
                      static_cast<int64_t>(current_round_), "round");
    const auto round_start = Clock::now();
    auto deadline = round_start + options_.round_timeout;
    int extensions_left = options_.max_round_extensions;
    const int round_migrated_before = report.migrated;
    const int round_recon_before = report.reconstructed;
    const int round_fallbacks_before = report.fallback_reconstructions;
    const int round_retries_before = report.retries;
    // Measured phase times in the paper's vocabulary: time from round
    // start to the LAST reconstruction (tr) / migration (tm) completion.
    // 0 when the round ran none of that phase.
    double round_tr = 0;
    double round_tm = 0;
    retries_due_.clear();

    for (const auto& task : round.reconstructions) {
      PendingTask pending;
      pending.is_migration = false;
      pending.recon = task;
      start_task(std::move(pending), report);
    }
    for (const auto& task : round.migrations) {
      PendingTask pending;
      pending.is_migration = true;
      pending.mig = task;
      start_task(std::move(pending), report);
    }

    while (!pending_.empty()) {
      auto now = Clock::now();

      // Fire retries that have served their backoff.
      while (!retries_due_.empty() && retries_due_.begin()->first <= now) {
        const uint64_t id = retries_due_.begin()->second;
        retries_due_.erase(retries_due_.begin());
        const auto it = pending_.find(id);
        if (it == pending_.end() || !it->second.waiting_retry) continue;
        it->second.waiting_retry = false;
        reissue_now(id, report);
      }

      // Resolve an outstanding probe (everyone answered, or timed out).
      if (probe_active_) {
        bool all_replied = true;
        for (const auto& [node, replied] : probe_outstanding_) {
          all_replied = all_replied && replied;
        }
        if (all_replied || now >= probe_deadline_) finish_probe(report);
      }
      // Lease cadence: re-grant every ttl/3 so healthy leases renew
      // well before expiring and pressure shifts re-shape shares fast.
      if (options_.throttler != nullptr && now >= next_lease_tick_) {
        lease_tick();
      }
      if (pending_.empty()) break;

      now = Clock::now();
      if (now >= deadline) {
        if (extensions_left > 0) {
          --extensions_left;
          ++report.round_extensions;
          coord_counter("coordinator.round_extensions").add();
          deadline = now + options_.round_timeout;
          LOG_INFO("coordinator: round " << current_round_ << " stalled ("
                                         << pending_.size()
                                         << " tasks); extending + probing");
          // Salvage what completed; probe the stragglers' nodes, then
          // reissue them with confirmed-dead nodes excluded.
          start_probe(report);
        } else {
          report.errors.push_back(
              "round " + std::to_string(current_round_) +
              " timed out with " + std::to_string(pending_.size()) +
              " tasks outstanding");
          std::vector<uint64_t> ids;
          ids.reserve(pending_.size());
          for (const auto& [id, task] : pending_) ids.push_back(id);
          std::sort(ids.begin(), ids.end());
          for (uint64_t id : ids) abandon(id, "round timed out", report);
          retries_due_.clear();
          break;
        }
        continue;
      }

      auto next_event = deadline;
      if (probe_active_ && probe_deadline_ < next_event) {
        next_event = probe_deadline_;
      }
      if (!retries_due_.empty() &&
          retries_due_.begin()->first < next_event) {
        next_event = retries_due_.begin()->first;
      }
      if (options_.throttler != nullptr && next_lease_tick_ < next_event) {
        next_event = next_lease_tick_;
      }
      auto budget = std::chrono::duration_cast<std::chrono::milliseconds>(
          next_event - now);
      if (budget < std::chrono::milliseconds(1)) {
        budget = std::chrono::milliseconds(1);
      }
      auto msg = transport_.recv(id_, budget);
      if (!msg.has_value()) continue;  // timeout tick; loop re-checks

      switch (msg->type) {
        case MessageType::kTaskDone: {
          const auto pit = pending_.find(msg->task_id);
          const bool counted =
              pit != pending_.end() && pit->second.attempt == msg->attempt;
          const bool was_migration = counted && pit->second.is_migration;
          if (counted && options_.throttler != nullptr) {
            options_.throttler->on_progress(task_send_bytes(pit->second));
          }
          handle_task_done(*msg, report);
          if (counted) {
            const double t = std::chrono::duration<double>(Clock::now() -
                                                           round_start)
                                 .count();
            (was_migration ? round_tm : round_tr) = t;
          }
          break;
        }
        case MessageType::kTaskFailed:
          handle_task_failed(*msg, report);
          break;
        case MessageType::kPong:
          if (msg->task_id == probe_epoch_ &&
              msg->trace.origin_ts_us != 0) {
            // The pong carries the agent's local clock at reply time;
            // paired with this epoch's send time it yields one
            // clock-offset sample (clock_sync.h).
            clock_sync_.record(msg->from, probe_sent_us_,
                               msg->trace.origin_ts_us,
                               telemetry::trace_now_us());
          }
          if (probe_active_ && msg->task_id == probe_epoch_) {
            const auto it = probe_outstanding_.find(msg->from);
            if (it != probe_outstanding_.end()) it->second = true;
          }
          if (options_.throttler != nullptr) {
            // Lease renewal piggybacks on the probe epoch: the pong's
            // chunk_bytes/packet_bytes carry the agent's foreground
            // pressure (p99 ns, fg bytes/s).
            options_.throttler->report_pressure(
                msg->from, msg->task_id,
                // ns→s wire decode, not a config. fastpr-lint: allow(units)
                static_cast<double>(msg->chunk_bytes) / 1e9,
                static_cast<double>(msg->packet_bytes),
                telemetry::trace_now_us());
          }
          break;
        case MessageType::kPressureReport:
          if (options_.throttler != nullptr) {
            options_.throttler->report_pressure(
                msg->from, msg->task_id,
                // ns→s wire decode, not a config. fastpr-lint: allow(units)
                static_cast<double>(msg->chunk_bytes) / 1e9,
                static_cast<double>(msg->packet_bytes),
                telemetry::trace_now_us());
          }
          break;
        default:
          break;  // stray message; ignore
      }
    }

    const double secs =
        std::chrono::duration<double>(Clock::now() - round_start).count();
    report.round_seconds.push_back(secs);
    report.total_seconds += secs;

    telemetry::RepairRoundStats stats;
    stats.round = current_round_;
    stats.cr = report.reconstructed - round_recon_before;
    stats.cm = report.migrated - round_migrated_before;
    stats.fallbacks =
        report.fallback_reconstructions - round_fallbacks_before;
    stats.retries = report.retries - round_retries_before;
    stats.bytes_reconstructed =
        static_cast<int64_t>(stats.cr) *
        static_cast<int64_t>(options_.chunk_bytes);
    stats.bytes_migrated = static_cast<int64_t>(stats.cm) *
                           static_cast<int64_t>(options_.chunk_bytes);
    stats.duration_seconds = secs;
    stats.tr_seconds = round_tr;
    stats.tm_seconds = round_tm;
    report.repair.rounds.push_back(stats);
    report.repair.total_seconds = report.total_seconds;

    // STF death: replace the remaining schedule with a reactive plan
    // over everything not yet handled. One replan per execution — the
    // reactive tail already avoids every node known dead, and later
    // individual failures are covered by the retry machinery. Batch
    // executions never take this path: one member's death must not
    // reshuffle the other members' still-valid predictive rounds, so
    // only the dead member's tasks convert (via rebuild_task) as their
    // rounds come up.
    if (stf_batch_.size() == 1 && stf_node_dead(stf_) && !replanned &&
        options_.replan) {
      replanned = true;
      ++report.replans;
      coord_counter("coordinator.replans").add();
      ReplanRequest request;
      request.handled.reserve(report.completions.size() +
                              report.unrepaired.size());
      for (const auto& done : report.completions) {
        request.handled.push_back(done.chunk);
      }
      for (const auto& chunk : report.unrepaired) {
        request.handled.push_back(chunk);
      }
      request.failed_nodes.assign(failed_nodes_.begin(),
                                  failed_nodes_.end());
      std::sort(request.failed_nodes.begin(), request.failed_nodes.end());
      core::ReactiveResult result = options_.replan(request);
      rounds.resize(round_idx + 1);
      for (auto& extra : result.plan.rounds) {
        rounds.push_back(std::move(extra));
      }
      for (const auto& chunk : result.unrepairable) {
        report.unrepaired.push_back(chunk);
        report.errors.push_back("chunk " + chunk_str(chunk) +
                                " unrepaired: fewer than k live chunks "
                                "after STF death");
      }
    }

    // Bandwidth drift: fold this round's worst measured/expected link
    // ratio into the hysteresis trigger; when it fires, the remaining
    // rounds are re-derived around the degraded links (DESIGN.md §11) —
    // the bandwidth analog of the STF-death replan above, but the
    // replacement tail is still predictive and may fire more than once
    // (bounded by the trigger's max_replans). Skipped once degraded
    // (the reactive tail is no longer the plan the ratios price) and
    // for batch executions (the hook replans one member's chunks; a
    // joint reshuffle would invalidate the others' still-valid rounds).
    if (stf_batch_.size() == 1 && options_.bandwidth_trigger != nullptr &&
        options_.flow_monitor != nullptr && options_.bandwidth_replan &&
        !report.degraded_to_reactive && round_idx + 1 < rounds.size()) {
      double worst = std::numeric_limits<double>::infinity();
      std::vector<NodeId> slow;
      for (const auto& link : options_.flow_monitor->snapshot()) {
        if (link.expected_bytes_per_sec <= 0 ||
            link.ewma_bytes_per_sec <= 0) {
          continue;  // unpriced or idle link: no drift signal
        }
        worst = std::min(worst, link.ewma_bytes_per_sec /
                                    link.expected_bytes_per_sec);
        if (link.straggler) slow.push_back(link.src);
      }
      if (std::isfinite(worst) &&
          options_.bandwidth_trigger->feed(current_round_, worst)) {
        ++report.replans;
        ++report.bandwidth_replans;
        coord_counter("coordinator.bandwidth_replans").add();
        BandwidthReplanRequest request;
        request.worst_ratio = worst;
        request.handled.reserve(report.completions.size() +
                                report.unrepaired.size());
        for (const auto& done : report.completions) {
          request.handled.push_back(done.chunk);
        }
        for (const auto& chunk : report.unrepaired) {
          request.handled.push_back(chunk);
        }
        request.failed_nodes.assign(failed_nodes_.begin(),
                                    failed_nodes_.end());
        std::sort(request.failed_nodes.begin(),
                  request.failed_nodes.end());
        std::sort(slow.begin(), slow.end());
        slow.erase(std::unique(slow.begin(), slow.end()), slow.end());
        request.slow_nodes = std::move(slow);
        LOG_INFO("coordinator: bandwidth replan after round "
                 << current_round_ << " (worst link ratio " << worst
                 << ", " << request.slow_nodes.size()
                 << " straggler nodes)");
        core::RepairPlan tail = options_.bandwidth_replan(request);
        rounds.resize(round_idx + 1);
        for (auto& extra : tail.rounds) {
          rounds.push_back(std::move(extra));
        }
      }
    }

    // Re-sync the throttler's outstanding-bytes estimate with the (by
    // now possibly replanned) schedule tail, so drift from fallbacks
    // and retries never skews the panic predicate.
    if (options_.throttler != nullptr) {
      options_.throttler->set_remaining(
          rounds_send_bytes(rounds, round_idx + 1));
    }
  }

  report.failed_nodes.assign(failed_nodes_.begin(), failed_nodes_.end());
  std::sort(report.failed_nodes.begin(), report.failed_nodes.end());
  report.success = report.unrepaired.empty();
  report.repair.degraded_at_round = report.degraded_at_round;
  if (options_.throttler != nullptr) {
    report.throttled = true;
    report.throttle = options_.throttler->stats();
  }

  // Per-member progress, chunk ownership resolved via the pre-repair
  // layout (fallback reconstructions count as reconstructed — the
  // completion records how the chunk was actually repaired).
  std::unordered_map<NodeId, StfProgress> progress;
  for (NodeId s : stf_batch_) {
    StfProgress p;
    p.stf = s;
    p.died = stf_node_dead(s);
    const auto round_it = stf_death_round_.find(s);
    p.died_at_round = round_it == stf_death_round_.end() ? 0
                                                         : round_it->second;
    progress.emplace(s, p);
  }
  const auto owner_progress = [&](ChunkRef chunk) -> StfProgress* {
    const auto it = progress.find(layout_.node_of(chunk));
    return it == progress.end() ? nullptr : &it->second;
  };
  for (const auto& round : plan.rounds) {
    for (const auto& task : round.reconstructions) {
      if (auto* p = owner_progress(task.chunk)) ++p->planned;
    }
    for (const auto& task : round.migrations) {
      if (auto* p = owner_progress(task.chunk)) ++p->planned;
    }
  }
  for (const auto& done : report.completions) {
    if (auto* p = owner_progress(done.chunk)) {
      if (done.migrated) {
        ++p->migrated;
      } else {
        ++p->reconstructed;
      }
    }
  }
  for (const auto& chunk : report.unrepaired) {
    if (auto* p = owner_progress(chunk)) ++p->unrepaired;
  }
  for (NodeId s : stf_batch_) {
    report.stf_progress.push_back(progress.at(s));
  }
  if (stf_batch_.size() > 1) {
    for (const auto& p : report.stf_progress) {
      telemetry::StfRepairStats stats;
      stats.stf = static_cast<int>(p.stf);
      stats.planned = p.planned;
      stats.migrated = p.migrated;
      stats.reconstructed = p.reconstructed;
      stats.unrepaired = p.unrepaired;
      stats.died_at_round = p.died_at_round;
      report.repair.per_stf.push_back(stats);
    }
  }
  return report;
}

}  // namespace fastpr::agent
