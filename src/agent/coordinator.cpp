#include "agent/coordinator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/placement.h"
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

void Coordinator::issue_task(uint64_t task_id, PendingTask& task) {
  // One command per attempt, to the destination: it drives the transfer
  // (DESIGN.md §5b).
  const core::ReconstructionTask& t = task.transfer;
  Message cmd;
  cmd.type = MessageType::kRepairCmd;
  cmd.from = id_;
  cmd.to = t.dst;
  cmd.task_id = task_id;
  cmd.attempt = task.attempt;
  cmd.chunk = t.chunk;
  cmd.dst = cmd.to;
  cmd.chunk_bytes = options_.chunk_bytes;
  cmd.packet_bytes = options_.packet_bytes;
  cmd.trace = telemetry::current_trace_context();
  // A migration copies the STF's own chunk at coefficient 1. Otherwise
  // the code supplies decode coefficients for this helper set; a chain
  // computes the same sum, just associated left-to-right down the hops.
  std::vector<uint8_t> coeffs{1};
  if (!task.migration) {
    std::vector<int> helper_indices;
    helper_indices.reserve(t.sources.size());
    for (const auto& src : t.sources) helper_indices.push_back(src.chunk.index);
    coeffs = code_.repair_coefficients(t.chunk.index, helper_indices);
  }
  FASTPR_CHECK(coeffs.size() == t.sources.size());
  for (size_t i = 0; i < coeffs.size(); ++i) {
    cmd.sources.push_back(
        net::SourceSpec{t.sources[i].node, t.sources[i].chunk, coeffs[i]});
  }
  if (t.strategy == core::RepairStrategy::kChain) {
    cmd.shape = net::RepairShape::kChain;
    coord_counter("coordinator.chain_tasks").add();
  }
  task.issued = telemetry::TraceClock::now();
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
  if (task.transfer.dst != keep_dst) nodes.push_back(task.transfer.dst);
  if (task.transfer.strategy == core::RepairStrategy::kChain) {
    for (const auto& src : task.transfer.sources) nodes.push_back(src.node);
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

std::optional<std::vector<core::SourceRead>> Coordinator::pick_sources(
    ChunkRef chunk, NodeId dst,
    const std::unordered_set<NodeId>& exclude) const {
  // k helpers from the stripe's other nodes. We cannot use an STF batch
  // member (it is being retired or its read just failed) or any
  // known-failed node; beyond that any k suffice for RS, and the code
  // object picks valid helpers for LRC (local group first, global
  // parities when the group is depleted).
  return core::pick_helpers(
      code_, chunk, layout_.stripe_nodes(chunk.stripe), [&](NodeId node) {
        return node != dst && stf_set_.count(node) == 0 &&
               exclude.count(node) == 0;
      });
}

// A dead STF node is also in failed_nodes_, so "bad" covers both.
bool Coordinator::needs_rebuild(const PendingTask& task) const {
  const auto bad = [&](NodeId n) {
    return failed_nodes_.count(n) != 0 || task.excluded.count(n) != 0;
  };
  if (task.transfer.dst == cluster::kNoNode || bad(task.transfer.dst)) {
    return true;
  }
  for (const auto& src : task.transfer.sources) {
    if (bad(src.node)) return true;
  }
  return false;
}

bool Coordinator::rebuild_task(PendingTask& task, ExecutionReport& report) {
  const auto bad = [&](NodeId n) {
    return failed_nodes_.count(n) != 0 || task.excluded.count(n) != 0;
  };
  core::ReconstructionTask& t = task.transfer;
  if (task.migration && bad(t.sources.front().node)) {
    // Predictive migration degrades in place to a fallback
    // reconstruction (same task_id, next attempt).
    task.migration = false;
    ++report.fallback_reconstructions;
    coord_counter("coordinator.fallbacks").add();
  }
  NodeId dst = t.dst;
  if (dst == cluster::kNoNode || bad(dst)) {
    dst = choose_destination(task, nullptr);
    if (dst == cluster::kNoNode) return false;
    ledger_->place(t.chunk, dst);
  }
  // A live STF keeps serving its own chunk; a reconstruction re-picks
  // helpers around every known-bad node.
  if (!task.migration) {
    std::unordered_set<NodeId> exclude = task.excluded;
    exclude.insert(failed_nodes_.begin(), failed_nodes_.end());
    auto sources = pick_sources(t.chunk, dst, exclude);
    if (!sources.has_value()) return false;  // too few viable chunks left
    t.sources = std::move(*sources);
  }
  t.dst = dst;
  return true;
}

NodeId Coordinator::choose_destination(
    const PendingTask& task, const std::unordered_set<NodeId>* busy) {
  std::unordered_set<NodeId> in_use;
  for (const auto& [id, p] : pending_) in_use.insert(p.transfer.dst);

  std::vector<NodeId> pool = options_.dest_candidates;
  if (pool.empty()) {
    pool.resize(static_cast<size_t>(layout_.num_nodes()));
    std::iota(pool.begin(), pool.end(), 0);
  }
  // Spare (hot-standby) ids sit beyond the layout and hold no chunks.
  const auto spare = [&](NodeId n) { return n >= layout_.num_nodes(); };

  NodeId best = cluster::kNoNode;
  std::pair<int, int> best_key{0, 0};
  for (NodeId n : pool) {
    if (stf_set_.count(n) != 0 || failed_nodes_.count(n) != 0 ||
        task.excluded.count(n) != 0 ||
        !ledger_->allows(task.transfer.chunk, n)) {
      continue;
    }
    if (busy != nullptr &&
        (busy->count(n) != 0 || spare(n) != spare(task.transfer.dst))) {
      continue;
    }
    const int placed = spare(n) ? 0 : layout_.load(n);
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

void Coordinator::pull(std::vector<core::RepairRound>& rounds,
                       size_t round_idx, ExecutionReport& report) {
  if (pullers_.empty()) return;
  bool reconstructing = false;
  std::unordered_set<NodeId> migrating;  // members with a migration out
  std::unordered_set<NodeId> busy;       // every in-flight task's nodes
  for (const auto& [id, task] : pending_) {
    if (task.migration) {
      migrating.insert(task.transfer.sources.front().node);
    } else {
      reconstructing = true;
    }
    collect_task_nodes(task, busy);
  }
  if (!reconstructing) return;

  for (NodeId member : pullers_) {
    if (stf_node_dead(member) || migrating.count(member) != 0) continue;
    // The member's next planned migration in Algorithm 2's order, else
    // the last of its chunks that the latest remaining round would
    // reconstruct: stealing from the tail is what removes rounds.
    size_t from = rounds.size();
    ChunkRef chunk;
    NodeId planned_dst = cluster::kNoNode;
    for (size_t r = round_idx + 1; r < rounds.size() && from == rounds.size();
         ++r) {
      for (const auto& mig : rounds[r].migrations) {
        if (mig.src != member) continue;
        from = r;
        chunk = mig.chunk;
        planned_dst = mig.dst;
        break;
      }
    }
    for (size_t r = rounds.size(); r > round_idx + 1 && from == rounds.size();
         --r) {
      const auto& recons = rounds[r - 1].reconstructions;
      for (auto it = recons.rbegin(); it != recons.rend(); ++it) {
        if (layout_.node_of(it->chunk) != member) continue;
        from = r - 1;
        chunk = it->chunk;
        planned_dst = it->dst;
        break;
      }
    }
    if (from == rounds.size()) continue;  // nothing left to pull

    PendingTask task;
    task.transfer = {chunk, {{member, chunk}}, planned_dst};
    task.migration = true;
    task.barrier = false;
    task.planned_round = static_cast<int>(from) + 1;
    task.executed_round = current_round_;
    // The planned destination if it is idle, else an idle node of its
    // class: a pull that shares a busy node's disk stretches its round.
    if (busy.count(planned_dst) != 0 ||
        failed_nodes_.count(planned_dst) != 0 ||
        !ledger_->allows(chunk, planned_dst)) {
      task.transfer.dst = choose_destination(task, &busy);
      if (task.transfer.dst == cluster::kNoNode) continue;  // pull later
    }
    auto& round = rounds[from];
    std::erase_if(round.migrations, [&](const core::MigrationTask& m) {
      return m.chunk == chunk;
    });
    std::erase_if(round.reconstructions,
                  [&](const core::ReconstructionTask& t) {
                    return t.chunk == chunk;
                  });
    ledger_->place(chunk, task.transfer.dst);
    migrating.insert(member);
    collect_task_nodes(task, busy);
    coord_counter("coordinator.pulled_migrations").add();
    start_task(std::move(task), report);
  }
}

void Coordinator::start_task(PendingTask task, ExecutionReport& report) {
  const uint64_t id = next_task_id_++;
  if (needs_rebuild(task) && !rebuild_task(task, report)) {
    report.unrepaired.push_back(task.transfer.chunk);
    report.errors.push_back("chunk " + chunk_str(task.transfer.chunk) +
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
  if (options_.throttler != nullptr) {
    options_.throttler->on_progress(send_bytes(task.transfer.sources.size()));
  }
  const auto since_start = [&](telemetry::TraceClock::time_point t) {
    return std::chrono::duration<double>(t - execute_start_).count();
  };
  CompletedRepair done;
  done.chunk = task.transfer.chunk;
  done.dst = msg.from;
  done.migrated = task.migration;
  done.attempts = static_cast<int>(task.attempt);
  done.planned_round = task.planned_round;
  done.executed_round = task.executed_round;
  done.start_seconds = since_start(task.issued);
  done.finish_seconds = since_start(telemetry::TraceClock::now());
  report.completions.push_back(done);
  ++(task.migration ? report.migrated : report.reconstructed);
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
  if (task.migration) {
    // A migration failure is an STF read failure: fall back to
    // reconstruction immediately (the reactive path reads other disks,
    // so no backoff), and count it toward declaring THAT member dead —
    // each batch member's disk fails independently.
    const NodeId src = task.transfer.sources.front().node;
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
  cancel_attempt(task_id, old, task.transfer.dst);
  issue_task(task_id, task);
}

void Coordinator::abandon(uint64_t task_id, const std::string& reason,
                          ExecutionReport& report) {
  const auto it = pending_.find(task_id);
  if (it == pending_.end()) return;
  const ChunkRef chunk = it->second.transfer.chunk;
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
  stf_death_round_[node] = current_round_;
  failed_nodes_.insert(node);
  if (!report.degraded_to_reactive) {
    // First member death flips the execution-level degradation flag;
    // later deaths only extend the dead set (surviving members keep
    // their predictive schedule).
    report.degraded_to_reactive = true;
    report.repair.degraded_at_round = current_round_;
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

double Coordinator::send_bytes(size_t sources) const {
  // Every source streams the chunk once: a migration is one source, a
  // reconstruction (fan-in, or a chain forwarding once per hop) moves
  // ~|sources| chunks.
  return static_cast<double>(options_.chunk_bytes) *
         static_cast<double>(std::max<size_t>(1, sources));
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
                         core::kLeaseTtlUs / 3);
}

void Coordinator::collect_task_nodes(
    const PendingTask& task, std::unordered_set<NodeId>& out) const {
  out.insert(task.transfer.dst);
  for (const auto& src : task.transfer.sources) out.insert(src.node);
}

ExecutionReport Coordinator::execute(const core::RepairPlan& plan,
                                     const ReplanFn& replan) {
  using Clock = telemetry::TraceClock;
  // One causal trace per execution: the root context minted here rides
  // in every outgoing command header, so every agent span on every node
  // descends from the execute span below.
  telemetry::ScopedTraceContext trace_root(
      telemetry::make_root_context(static_cast<int>(id_)), id_);
  FASTPR_TRACE_SPAN("coordinator.execute", "coordinator");
  ExecutionReport report;
  execute_start_ = Clock::now();

  pending_.clear();
  retries_due_.clear();
  failed_nodes_.clear();
  extra_dst_load_.clear();
  stragglers_.clear();
  FASTPR_CHECK_MSG(!plan.stf_nodes.empty(), "plan names no STF node");
  stf_set_.clear();
  stf_set_.insert(plan.stf_nodes.begin(), plan.stf_nodes.end());
  stf_death_round_.clear();
  stf_failures_by_.clear();
  probe_active_ = false;
  pullers_.clear();
  for (NodeId member : plan.stf_nodes) {
    for (const auto& round : plan.rounds) {
      if (std::any_of(round.migrations.begin(), round.migrations.end(),
                      [&](const auto& m) { return m.src == member; })) {
        pullers_.push_back(member);
        break;
      }
    }
  }
  // Replanning re-derives the whole tail, so only a single-STF execution
  // replans: in a batch, one member's death or a slow link must not
  // reshuffle the other members' still-valid rounds — only the dead
  // member's tasks convert (via rebuild_task) as their rounds come up.
  const bool may_replan = replan && plan.stf_nodes.size() == 1;
  const NodeId stf = plan.stf_nodes.front();

  // The tail of the schedule is mutable: pulls take tasks out of it and
  // the replan hook replaces the rounds after the current one.
  std::vector<core::RepairRound> rounds = plan.rounds;
  bool replanned_reactive = false;
  ledger_.emplace(layout_, plan.stf_nodes, layout_.num_nodes(),
                  options_.topology);
  const auto record_destinations = [&](size_t from_idx) {
    for (size_t i = from_idx; i < rounds.size(); ++i) {
      for (const auto& t : rounds[i].migrations) ledger_->place(t.chunk, t.dst);
      for (const auto& t : rounds[i].reconstructions) {
        ledger_->place(t.chunk, t.dst);
      }
    }
  };
  record_destinations(0);

  // Estimated repair send bytes of a schedule tail — the denominator of
  // the throttler's finish-time (panic) estimate. Pulled tasks have left
  // the tail, so they are not counted twice.
  const auto rounds_send_bytes = [&](size_t from_idx) {
    double bytes = 0;
    for (size_t i = from_idx; i < rounds.size(); ++i) {
      for (const auto& t : rounds[i].reconstructions) {
        bytes += send_bytes(t.sources.size());
      }
      bytes += send_bytes(1) * static_cast<double>(rounds[i].migrations.size());
    }
    return bytes;
  };
  const auto empty_round = [&](size_t idx) {
    return rounds[idx].reconstructions.empty() &&
           rounds[idx].migrations.empty();
  };
  const auto last_round = [&](size_t idx) {
    for (size_t i = idx + 1; i < rounds.size(); ++i) {
      if (!empty_round(i)) return false;
    }
    return true;
  };

  if (options_.throttler != nullptr) {
    options_.throttler->reset(telemetry::trace_now_us(), rounds_send_bytes(0));
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
    if (empty_round(round_idx)) continue;  // pulls took all its tasks
    current_round_ = static_cast<int>(round_idx) + 1;
    FASTPR_TRACE_SPAN("coordinator.round", "coordinator",
                      static_cast<int64_t>(current_round_), "round");
    const auto round_start = Clock::now();
    auto deadline = round_start + options_.round_timeout;
    int extensions_left = options_.max_round_extensions;
    const int round_fallbacks_before = report.fallback_reconstructions;
    const int round_retries_before = report.retries;

    const auto start_planned = [&](core::ReconstructionTask transfer,
                                   bool migration) {
      PendingTask pending;
      pending.transfer = std::move(transfer);
      pending.migration = migration;
      pending.planned_round = pending.executed_round = current_round_;
      start_task(std::move(pending), report);
    };
    for (const auto& task : rounds[round_idx].reconstructions) {
      start_planned(task, false);
    }
    // A migration is the one-source transfer of the STF's own chunk.
    for (const auto& mig : rounds[round_idx].migrations) {
      start_planned({mig.chunk, {{mig.src, mig.chunk}}, mig.dst}, true);
    }
    pull(rounds, round_idx, report);

    // The round waits for what it issued at its start; the last round
    // also drains every pulled migration still in flight.
    const auto waiting = [&] {
      if (last_round(round_idx)) return !pending_.empty();
      return std::any_of(pending_.begin(), pending_.end(),
                         [](const auto& entry) { return entry.second.barrier; });
    };
    const auto serve = [&] {
      while (waiting()) {
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
        if (!waiting()) break;

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
          case MessageType::kTaskDone:
            handle_task_done(*msg, report);
            break;
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
            // Lease renewal piggybacks on the probe epoch: a pong carries
            // the agent's foreground pressure exactly as a pressure
            // report does.
            [[fallthrough]];
          case MessageType::kPressureReport:
            if (options_.throttler != nullptr) {
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
          default:
            break;  // stray message; ignore
        }
        pull(rounds, round_idx, report);
      }
    };
    serve();

    // Replan the tail after this round (DESIGN.md §7, §11). The STF's
    // death replans once, as pure reactive repair over everything not
    // yet handled: that tail already avoids every node known dead, and
    // later individual failures are covered by the retry machinery.
    // Otherwise this round's worst measured/expected link ratio feeds the
    // hysteresis trigger; when it fires, the still-predictive tail is
    // re-derived around the straggler links, as often as the trigger's
    // max_replans admits. declare_stf_dead disarms the trigger: the
    // reactive tail is not the plan the ratios price.
    ReplanRequest request;
    bool fire = false;
    double replan_seconds = 0;  // planning, not repair: left out of the round
    if (may_replan && stf_node_dead(stf) && !replanned_reactive) {
      fire = replanned_reactive = true;
      ++report.replans;
      coord_counter("coordinator.replans").add();
    } else if (may_replan && options_.bandwidth_trigger != nullptr &&
               options_.flow_monitor != nullptr && !last_round(round_idx)) {
      auto& slow = request.slow_nodes;
      double worst = std::numeric_limits<double>::infinity();
      for (const auto& link : options_.flow_monitor->snapshot()) {
        if (link.expected_bytes_per_sec <= 0 ||
            link.ewma_bytes_per_sec <= 0) {
          continue;  // unpriced or idle link: no drift signal
        }
        worst = std::min(worst, link.ewma_bytes_per_sec /
                                    link.expected_bytes_per_sec);
        if (link.straggler) slow.push_back(link.src);
      }
      fire = std::isfinite(worst) &&
             options_.bandwidth_trigger->feed(current_round_, worst);
      if (fire) {
        ++report.replans;
        ++report.bandwidth_replans;
        coord_counter("coordinator.bandwidth_replans").add();
        std::sort(slow.begin(), slow.end());
        slow.erase(std::unique(slow.begin(), slow.end()), slow.end());
        LOG_INFO("coordinator: bandwidth replan after round "
                 << current_round_ << " (worst link ratio " << worst << ", "
                 << slow.size() << " straggler nodes)");
      }
    }
    if (fire) {
      // Pulled migrations still in flight are handled too, or the new
      // tail would repair them a second time.
      request.handled.reserve(report.completions.size() +
                              report.unrepaired.size() + pending_.size());
      for (const auto& done : report.completions) {
        request.handled.push_back(done.chunk);
      }
      request.handled.insert(request.handled.end(), report.unrepaired.begin(),
                             report.unrepaired.end());
      for (const auto& [id, task] : pending_) {
        request.handled.push_back(task.transfer.chunk);
      }
      request.failed_nodes.assign(failed_nodes_.begin(),
                                  failed_nodes_.end());
      std::sort(request.failed_nodes.begin(), request.failed_nodes.end());
      const auto replan_start = Clock::now();
      core::ReactiveResult result = replan(request);
      replan_seconds =
          std::chrono::duration<double>(Clock::now() - replan_start).count();
      rounds.resize(round_idx + 1);
      for (auto& extra : result.plan.rounds) {
        rounds.push_back(std::move(extra));
      }
      record_destinations(round_idx + 1);
      for (const auto& chunk : result.unrepairable) {
        report.unrepaired.push_back(chunk);
        report.errors.push_back("chunk " + chunk_str(chunk) +
                                " unrepaired: fewer than k live chunks "
                                "after STF death");
      }
      // A tail that came back empty leaves this round to drain.
      serve();
    }

    telemetry::RepairRoundStats stats;
    stats.round = current_round_;
    stats.fallbacks =
        report.fallback_reconstructions - round_fallbacks_before;
    stats.retries = report.retries - round_retries_before;
    stats.start_seconds =
        std::chrono::duration<double>(round_start - execute_start_).count();
    stats.duration_seconds =
        std::chrono::duration<double>(Clock::now() - round_start).count() -
        replan_seconds;
    report.repair.total_seconds += stats.duration_seconds;
    report.repair.rounds.push_back(stats);

    // Re-sync the throttler's outstanding-bytes estimate with the (by
    // now possibly replanned) schedule tail plus the pulled migrations
    // still in flight (they left the tail but have yet to report
    // progress), so drift from fallbacks and retries never skews the
    // panic predicate.
    if (options_.throttler != nullptr) {
      double remaining = rounds_send_bytes(round_idx + 1);
      for (const auto& [id, task] : pending_) {
        remaining += send_bytes(task.transfer.sources.size());
      }
      options_.throttler->set_remaining(remaining);
    }
  }
  FASTPR_CHECK_MSG(pending_.empty(), "execution ended with tasks in flight");

  // Each round's (cr, cm) in the paper's vocabulary counts the chunks it
  // started; its tr / tm run from its start to the last completion of
  // each kind, so a pulled migration can stretch tm past the round.
  std::unordered_map<int, telemetry::RepairRoundStats*> by_round;
  for (auto& stats : report.repair.rounds) by_round[stats.round] = &stats;
  for (const auto& done : report.completions) {
    auto* stats = by_round.at(done.executed_round);
    ++(done.migrated ? stats->cm : stats->cr);
    double& phase = done.migrated ? stats->tm_seconds : stats->tr_seconds;
    phase = std::max(phase, done.finish_seconds - stats->start_seconds);
  }
  for (auto& stats : report.repair.rounds) {
    const auto chunk = static_cast<int64_t>(options_.chunk_bytes);
    stats.bytes_reconstructed = static_cast<int64_t>(stats.cr) * chunk;
    stats.bytes_migrated = static_cast<int64_t>(stats.cm) * chunk;
  }

  report.failed_nodes.assign(failed_nodes_.begin(), failed_nodes_.end());
  std::sort(report.failed_nodes.begin(), report.failed_nodes.end());
  report.success = report.unrepaired.empty();
  if (options_.throttler != nullptr) {
    report.throttled = true;
    report.throttle = options_.throttler->stats();
  }

  // Per-member progress in plan order, chunk ownership resolved via the
  // pre-repair layout (fallback reconstructions count as reconstructed —
  // the completion records how the chunk was actually repaired).
  auto& per_stf = report.repair.per_stf;
  for (NodeId s : plan.stf_nodes) {
    telemetry::StfRepairStats member;
    member.stf = static_cast<int>(s);
    const auto it = stf_death_round_.find(s);
    if (it != stf_death_round_.end()) member.died_at_round = it->second;
    per_stf.push_back(member);
  }
  const auto owner = [&](ChunkRef chunk) -> telemetry::StfRepairStats* {
    const int node = static_cast<int>(layout_.node_of(chunk));
    for (auto& member : per_stf) {
      if (member.stf == node) return &member;
    }
    return nullptr;
  };
  for (const auto& round : plan.rounds) {
    for (const auto& task : round.reconstructions) {
      if (auto* m = owner(task.chunk)) ++m->planned;
    }
    for (const auto& task : round.migrations) {
      if (auto* m = owner(task.chunk)) ++m->planned;
    }
  }
  for (const auto& done : report.completions) {
    if (auto* m = owner(done.chunk)) {
      ++(done.migrated ? m->migrated : m->reconstructed);
    }
  }
  for (const auto& chunk : report.unrepaired) {
    if (auto* m = owner(chunk)) ++m->unrepaired;
  }
  return report;
}

}  // namespace fastpr::agent
