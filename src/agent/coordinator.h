// The FastPR coordinator (§V): executes a RepairPlan round by round.
//
// Per round it sends each task one kRepairCmd, to the task's
// destination: the sources with their decode coefficients (from the
// erasure code) and the shape — fan-in, chain, or a migration as the
// one-source fan-in of the STF's own chunk. The destination drives the
// transfer and acks; the coordinator waits for all acknowledgements
// before starting the next round. Execution is fault-tolerant
// (DESIGN.md §7):
//
//  * A failed or timed-out task is reissued (bounded attempts with
//    exponential backoff) with the faulty nodes excluded — helpers are
//    re-picked through ErasureCode::repair_helpers and destinations
//    through the placement matcher. task_id stays stable across retries
//    while the attempt id increments, so agents can dedupe duplicate
//    commands and drop packets of superseded attempts.
//  * When a round stalls, the deadline is extended a bounded number of
//    times: completed tasks are kept, the nodes the stragglers depend
//    on are probed (kPing), unresponsive ones are excluded for the rest
//    of the execution, and the stragglers are reissued.
//  * When the STF node dies mid-repair — migration failures cross a
//    threshold, or its agent stops answering probes — the execution
//    degrades to the reactive path: pending migrations convert to
//    reconstructions, and a replan hook (when installed) replaces the
//    remaining rounds with a pure reactive plan over what is left.
#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/stripe_layout.h"
#include "core/repair_plan.h"
#include "core/repair_throttler.h"
#include "core/replan_trigger.h"
#include "ec/erasure_code.h"
#include "net/transport.h"
#include "telemetry/clock_sync.h"
#include "telemetry/flow_monitor.h"
#include "telemetry/repair_report.h"
#include "telemetry/trace.h"

namespace fastpr::agent {

/// Input of the mid-repair replan hook: what the execution has already
/// dealt with (repaired or abandoned) and which nodes are known dead
/// (always includes the STF node — the hook fires on its death).
struct ReplanRequest {
  std::vector<cluster::ChunkRef> handled;
  std::vector<cluster::NodeId> failed_nodes;
};

/// The replan hook returns reconstruction-only rounds for the remaining
/// chunks, plus the chunks no surviving stripe can rebuild (typically
/// FastPrPlanner::plan_reactive).
using ReplanFn =
    std::function<core::ReactiveResult(const ReplanRequest&)>;

/// Input of the bandwidth replan hook (DESIGN.md §11): fired when
/// measured per-link throughput drifts below the rates the plan priced
/// in. `slow_nodes` are the source endpoints of the straggler links —
/// the planner deprioritizes them as helpers in the new tail.
struct BandwidthReplanRequest {
  std::vector<cluster::ChunkRef> handled;
  std::vector<cluster::NodeId> failed_nodes;
  std::vector<cluster::NodeId> slow_nodes;
  /// The worst measured/expected link ratio of the round that fired.
  double worst_ratio = 0;
};

/// The hook returns predictive rounds for the remaining chunks
/// (typically FastPrPlanner::plan_fastpr_remaining) — unlike the
/// STF-death replan, nothing becomes unrepairable from a slow link.
using BandwidthReplanFn =
    std::function<core::RepairPlan(const BandwidthReplanRequest&)>;

struct CoordinatorOptions {
  uint64_t chunk_bytes = 0;
  uint64_t packet_bytes = 0;
  std::chrono::milliseconds round_timeout{120000};
  /// Total issues of one task (first try + retries) before its chunk is
  /// abandoned and reported unrepaired.
  int max_attempts = 4;
  /// Backoff before a failed task is reissued; doubles per attempt.
  std::chrono::milliseconds retry_backoff{50};
  /// How long a probed agent has to answer kPing before its node is
  /// declared failed for the rest of the execution.
  std::chrono::milliseconds probe_timeout{250};
  /// Extra round_timeout windows granted to salvage a stalled round;
  /// each extension probes the stragglers' nodes and reissues them.
  int max_round_extensions = 3;
  /// Migration failures tolerated before the STF node is declared dead
  /// and the execution degrades to reactive reconstruction.
  int stf_failure_threshold = 3;
  /// Nodes eligible as replacement destinations when a task's planned
  /// destination fails (spare node ids beyond the layout are allowed —
  /// the hot-standby pool). Empty = every node of the layout.
  std::vector<cluster::NodeId> dest_candidates;
  /// Optional reactive replanner consulted once, when the STF node dies.
  ReplanFn replan;
  /// Per-link flow telemetry the bandwidth replan trigger reads at each
  /// round boundary (EWMA vs expected rates). Not owned. Without
  /// telemetry compiled in, snapshot() is empty and the trigger never
  /// sees a sample.
  telemetry::FlowMonitor* flow_monitor = nullptr;
  /// Hysteresis state machine deciding WHEN drift warrants a replan
  /// (DESIGN.md §11). Not owned; must outlive the execution. Effective
  /// only with flow_monitor and bandwidth_replan also set. Disarmed
  /// permanently once the execution degrades to reactive — the plan
  /// being monitored no longer exists.
  core::BandwidthReplanTrigger* bandwidth_trigger = nullptr;
  /// Replans the remaining rounds around the degraded links when the
  /// trigger fires.
  BandwidthReplanFn bandwidth_replan;
  /// Optional cluster-wide repair throttler (DESIGN.md §10). When set,
  /// execute() ticks it on the lease cadence, relays its grants as
  /// kLeaseGrant messages, feeds kPressureReport / kPong pressure back
  /// into it, and reports its outcome. Not owned; must outlive the
  /// coordinator's executions. Callers register the agent nodes
  /// (RepairThrottler::add_agent) before execute().
  core::RepairThrottler* throttler = nullptr;
  /// Predicted STF remaining lifetime, measured from the start of
  /// execute() (the predictor's estimate, or an explicit CLI deadline).
  /// > 0 arms the throttler's panic mode. Ignored without a throttler.
  double stf_deadline_seconds = 0;
};

/// One chunk actually repaired, with where it really landed — retries
/// may have moved it off the planned destination.
struct CompletedRepair {
  cluster::ChunkRef chunk;
  cluster::NodeId dst = cluster::kNoNode;
  /// Repaired by migration (false = reconstruction, planned or fallback).
  bool migrated = false;
  int attempts = 1;
};

/// Per-member progress of a multi-STF batch execution (DESIGN.md §8).
struct StfProgress {
  cluster::NodeId stf = cluster::kNoNode;
  int planned = 0;        // chunks of this node the plan covers
  int migrated = 0;
  int reconstructed = 0;  // planned + fallback reconstructions
  int unrepaired = 0;
  bool died = false;      // this member was declared dead mid-repair
  int died_at_round = 0;  // 1-based; 0 = alive throughout
};

struct ExecutionReport {
  bool success = true;
  double total_seconds = 0;
  std::vector<double> round_seconds;
  int migrated = 0;
  int reconstructed = 0;
  /// Migrations that failed and were re-executed as reconstructions.
  int fallback_reconstructions = 0;
  /// Repair traffic over the network during this execution (data
  /// packets only; filled by Testbed::execute for in-process runs).
  int64_t network_bytes = 0;
  /// Per-round breakdown in the paper's (cr, cm) vocabulary; the
  /// coordinator fills everything except stf_bw_utilization and
  /// `predicted`, which Testbed::execute adds (see DESIGN.md §5c).
  telemetry::RepairReport repair;
  std::vector<std::string> errors;

  /// Every chunk repaired, with its final destination and attempt count.
  std::vector<CompletedRepair> completions;
  /// Chunks the execution could not repair (attempts exhausted, no
  /// viable helper set, or round deadline fully expired). success is
  /// true iff this is empty.
  std::vector<cluster::ChunkRef> unrepaired;
  /// Nodes declared failed during execution (probe non-response or STF
  /// death), sorted.
  std::vector<cluster::NodeId> failed_nodes;
  /// One entry per STF batch member, in plan order (a single-STF plan
  /// yields one entry). Chunk ownership is resolved via the layout.
  std::vector<StfProgress> stf_progress;
  /// True once an STF node was declared dead and its predictive repair
  /// degraded to the reactive path for the remaining chunks. In a batch
  /// execution one member's death does NOT abort the others' plans —
  /// only the dead member's tasks convert to fallback reconstructions.
  bool degraded_to_reactive = false;
  int degraded_at_round = 0;  // 1-based; 0 = never degraded
  int retries = 0;            // task reissues (incl. fallback conversions)
  /// Replan hook invocations of either kind: at most one STF-death
  /// reactive replan plus however many bandwidth replans the trigger's
  /// max_replans cap admits.
  int replans = 0;
  /// The subset of `replans` triggered by link-bandwidth drift.
  int bandwidth_replans = 0;
  int round_extensions = 0;
  /// Repair-throttle outcome (DESIGN.md §10); zeroed when the execution
  /// ran without a throttler.
  bool throttled = false;
  core::ThrottlerStats throttle;

  int repaired() const { return migrated + reconstructed; }
  double per_chunk() const {
    return repaired() == 0 ? 0.0 : total_seconds / repaired();
  }
};

// Thread-confinement note: a Coordinator is driven by exactly one thread
// (execute() is blocking and owns all bookkeeping state), so it needs no
// mutex — concurrency lives in the agents and the transport it talks to.
// If execute() ever fans out onto a ThreadPool, next_task_id_ and the
// pending maps must move behind a fastpr::Mutex with FASTPR_GUARDED_BY.
class Coordinator {
 public:
  /// `layout` is the pre-repair chunk placement (used for migration
  /// fallback helper selection); `code` supplies decode coefficients.
  Coordinator(cluster::NodeId id, net::Transport& transport,
              const ec::ErasureCode& code,
              const cluster::StripeLayout& layout,
              const CoordinatorOptions& options);

  /// Runs the plan to completion (or failure). Blocking.
  ExecutionReport execute(const core::RepairPlan& plan);

  /// Installs the mid-repair reactive replanner (see CoordinatorOptions).
  void set_replan(ReplanFn replan) { options_.replan = std::move(replan); }

  /// Installs the bandwidth-drift replanner (see CoordinatorOptions).
  void set_bandwidth_replan(BandwidthReplanFn replan) {
    options_.bandwidth_replan = std::move(replan);
  }

  /// Per-node clock offsets estimated from kPing/kPong probe pairs
  /// (cumulative across executions). Testbed::execute feeds these into
  /// the offset-corrected trace export.
  const telemetry::ClockSync& clock_sync() const { return clock_sync_; }

  /// Builds a reconstruction for a chunk whose migration failed,
  /// excluding the STF node and every node in `failed` from the helper
  /// set. Throws CheckFailure when no viable helper set exists.
  core::ReconstructionTask fallback_for(
      const core::MigrationTask& task, cluster::NodeId stf,
      const std::unordered_set<cluster::NodeId>& failed = {}) const;

  /// Helper selection for reconstructing `chunk` onto `dst`: k viable
  /// sources from the stripe's nodes, skipping the STF node, the
  /// destination and everything in `exclude`. LRC falls back from the
  /// local group to global parities via ErasureCode::repair_helpers.
  /// Throws CheckFailure when the chunk is unrepairable.
  std::vector<core::SourceRead> pick_sources(
      cluster::ChunkRef chunk, cluster::NodeId dst, cluster::NodeId stf,
      const std::unordered_set<cluster::NodeId>& exclude) const;

 private:
  /// One outstanding repair task. is_migration describes the *current*
  /// form: a migration whose STF read fails converts in place to a
  /// fallback reconstruction (same task_id, next attempt).
  struct PendingTask {
    bool is_migration = false;
    core::MigrationTask mig;
    core::ReconstructionTask recon;
    uint32_t attempt = 1;
    /// Nodes this task must avoid (reported failures), on top of the
    /// execution-wide failed_nodes_ set.
    std::unordered_set<cluster::NodeId> excluded;
    bool waiting_retry = false;

    cluster::ChunkRef chunk() const {
      return is_migration ? mig.chunk : recon.chunk;
    }
    cluster::NodeId current_dst() const {
      return is_migration ? mig.dst : recon.dst;
    }
  };

  /// Sends the task's current attempt as one kRepairCmd to its
  /// destination, naming every source and the shape.
  void issue_task(uint64_t task_id, const PendingTask& task);
  /// Cancels `task`'s attempt at its destination (unless it is
  /// `keep_dst`) and, for a chain, at every hop.
  void cancel_attempt(uint64_t task_id, const PendingTask& task,
                      cluster::NodeId keep_dst);

  /// Registers and issues one planned task (rebuilding it first when it
  /// references nodes already known to have failed).
  void start_task(PendingTask task, ExecutionReport& report);

  /// True when the task references a failed/excluded node (or a dead
  /// STF) and must be rebuilt before (re)issue.
  bool needs_rebuild(const PendingTask& task) const;

  /// Re-derives a viable form of the task: migrations keep migrating
  /// while the STF is alive (retargeting if the destination failed) and
  /// convert to fallback reconstructions otherwise; reconstructions get
  /// a fresh destination and helper set avoiding all known-bad nodes.
  /// Returns false when the chunk has become unrepairable.
  bool rebuild_task(PendingTask& task, ExecutionReport& report);

  /// Least-loaded eligible replacement destination for a chunk of
  /// `stripe`, or kNoNode. Prefers nodes no pending task already
  /// targets; never picks the STF, a failed node, a task-excluded node,
  /// or a node of the stripe.
  cluster::NodeId choose_destination(cluster::StripeId stripe,
                                     const PendingTask& task);

  void handle_task_done(const net::Message& msg, ExecutionReport& report);
  void handle_task_failed(const net::Message& msg,
                          ExecutionReport& report);
  void schedule_retry(uint64_t task_id, PendingTask& task);
  /// Bumps the attempt and reissues (rebuilt); abandons the chunk when
  /// attempts are exhausted or no viable form remains.
  void reissue_now(uint64_t task_id, ExecutionReport& report);
  void abandon(uint64_t task_id, const std::string& reason,
               ExecutionReport& report);

  /// Probes every node the stragglers depend on; resolution (reply or
  /// probe_timeout) feeds finish_probe.
  void start_probe(ExecutionReport& report);
  /// Declares non-responders failed and reissues the stragglers.
  void finish_probe(ExecutionReport& report);
  void declare_stf_dead(cluster::NodeId node, ExecutionReport& report);
  /// Estimated repair send bytes of one task's current form — what the
  /// throttler's finish-time (panic) estimate is denominated in.
  double task_send_bytes(const PendingTask& task) const;
  /// Ticks the throttler and relays its grants as kLeaseGrant messages;
  /// schedules the next tick at ttl/3 so healthy leases renew early.
  void lease_tick();
  bool stf_node_dead(cluster::NodeId node) const {
    return stf_dead_set_.count(node) != 0;
  }
  void collect_task_nodes(const PendingTask& task,
                          std::unordered_set<cluster::NodeId>& out) const;

  cluster::NodeId id_;
  net::Transport& transport_;
  const ec::ErasureCode& code_;
  const cluster::StripeLayout& layout_;
  CoordinatorOptions options_;
  uint64_t next_task_id_ = 1;

  // Per-execution state, reset at the top of execute() (see the
  // thread-confinement note above).
  std::unordered_map<uint64_t, PendingTask> pending_;
  std::multimap<telemetry::TraceClock::time_point, uint64_t> retries_due_;
  std::unordered_set<cluster::NodeId> failed_nodes_;
  /// Retarget pressure: chunks re-routed to a node during this
  /// execution, so repeated retargeting keeps spreading load.
  std::unordered_map<cluster::NodeId, int> extra_dst_load_;
  cluster::NodeId stf_ = cluster::kNoNode;  // first batch member
  /// The STF batch being executed (plan.stf_nodes) and its membership
  /// set.
  std::vector<cluster::NodeId> stf_batch_;
  std::unordered_set<cluster::NodeId> stf_set_;
  std::unordered_set<cluster::NodeId> stf_dead_set_;
  std::unordered_map<cluster::NodeId, int> stf_death_round_;
  std::unordered_map<cluster::NodeId, int> stf_failures_by_;
  int current_round_ = 0;

  bool probe_active_ = false;
  uint64_t probe_epoch_ = 0;
  /// Local send time of the current probe epoch's pings; paired with
  /// each kPong's origin_ts_us for a clock-offset sample.
  int64_t probe_sent_us_ = 0;
  telemetry::ClockSync clock_sync_;
  telemetry::TraceClock::time_point probe_deadline_{};
  std::unordered_map<cluster::NodeId, bool> probe_outstanding_;
  std::vector<uint64_t> stragglers_;
  /// Next lease re-grant (throttler configured only).
  telemetry::TraceClock::time_point next_lease_tick_{};
};

}  // namespace fastpr::agent
