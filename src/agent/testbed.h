// The in-process testbed: FastPR's "25 EC2 instances" substitute.
//
// Wires together a shaped transport (token-bucket NICs), one throttled
// ChunkStore per node, one Agent per storage/spare node and a
// Coordinator, over a randomly generated erasure-coded population whose
// chunk contents are deterministic (SyntheticOracle) so arbitrarily
// large clusters fit in RAM. All repaired bytes are real: helpers stream
// GF-scaled packets, destinations decode and store, and verify() checks
// the repaired chunks byte-for-byte against the oracle.
#pragma once

#include <memory>
#include <optional>

#include "agent/agent.h"
#include "agent/chunk_store.h"
#include "agent/coordinator.h"
#include "agent/repair_budget.h"
#include "cluster/cluster_state.h"
#include "cluster/stripe_layout.h"
#include "core/fastpr.h"
#include "core/repair_throttler.h"
#include "core/replan_trigger.h"
#include "ec/erasure_code.h"
#include "net/fault_plan.h"
#include "net/topology.h"
#include "net/faulty_transport.h"
#include "net/inproc_transport.h"
#include "net/transport.h"
#include "telemetry/flow_monitor.h"

namespace fastpr::agent {

/// Deterministic chunk contents, exactly consistent with the erasure
/// code yet O(chunk) cheap to synthesize:
///
///   data chunk (s, j)  =  P ⊕ c(s, j)
///
/// where P is a fixed pseudo-random position pattern (shared by the
/// oracle instance) and c(s, j) a per-chunk constant byte. Because
/// GF(2^8) multiplication distributes over XOR, parity row p with
/// coefficients w_j is
///
///   parity = ⊕_j w_j·(P ⊕ c_j) = (⊕_j w_j)·P  ⊕  K,   K = ⊕_j w_j·c_j
///
/// — a single table pass instead of a full stripe encode per read, and
/// any byte range synthesizes on its own, so a packet-sized read never
/// touches the rest of the chunk.
/// Contents stay position-dependent (catches packet reorder/offset
/// bugs) and per-chunk distinct (catches chunk mix-ups), and decoding
/// any subset reproduces them bit-exactly.
class SyntheticOracle final : public ChunkOracle {
 public:
  SyntheticOracle(const ec::ErasureCode& code, uint64_t chunk_bytes,
                  int num_stripes, uint64_t seed);

  uint64_t chunk_bytes() const override { return chunk_bytes_; }
  bool read_slice(cluster::ChunkRef chunk, uint64_t offset,
                  std::span<uint8_t> out) const override;

  /// The whole chunk: read_slice over [0, chunk_bytes()).
  std::optional<std::vector<uint8_t>> generate(cluster::ChunkRef chunk) const;

 private:
  /// Per-chunk constant mixed into the pattern.
  uint8_t chunk_constant(cluster::StripeId stripe, int index) const;

  const ec::ErasureCode& code_;
  uint64_t chunk_bytes_;
  int num_stripes_;
  uint64_t seed_;
  std::vector<uint8_t> pattern_;  // P
};

struct TestbedOptions {
  int num_storage = 21;          // paper: 21 DataNode instances
  int num_standby = 3;           // paper: 3 hot-standby instances
  double disk_bytes_per_sec = 0;
  double net_bytes_per_sec = 0;
  uint64_t chunk_bytes = 0;
  uint64_t packet_bytes = 0;
  int num_stripes = 120;
  uint64_t seed = 1;
  bool use_tcp = false;          // loopback TCP instead of in-process
  /// Reconstruction strategy for the planners this testbed builds:
  /// fan-in (paper default), partial-sum chains, or per-round kAuto via
  /// the cost model. Executions honor whatever the plan's rounds carry.
  core::StrategyChoice repair_strategy = core::StrategyChoice::kFanIn;
  /// Per-forward store-and-forward cost of a chain hop, charged by the
  /// shaped transports on packets addressed to a hop >= 1 AND fed to
  /// the planners' cost model, so kAuto decides on the numbers the
  /// execution shows. The default approximates a receive→fuse→re-send turnaround on the
  /// scaled testbed; irrelevant while no chain runs.
  double chain_hop_overhead_seconds = 500e-6;
  std::chrono::milliseconds round_timeout{120000};
  /// Fault-tolerance knobs, forwarded to CoordinatorOptions.
  int max_attempts = 4;
  std::chrono::milliseconds retry_backoff{50};
  std::chrono::milliseconds probe_timeout{250};
  int max_round_extensions = 3;
  int stf_failure_threshold = 3;
  /// When set, the transport is wrapped in a FaultyTransport driving
  /// this scripted schedule (DESIGN.md §7). node=stf entries resolve at
  /// flag_stf(), which also applies the plan's read_error directives to
  /// the chunk stores.
  std::optional<net::FaultPlan> fault_plan;
  /// When set, repair traffic runs under SLO-aware adaptive throttling
  /// (DESIGN.md §10): the coordinator leases per-agent shares of this
  /// budget and every agent's data sends block on its leased
  /// RepairBudget instead of just the raw NIC.
  std::optional<core::ThrottlerOptions> throttle;
  /// Predicted STF death, seconds from execute() start (> 0 arms panic
  /// mode; forwarded to CoordinatorOptions.stf_deadline_seconds).
  double stf_deadline_seconds = 0;
  /// Rack/oversubscription model (DESIGN.md §11). When set (and not
  /// flat), the stripe population is laid out rack-disjoint
  /// (StripeLayout::random_racked) and the planners this testbed builds
  /// become rack-aware. Must cover exactly the storage nodes — spares
  /// and the coordinator land in overflow racks. Unset = flat network,
  /// bit-identical to the pre-topology testbed.
  std::optional<net::Topology> topology;
  /// Mid-repair bandwidth replanning (DESIGN.md §11). enabled=true
  /// builds a BandwidthReplanTrigger and points the coordinator at the
  /// flow monitor; when the trigger fires, execute()'s replan hook
  /// re-derives the tail with plan_fastpr_remaining.
  core::BandwidthReplanOptions bandwidth_replan;
};

class Testbed {
 public:
  Testbed(const TestbedOptions& options, const ec::ErasureCode& code);
  ~Testbed();

  /// Node ids: [0, storage) storage, [storage, storage+standby) spares,
  /// coordinator = storage + standby.
  cluster::NodeId coordinator_id() const;

  cluster::StripeLayout& layout() { return *layout_; }
  cluster::ClusterState& cluster() { return *cluster_; }
  /// The transport agents and coordinator actually talk through (the
  /// fault decorator when a fault plan is configured).
  net::Transport& transport() {
    return faulty_ != nullptr ? static_cast<net::Transport&>(*faulty_)
                              : *transport_;
  }
  /// The fault injector, or nullptr when no fault plan is configured.
  net::FaultyTransport* faulty() { return faulty_.get(); }

  /// The adaptive throttler, or nullptr when `throttle` is not set.
  core::RepairThrottler* throttler() { return throttler_.get(); }

  /// The bandwidth replan trigger, or nullptr when bandwidth_replan is
  /// not enabled. Its stats() expose samples/breaches/replans to tests.
  core::BandwidthReplanTrigger* bandwidth_trigger() {
    return bandwidth_trigger_.get();
  }

  /// The rack model the planners see, or nullptr for a flat testbed.
  const net::Topology* topology() const {
    return options_.topology.has_value() ? &*options_.topology : nullptr;
  }

  /// One node's leased repair budget, or nullptr without throttling.
  RepairBudget* repair_budget(cluster::NodeId node);

  /// Retargets every agent's pressure sampling (the foreground
  /// workload implements PressureSource). nullptr = zero pressure.
  void set_pressure_source(PressureSource* source) {
    pressure_.set_target(source);
  }

  /// The in-process transport, or nullptr under --use-tcp. Foreground
  /// load uses its charge_tx/charge_rx to contend for the same NICs.
  net::InprocTransport* inproc();

  /// Ground-truth chunk contents (degraded-read verification).
  const SyntheticOracle& oracle() const { return *oracle_; }

  /// Per-link flow telemetry the transports report into. Cleared at the
  /// top of each execute(); its snapshot lands in the report's `links`.
  telemetry::FlowMonitor& flow_monitor() { return flow_; }

  /// Per-node clock offsets (µs, clock_sync.h convention) estimated
  /// from the coordinator's probe traffic — feed straight into
  /// telemetry::events_to_chrome_json for an offset-corrected merged
  /// trace. Empty until a probe round trip has completed.
  std::vector<std::pair<int, int64_t>> clock_offsets() const {
    return coordinator_->clock_sync().snapshot();
  }
  Agent& agent(cluster::NodeId node);
  ChunkStore& store(cluster::NodeId node);

  /// Flags the most-loaded storage node as soon-to-fail; returns it.
  /// With a fault plan configured, also resolves its node=stf entries
  /// and injects its read errors into the chunk stores.
  cluster::NodeId flag_stf();

  /// Flags the `count` most-loaded storage nodes (ties broken by lower
  /// id) as one STF batch, most-loaded first == flag_stf() at count 1.
  /// Fault-plan node=stf entries resolve to the first member.
  std::vector<cluster::NodeId> flag_stf_batch(int count);

  /// Flags an explicit batch (e.g. from `fastpr_cli execute --stf`).
  /// Fault-plan node=stf entries resolve to the first member.
  std::vector<cluster::NodeId> flag_stf_nodes(
      std::vector<cluster::NodeId> nodes);

  /// Builds a planner bound to this testbed's layout/cluster, over every
  /// currently flagged node.
  core::FastPrPlanner make_planner(core::Scenario scenario);

  /// Executes a plan with real data movement; wall-clock timed. The
  /// returned report's `repair` breakdown has stf_bw_utilization filled
  /// from this testbed's configured disk rate (when shaped).
  ExecutionReport execute(const core::RepairPlan& plan);

  /// Cost-model expectation for each round of `plan`, aligned by index —
  /// assign to report.repair.predicted to diff measured rounds against
  /// Algorithm 2's structure (DESIGN.md §5c). `scenario` must match the
  /// planner that produced the plan.
  std::vector<telemetry::PredictedRound> predict_rounds(
      const core::RepairPlan& plan, core::Scenario scenario);

  /// Byte-exact verification of every repaired chunk against the oracle.
  bool verify(const core::RepairPlan& plan) const;

  /// Verification against what the execution actually did: every
  /// completed repair byte-exact at its *final* destination (retries may
  /// have moved chunks off the planned one). The report's completions ∪
  /// unrepaired must exactly cover the plan's chunks.
  bool verify(const ExecutionReport& report,
              const core::RepairPlan& plan) const;

 private:
  /// Byte-exact check of one repaired chunk, compared with the oracle
  /// one packet-sized slice at a time through `scratch` (two slices,
  /// reused across calls).
  bool chunk_ok(cluster::ChunkRef chunk, cluster::NodeId dst,
                std::vector<uint8_t>& scratch) const;

  TestbedOptions options_;
  const ec::ErasureCode& code_;
  std::unique_ptr<SyntheticOracle> oracle_;
  /// Declared before the transports: they report into it on their own
  /// threads until shutdown, so it must outlive them.
  telemetry::FlowMonitor flow_;
  std::unique_ptr<net::Transport> transport_;
  /// Fault decorator over transport_ (fault_plan configured only).
  std::unique_ptr<net::FaultyTransport> faulty_;
  std::unique_ptr<cluster::StripeLayout> layout_;
  std::unique_ptr<cluster::ClusterState> cluster_;
  std::vector<std::unique_ptr<ChunkStore>> stores_;
  /// Declared before the agents: sender workers acquire from these
  /// until Agent::stop().
  std::vector<std::unique_ptr<RepairBudget>> budgets_;
  ForwardingPressureSource pressure_;
  std::unique_ptr<core::RepairThrottler> throttler_;
  std::unique_ptr<core::BandwidthReplanTrigger> bandwidth_trigger_;
  std::vector<std::unique_ptr<Agent>> agents_;
  std::unique_ptr<Coordinator> coordinator_;
};

}  // namespace fastpr::agent
