// The paper's repair-time model (§III, Equations 1–6).
//
// Times are seconds; sizes bytes; bandwidths bytes/second. A repair
// operation decomposes into sequential read → transmit → write stages,
// coding cost and disk interference are neglected (the paper's stated
// simplifications). Both repair scenarios are covered, and the LRC
// extension substitutes k' = k/l and G' = (M-1)/k'.
#pragma once

#include <string>

#include "net/topology.h"

namespace fastpr::core {

enum class Scenario {
  kScattered,   // repaired chunks spread over existing healthy nodes
  kHotStandby,  // repaired chunks written to h dedicated spare nodes
};

std::string to_string(Scenario s);

/// How one chunk is reconstructed from its k helpers.
enum class RepairStrategy {
  /// All k helper streams converge on the destination, which computes
  /// the fused dot once per packet index (the paper's §III model; the
  /// destination NIC serializes k chunks of traffic).
  kFanIn,
  /// Packet-level partial-sum chain (repair pipelining): helpers form a
  /// path h0 → h1 → … → h(k-1) → dest; each hop multiplies its own
  /// packet by its decode coefficient and XORs it into the partial sum
  /// received from the previous hop. Every link carries ONE chunk of
  /// traffic, so per-chunk time approaches the single-transfer bound.
  kChain,
};

/// Planner-facing strategy knob: fixed, or model-chosen per round.
enum class StrategyChoice { kFanIn, kChain, kAuto };

std::string to_string(RepairStrategy s);
std::string to_string(StrategyChoice s);

/// Inputs of the analysis. `k_repair` is the number of chunks fetched to
/// repair one chunk: k for RS(n,k); k/l for LRC (§III extension).
struct ModelParams {
  int num_nodes = 100;          // M (storage nodes incl. the STF nodes)
  int stf_chunks = 1000;        // U, chunks across all STF nodes
  double chunk_bytes = 0;      // c
  double disk_bw = 0;          // bd, bytes/s
  double net_bw = 0;           // bn, bytes/s
  int k_repair = 6;             // k (or k' for LRC; d for MSR)
  /// Number of STF nodes repaired concurrently (DESIGN.md §8). The
  /// multi-STF closed forms degenerate exactly to Equations 1–6 at 1:
  /// G = (M-B)/k parallel groups, B independent migration streams.
  int batch = 1;
  /// Fraction of a chunk each helper ships. 1.0 for RS and LRC; MSR
  /// codes (§II-A) read d = k_repair helpers but each sends only
  /// 1/(d-k+1) of a chunk, e.g. 0.25 for MSR(n=14, k=10, d=13).
  double helper_bytes_fraction = 1.0;
  int hot_standby = 3;          // h (hot-standby scenario only)
  Scenario scenario = Scenario::kScattered;
  /// Wire packet size p used by the chain strategy's pipelined transfer
  /// (0 = unknown → tr_chain unavailable, choose_strategy stays fan-in).
  double packet_bytes = 0;
  /// Per-hop, per-packet store-and-forward cost o of a chain forward
  /// (receive → fuse → re-send: syscalls, interrupts, cache traffic).
  /// Fan-in helpers stream sequentially and do not pay it, which is why
  /// chains lose at small packet sizes — the fan-in/chain crossover.
  /// The testbed charges the same constant on every chain forward
  /// (InprocOptions.chain_hop_overhead_seconds) so measurement and
  /// model agree; see bench_pipelining.
  double chain_hop_overhead_seconds = 0;
  /// Cross-rack oversubscription factor f of the topology (DESIGN.md
  /// §11): a transfer crossing racks sees bn / f under the
  /// saturated-uplink worst case the closed forms assume. Set via
  /// net::Oversub at configuration boundaries. With the default 1.0
  /// (or both cross-rack fractions 0) every term reduces exactly to
  /// Equations 1–6.
  double oversubscription = net::Oversub(1.0);
  /// Fraction of helper (reconstruction-fetch) traffic that crosses
  /// racks. Rack-disjoint placement pins this at 1.0 — every helper of
  /// a stripe lives in a different failure domain than the repaired
  /// chunk's destination; 0.0 (default) is the flat network.
  double cross_rack_helper_fraction = 0.0;
  /// Fraction of migration traffic that crosses racks. Rack-aware
  /// placement prefers an in-rack destination for migrations (the
  /// stripe's rack occupancy is unchanged by an in-rack move), driving
  /// this to 0; flat planning on R racks of m nodes sees roughly
  /// (M - m) / (M - 1).
  double cross_rack_migration_fraction = 0.0;
};

class CostModel {
 public:
  explicit CostModel(const ModelParams& params);

  const ModelParams& params() const { return params_; }

  /// Eq. (4): migrate one chunk = read + transmit + write.
  double tm() const;

  /// Reconstruction time of a round repairing `g` chunks in parallel.
  /// Scattered (Eq. 5) is independent of g; hot-standby (Eq. 6) funnels
  /// g·k transmissions and g writes into the h spares.
  double tr(double g) const;

  /// Chain (repair-pipelining) reconstruction time of a round of g
  /// chunks: read + pipelined transfer + write, where the transfer is
  /// the single-transfer bound c/bn plus (k-1) per-hop packet latencies
  /// of pipeline fill plus the per-forward overhead o on each of the
  /// N + k - 1 slots (N = ceil(c/p)). Hot-standby funnels g/h chains
  /// and g/h writes into each spare. Requires packet_bytes > 0. Chains
  /// forward full-size partial sums, so helper_bytes_fraction does not
  /// apply (MSR sub-chunk savings are a fan-in property).
  double tr_chain(double g) const;

  /// tr under a chosen strategy.
  double tr(double g, RepairStrategy strategy) const;

  /// The faster strategy for a round of g chunks (fan-in when
  /// packet_bytes is unset). This is what StrategyChoice::kAuto
  /// resolves to in Algorithm 2.
  RepairStrategy choose_strategy(double g) const;

  /// The analysis' parallelism bound G = (M-B)/k (continuous, as §III
  /// assumes the maximum number of non-overlapping groups exists). B is
  /// the STF batch size, so this is Eq. (1)'s (M-1)/k at batch 1.
  double max_parallel_groups() const;

  /// Eq. (1): total time when x chunks migrate (split evenly over the B
  /// STF disks) and U-x reconstruct, both streams running in parallel
  /// (g groups per reconstruction round).
  double total_time(double x, double g) const;

  /// Optimal migration share x* = U·B·tr / (G·tm + B·tr) at g = G
  /// (Eq. 2's x* = U·tr/(G·tm + tr) at batch 1).
  double optimal_migration_chunks() const;

  /// Eq. (2): minimum predictive repair time T_P. Multi-STF closed form
  /// T_P = U·tr·tm / (G·tm + B·tr); exactly Eq. (2) at batch 1.
  double predictive_time() const;

  /// Eq. (3): reactive (reconstruction-only) repair time T_R = U·tr/G.
  double reactive_time() const;

  /// Migration-only repair time U·tm/B (each STF node drains its own
  /// disk; U·tm at batch 1).
  double migration_only_time() const;

  /// Per-chunk variants (what every paper figure plots).
  double predictive_time_per_chunk() const;
  double reactive_time_per_chunk() const;

  /// Scheduler hook (§IV-C): chunks to migrate during one reconstruction
  /// round of cr chunks under `strategy`, cm = tr(cr)/tm, floored to
  /// whole chunks — a faster chain round leaves less time to migrate
  /// alongside it. Each STF disk of a batch drains its own cm.
  int migration_quota(int cr, RepairStrategy strategy) const;

  /// Modelled wall time of one executed round repairing cr chunks by
  /// reconstruction while migrations drain the STF disks:
  /// max(tr(cr), cm·tm), where cm is the busiest disk's migration count
  /// — a batch's streams run on independent disks (DESIGN.md §8). This
  /// is what telemetry::PredictedRound diffs measured rounds against
  /// (DESIGN.md §5c).
  double round_time(int cr, int slowest_stream_cm,
                    RepairStrategy strategy) const;

 private:
  /// Cross-rack multipliers on network terms (DESIGN.md §11):
  /// 1 + (f - 1) · cross_rack_fraction, exactly 1.0 on a flat network.
  double helper_penalty() const;
  double migration_penalty() const;

  ModelParams params_;
};

}  // namespace fastpr::core
