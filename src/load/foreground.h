// Open-loop foreground traffic generator (DESIGN.md §10).
//
// Simulates the client workload a production cluster keeps serving
// while repair runs: seeded open-loop arrivals (Poisson), a Zipfian
// read/write mix over the erasure-coded population, and degraded reads
// — an op that targets a chunk on a degraded or crashed node fetches k
// helper chunks and decodes through the real codec paths instead.
// Every op charges the SAME per-node resources repair uses (the
// ChunkStore disk bucket via charge_io, the testbed network's NIC
// buckets via charge_tx/charge_rx, in process and over TCP alike), so
// foreground and repair contend byte-for-byte rather than by
// assumption.
//
// Open-loop means arrivals are scheduled, not admitted: an op's
// latency is measured from its scheduled arrival to completion, so
// queueing delay during repair bursts is visible in the percentiles
// (no coordinated omission). The workload implements PressureSource —
// agents piggyback its per-node p99/throughput onto kPong, closing the
// throttler's feedback loop.
//
// Placement is snapshotted at construction: the generator keeps
// hitting the original chunk homes for the whole run (repair moves
// copies, it does not retarget live traffic mid-run).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "agent/repair_budget.h"
#include "agent/testbed.h"
#include "ec/erasure_code.h"
#include "load/latency_window.h"
#include "load/zipf.h"
#include "util/units.h"

namespace fastpr::load {

struct WorkloadOptions {
  /// Scheduled arrival rate across all generator threads.
  double ops_per_sec = 200;
  double read_fraction = 0.9;
  /// Bytes moved per op (clamped to the chunk size).
  int64_t op_bytes = 64 * kKiB;
  /// Zipfian skew over the chunk population (0 = uniform, 0.99 = YCSB).
  double zipf_theta = 0.99;
  int threads = 4;
  uint64_t seed = 1;
  /// Degraded reads actually decode and byte-check against the oracle
  /// (slower); false charges the helper I/O without moving data.
  bool verify_degraded = true;
};

struct WorkloadStats {
  int64_t reads = 0;
  int64_t writes = 0;
  int64_t degraded_reads = 0;
  /// Ops that could not complete (helpers unreadable / unrepairable).
  int64_t failed_ops = 0;
  /// Degraded reads whose decoded bytes mismatched the oracle.
  int64_t verify_failures = 0;
  double p50_seconds = 0;
  double p99_seconds = 0;
  double p999_seconds = 0;
  double achieved_ops_per_sec = 0;
};

class ForegroundWorkload final : public agent::PressureSource {
 public:
  ForegroundWorkload(agent::Testbed& testbed, const ec::ErasureCode& code,
                     const WorkloadOptions& options);
  ~ForegroundWorkload() override;  // stops and joins

  void start();
  void stop();

  /// Marks a node degraded: reads of its chunks go down the k-helper
  /// decode path from now on. Crashed nodes (FaultyTransport) are
  /// detected automatically; this is for the still-alive STF node.
  void set_degraded(cluster::NodeId node);

  /// PressureSource: the per-node feedback agents report upstream.
  agent::NodePressure sample(cluster::NodeId node) override;

  WorkloadStats stats() const;

 private:
  struct PerNode {
    explicit PerNode(size_t capacity) : window(capacity) {}
    LatencyWindow window;
    std::atomic<int64_t> bytes{0};
    std::atomic<bool> degraded{false};
  };

  void worker(int index);
  bool node_degraded(cluster::NodeId node) const;
  /// Runs one op; fills `touched` with every node it charged. Returns
  /// false if the op failed outright.
  bool run_op(Rng& rng, std::vector<cluster::NodeId>& touched);
  bool run_degraded_read(cluster::ChunkRef chunk, int64_t slice,
                         std::vector<cluster::NodeId>& touched);

  agent::Testbed& testbed_;
  const ec::ErasureCode& code_;
  const WorkloadOptions options_;

  std::vector<cluster::ChunkRef> chunks_;     // shuffled chunk universe
  int64_t chunk_bytes_ = 0;
  std::vector<std::vector<cluster::NodeId>> stripe_nodes_;  // placement
  ZipfSampler zipf_;
  std::vector<std::unique_ptr<PerNode>> nodes_;
  LatencyWindow global_;

  std::atomic<int64_t> reads_{0};
  std::atomic<int64_t> writes_{0};
  std::atomic<int64_t> degraded_reads_{0};
  std::atomic<int64_t> failed_ops_{0};
  std::atomic<int64_t> verify_failures_{0};
  std::atomic<int64_t> start_us_{0};
  std::atomic<bool> running_{false};
  std::vector<std::thread> threads_;
};

}  // namespace fastpr::load
