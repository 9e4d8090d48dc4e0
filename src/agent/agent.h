// Storage-node agent of the FastPR prototype (§V).
//
// One dispatcher thread services the node's inbox; data-plane work runs
// on a small set of persistent threads exactly as the paper describes
// its multi-threading: disk-reader tasks pace the disk and feed packets
// to persistent network-sender workers over a bounded per-transfer
// window, and a destination node decodes packets as they arrive so
// reception, decoding and disk writes pipeline. Packet payloads are
// pool-recycled (util/buffer_pool.h): a steady-state transfer reuses a
// fixed working set of buffers instead of allocating per packet, and a
// destination folds its chunk into a recycled chunk buffer.
//
// Every repair task — migration, fan-in reconstruction or chain — is one
// transfer its destination drives (DESIGN.md §5b):
//  * dest   — on kRepairCmd, register the task's state and send each
//    source a kFetchRequest naming its source chain and slot (a fan-in
//    source is a one-hop chain of its own; a migration is the fan-in of
//    the STF's own chunk with coefficient 1). Fold the arriving streams
//    — one fused gf::dot_region_xor per packet index across several
//    streams, one mul_region for a single stream — store, ack.
//  * hop 0  — read the chunk packet by packet, each slice straight into
//    its pooled payload, and stream it to the next hop (pre-scaled by
//    its coefficient) or straight to the destination.
//  * hop ≥1 — read its own slice of each received packet's range into
//    a reused scratch buffer, fold c·(own slice) into the packet in
//    place (one fused multiply-XOR on the pooled payload) and forward
//    it under a bounded send window, so every link of a chain streams
//    concurrently and the repair approaches the single-transfer bound
//    (repair pipelining).
// No source ever holds a copy of a whole chunk.
// Every command and packet is validated on entry: malformed ones are
// dropped and counted (agent.malformed_msgs), never trusted.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "agent/chunk_store.h"
#include "agent/repair_budget.h"
#include "cluster/types.h"
#include "net/transport.h"
#include "util/buffer_pool.h"
#include "util/mutex.h"
#include "util/thread_pool.h"

namespace fastpr::agent {

struct AgentOptions {
  cluster::NodeId coordinator = cluster::kNoNode;  // ack target
  /// Coordinator-leased repair-bandwidth enforcement (DESIGN.md §10).
  /// When set, every outgoing repair data packet blocks on this budget
  /// before it touches the NIC, and kLeaseGrant messages re-rate it.
  /// Null = legacy behavior (repair competes for the raw NIC share).
  RepairBudget* repair_budget = nullptr;
  /// Where this agent samples its node's foreground pressure for
  /// kPressureReport replies and kPong piggybacks. Null = report zero
  /// pressure (the throttler then simply ramps to its ceiling).
  PressureSource* pressure = nullptr;
};

class Agent {
 public:
  Agent(cluster::NodeId id, net::Transport& transport, ChunkStore& store,
        const AgentOptions& options);
  ~Agent();

  Agent(const Agent&) = delete;
  Agent& operator=(const Agent&) = delete;

  void start();

  /// Graceful: drains the dispatcher, reader tasks and sender workers.
  void stop();

  cluster::NodeId id() const { return id_; }

 private:
  /// Per-transfer flow-control window: how many of the transfer's
  /// packets sit between the reader and the wire. Shared by the reader
  /// task and the sender workers, hence reference-counted.
  struct SendWindow {
    Mutex mutex{lock_order::kAgentSendWindow};
    CondVar cv;
    size_t in_flight FASTPR_GUARDED_BY(mutex) = 0;
  };

  /// One packet handed from a reader to the sender workers.
  struct SendItem {
    net::Message msg;
    std::shared_ptr<SendWindow> window;
  };

  /// Per-task state of a node that receives the task's packets: its
  /// destination, or a chain hop >= 1. Dispatcher-confined, so neither
  /// role takes locks beyond the shared send machinery.
  struct TransferState {
    /// Attempt this state belongs to. A command with a higher attempt
    /// replaces the state wholesale; packets whose attempt or hop
    /// mismatches are stale (superseded retry) and dropped.
    uint32_t attempt = 0;
    uint32_t hop = 0;  // this node's chain slot; 0 at the destination
    /// Destination: the chunk being repaired. Hop: its own chunk, whose
    /// slices it folds in.
    cluster::ChunkRef chunk;
    uint64_t chunk_bytes = 0;
    uint64_t packet_bytes = 0;
    uint32_t total_packets = 0;
    /// Destination: streams folded per packet index (one per fan-in
    /// source, one for a chain) into the repaired chunk, a buffer of
    /// BufferPool::chunks() that the store keeps once the chunk is done.
    size_t streams = 1;
    PooledBuffer accumulator;
    /// Hop: own coefficient, and where folded packets go — the next
    /// hop, or the destination (next_hop 0).
    uint8_t coefficient = 0;
    cluster::NodeId next = cluster::kNoNode;
    uint32_t next_hop = 0;
    std::shared_ptr<SendWindow> window;
    /// Per packet index: the payloads+coefficients that have arrived so
    /// far. Once all streams are in, one fused dot_region_xor folds them
    /// into the accumulator and the buffers recycle. `senders` mirrors
    /// `payloads` so a duplicated packet (flaky network) cannot
    /// contribute the same stream twice; `done` rejects any duplicate
    /// arriving after the fold (or, at a hop, the forward).
    struct Pending {
      std::vector<PooledBuffer> payloads;
      std::vector<uint8_t> coeffs;
      std::vector<cluster::NodeId> senders;
      bool done = false;
    };
    std::vector<Pending> pending;
    uint32_t packets_complete = 0;
  };

  /// Packets parked for one task whose hop request has not arrived yet
  /// (TCP delivers the predecessor's stream and our request on
  /// unordered connections).
  static constexpr size_t kEarlyCap = 64;

  void dispatch_loop();
  void handle_repair_cmd(const net::Message& msg);
  void handle_fetch_request(const net::Message& msg);
  void handle_data_packet(net::Message&& msg);
  void handle_cancel_task(const net::Message& msg);
  void handle_ping(const net::Message& msg);
  void handle_lease_grant(const net::Message& msg);

  /// Samples the node's foreground pressure (zero without a source) and
  /// stamps it into the message's lease-protocol fields.
  void stamp_pressure(net::Message& msg);

  /// True when this node already holds or retired `attempt` (or a newer
  /// one) of the task: the command is a duplicate or superseded.
  bool stale_attempt(uint64_t task_id, uint32_t attempt) const;

  /// Erases a task's state, remembering its attempt as retired.
  void retire(std::unordered_map<uint64_t, TransferState>::iterator it);

  /// Runs as a reader task: hop 0 of a source chain streams `own` to
  /// `next` in pipelined read→send packets, each read as a slice into
  /// its payload — scaled by `coefficient` in place when `next` is a hop
  /// (next_hop >= 1).
  void stream_chunk(uint64_t task_id, uint32_t attempt,
                    cluster::ChunkRef chunk, cluster::ChunkRef own,
                    cluster::NodeId next, uint32_t next_hop,
                    uint8_t coefficient, uint64_t packet_bytes);

  /// Blocks until the transfer's window has room, then queues the
  /// packet for the sender workers.
  void enqueue_send(net::Message&& msg,
                    const std::shared_ptr<SendWindow>& window)
      FASTPR_EXCLUDES(send_mutex_);

  void sender_loop() FASTPR_EXCLUDES(send_mutex_);

  void report_failure(uint64_t task_id, uint32_t attempt,
                      const std::string& error);

  cluster::NodeId id_;
  net::Transport& transport_;
  ChunkStore& store_;
  AgentOptions options_;

  std::thread dispatcher_;
  /// Disk-reader tasks (stream_chunk) run here; destroyed (drained and
  /// joined) before the sender workers shut down so every queued packet
  /// still finds a live sender.
  std::unique_ptr<ThreadPool> reader_pool_;

  Mutex send_mutex_{lock_order::kAgentSendQueue};
  CondVar send_cv_;
  std::deque<SendItem> send_queue_ FASTPR_GUARDED_BY(send_mutex_);
  bool send_closed_ FASTPR_GUARDED_BY(send_mutex_) = false;
  std::vector<std::thread> senders_;

  std::unordered_map<uint64_t, TransferState> tasks_;  // dispatcher-only
  /// Packets that outran their hop request (dispatcher-only).
  std::unordered_map<uint64_t, std::vector<net::Message>> early_;
  /// A hop's own slice of the packet it is folding (dispatcher-only, so
  /// one buffer serves every hop state).
  PooledBuffer hop_scratch_;
  /// Highest attempt per task this node finished or had cancelled: its
  /// stragglers are dropped, not parked in early_ (dispatcher-only).
  std::unordered_map<uint64_t, uint32_t> retired_;
  bool started_ = false;
};

}  // namespace fastpr::agent
