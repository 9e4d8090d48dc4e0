// Wire messages of the FastPR prototype (coordinator ⇄ agents).
//
// A fixed header plus an opaque payload. Messages carry everything an
// agent needs to act without consulting global state, mirroring the
// paper's coordinator/agent command protocol (§V). The binary encoding
// is used verbatim by the TCP transport; the in-process transport moves
// Message objects but accounts for encoded_size() against the shaped
// bandwidth, so both transports price traffic identically.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/types.h"
#include "telemetry/trace.h"
#include "util/buffer_pool.h"

namespace fastpr::net {

enum class MessageType : uint8_t {
  kRepairCmd = 1,       // coordinator → destination agent (one per attempt)
  kFetchRequest = 3,    // destination agent → every source of the task
  kDataPacket = 4,      // source/hop agent → next hop or destination
  kTaskDone = 5,        // destination agent → coordinator
  kTaskFailed = 6,      // any agent → coordinator
  kShutdown = 7,        // coordinator → agent
  kPing = 8,            // coordinator → agent (liveness probe)
  kPong = 9,            // agent → coordinator (probe reply)
  kCancelTask = 10,     // coordinator → agent (drop a stale attempt)
  /// Repair-bandwidth lease (coordinator → agent, DESIGN.md §10).
  /// Field reuse, no new wire fields: task_id = lease sequence number
  /// (globally monotonic; agents apply only seq-increasing grants, so a
  /// re-sent or reordered grant can never double-apply), chunk_bytes =
  /// granted repair rate in bytes/s, packet_bytes = lease TTL in µs.
  kLeaseGrant = 13,
  /// Foreground-pressure report (agent → coordinator): task_id = highest
  /// lease seq applied, chunk_bytes = observed foreground p99 latency in
  /// ns, packet_bytes = observed foreground throughput in bytes/s.
  /// Sent in reply to every kLeaseGrant; kPong piggybacks the same two
  /// fields so probe round-trips refresh the throttler too.
  kPressureReport = 14,
};

/// Payload-bearing repair traffic: what the transports shape against the
/// network budget and count as repair bytes. Everything else is control.
constexpr bool is_data_packet(MessageType t) {
  return t == MessageType::kDataPacket;
}

/// How a kRepairCmd's sources reach its destination. Every source is a
/// hop of a source chain: hop 0 streams its chunk, each later hop folds
/// c·(own packet) into every packet it receives and forwards the sum.
/// kFanIn gives each source a one-hop chain of its own, so the
/// destination folds one stream per source; a migration is the fan-in
/// of one source, the STF's own chunk with coefficient 1. kChain runs
/// all sources as one chain in the given order (repair pipelining).
enum class RepairShape : uint8_t {
  kFanIn = 0,
  kChain = 1,
};

/// Upper bound on the sources of one repair task (paper configs top out
/// at k = 12 for RS(12,4); headroom beyond that).
constexpr size_t kMaxRepairStreams = 32;

/// One source of a repair task.
struct SourceSpec {
  cluster::NodeId node = cluster::kNoNode;
  cluster::ChunkRef chunk;   // the source's chunk on that node
  uint8_t coefficient = 0;   // GF(256) decode coefficient
};

struct Message {
  MessageType type = MessageType::kShutdown;
  cluster::NodeId from = cluster::kNoNode;
  cluster::NodeId to = cluster::kNoNode;

  uint64_t task_id = 0;
  /// Retry attempt of task_id this message belongs to (1-based for task
  /// traffic, 0 for attempt-less messages). A task_id is stable across
  /// retries while the attempt increments, so agents can dedupe
  /// duplicate commands and drop packets of superseded attempts.
  uint32_t attempt = 0;
  /// Causal trace context (28 wire bytes): the sender's open span, so
  /// handlers on the receiving node parent their spans under it
  /// (telemetry::ScopedTraceContext). origin_ts_us doubles as the
  /// clock-sync sample on kPing/kPong probes. All-zero when tracing is
  /// off or compiled out — the wire layout never changes.
  telemetry::TraceContext trace;
  cluster::ChunkRef chunk;       // the chunk being repaired
  cluster::NodeId dst = cluster::kNoNode;  // the task's destination
  RepairShape shape = RepairShape::kFanIn;  // kRepairCmd only
  /// kDataPacket: what the destination multiplies the payload by (1
  /// for a chain's folded sum).
  uint8_t coefficient = 0;
  uint32_t packet_index = 0;
  uint32_t total_packets = 0;
  /// Chain position. kFetchRequest: the receiver's slot in `sources`.
  /// kDataPacket: the slot of the hop the packet is addressed to, 0 when
  /// it goes to the destination (hop 0 never receives packets).
  uint32_t hop = 0;
  uint64_t chunk_bytes = 0;
  uint64_t packet_bytes = 0;
  /// kRepairCmd: every source of the task. kFetchRequest: the
  /// receiver's source chain in hop order.
  std::vector<SourceSpec> sources;
  std::string error;                 // kTaskFailed only
  /// kDataPacket only. Pool-recycled: steady-state packet traffic reuses
  /// retired payload buffers instead of allocating per packet. Makes
  /// Message move-only; use clone() where a test needs a copy.
  PooledBuffer payload;

  /// Size of the serialized form; the unit charged against bandwidth.
  size_t encoded_size() const;

  /// Deep copy (payload cloned through the pool).
  Message clone() const;
};

/// Length-prefixed binary encoding (little-endian).
std::vector<uint8_t> serialize(const Message& msg);

/// serialize() into a pool-recycled frame buffer — the TCP send path,
/// which would otherwise allocate one frame per packet.
PooledBuffer serialize_pooled(const Message& msg);

/// Parses one message from `bytes` (the full frame, without the length
/// prefix). The payload lands in a pool-recycled buffer. Returns nullopt
/// on malformed input.
std::optional<Message> deserialize(std::span<const uint8_t> bytes);

}  // namespace fastpr::net
