#include "agent/agent.h"

#include <algorithm>

#include "gf/gf256.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/check.h"
#include "util/logging.h"

namespace fastpr::agent {

using cluster::ChunkRef;
using cluster::NodeId;
using net::Message;
using net::MessageType;

namespace {

/// Bounded per-transfer read→send window (pipeline slack): a reader task
/// stalls once this many of its packets are queued or on the wire, which
/// is what paces the disk against the network.
constexpr size_t kPipelineDepth = 4;
/// Persistent disk-reader tasks servicing fetch requests.
constexpr size_t kReaderThreads = 4;
/// Persistent network-sender workers draining the packet queue. More
/// than one so a destination with a saturated downlink does not
/// head-of-line block streams this node sends to other destinations.
constexpr size_t kSenderThreads = 4;

telemetry::Counter& agent_counter(const char* name) {
  return telemetry::MetricsRegistry::global().counter(name);
}

/// Entry-point validation of the transfer fields an agent sizes buffers
/// with and indexes by: a command or request that fails it is dropped
/// and counted rather than trusted.
bool transfer_fields_ok(const Message& msg) {
  return msg.packet_bytes >= 1 && msg.packet_bytes <= msg.chunk_bytes &&
         !msg.sources.empty() &&
         msg.sources.size() <= net::kMaxRepairStreams &&
         msg.hop < msg.sources.size() &&
         (msg.shape == net::RepairShape::kFanIn ||
          msg.shape == net::RepairShape::kChain);
}

uint32_t packet_count(uint64_t chunk_bytes, uint64_t packet_bytes) {
  return static_cast<uint32_t>((chunk_bytes + packet_bytes - 1) /
                               packet_bytes);
}

std::string read_error(NodeId node, ChunkRef chunk) {
  return "read error on node " + std::to_string(node) + " for stripe " +
         std::to_string(chunk.stripe);
}

}  // namespace

Agent::Agent(NodeId id, net::Transport& transport, ChunkStore& store,
             const AgentOptions& options)
    : id_(id), transport_(transport), store_(store), options_(options) {
  FASTPR_CHECK(options.coordinator != cluster::kNoNode);
}

Agent::~Agent() { stop(); }

void Agent::start() {
  FASTPR_CHECK(!started_);
  started_ = true;
  {
    MutexLock lock(send_mutex_);
    send_closed_ = false;
  }
  reader_pool_ = std::make_unique<ThreadPool>(kReaderThreads);
  senders_.reserve(kSenderThreads);
  for (size_t i = 0; i < kSenderThreads; ++i) {
    senders_.emplace_back([this] { sender_loop(); });
  }
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

void Agent::stop() {
  if (!started_) return;
  // A shutdown message to ourselves pops the dispatcher out of recv().
  Message bye;
  bye.type = MessageType::kShutdown;
  bye.from = id_;
  bye.to = id_;
  // Self-delivered teardown signal; the join below is the "ack".
  transport_.send(std::move(bye));  // fastpr-lint: allow(ack-tracking)
  if (dispatcher_.joinable()) dispatcher_.join();
  // Teardown order matters: drain the readers first (their queued
  // packets need live senders), then close the send queue so the sender
  // workers exit once it is empty.
  reader_pool_.reset();
  {
    MutexLock lock(send_mutex_);
    send_closed_ = true;
  }
  send_cv_.notify_all();
  for (auto& s : senders_) {
    if (s.joinable()) s.join();
  }
  senders_.clear();
  started_ = false;
}

void Agent::report_failure(uint64_t task_id, uint32_t attempt,
                           const std::string& error) {
  Message msg;
  msg.type = MessageType::kTaskFailed;
  msg.from = id_;
  msg.to = options_.coordinator;
  msg.task_id = task_id;
  msg.attempt = attempt;
  msg.error = error;
  msg.trace = telemetry::current_trace_context();
  // Terminal failure report: the coordinator's pending map owns the
  // task and reacts (retry / fallback / abandon).
  transport_.send(std::move(msg));  // fastpr-lint: allow(ack-tracking)
}

void Agent::dispatch_loop() {
  for (;;) {
    auto msg = transport_.recv(id_);
    if (!msg.has_value()) return;  // transport shut down
    if (msg->type == MessageType::kShutdown) return;

    // Adopt the sender's causal context for the whole handler: spans
    // opened below (and contexts captured into reader/sender tasks)
    // parent under the sender's open span.
    telemetry::ScopedTraceContext adopt(msg->trace, id_);
    switch (msg->type) {
      case MessageType::kRepairCmd:
        handle_repair_cmd(*msg);
        break;
      case MessageType::kFetchRequest:
        handle_fetch_request(*msg);
        break;
      case MessageType::kDataPacket:
        handle_data_packet(std::move(*msg));
        break;
      case MessageType::kCancelTask:
        handle_cancel_task(*msg);
        break;
      case MessageType::kPing:
        handle_ping(*msg);
        break;
      case MessageType::kLeaseGrant:
        handle_lease_grant(*msg);
        break;
      default:
        LOG_WARN("agent " << id_ << ": unexpected message type "
                          << static_cast<int>(msg->type));
    }
  }
}

bool Agent::stale_attempt(uint64_t task_id, uint32_t attempt) const {
  const auto it = tasks_.find(task_id);
  if (it != tasks_.end() && it->second.attempt >= attempt) return true;
  const auto retired = retired_.find(task_id);
  return retired != retired_.end() && retired->second >= attempt;
}

void Agent::retire(std::unordered_map<uint64_t, TransferState>::iterator it) {
  uint32_t& retired = retired_[it->first];
  retired = std::max(retired, it->second.attempt);
  tasks_.erase(it);
}

void Agent::handle_repair_cmd(const Message& msg) {
  // We are the destination. Retries are idempotent: a command that does
  // not advance the attempt is a duplicate and must not restart the
  // streams; a higher attempt supersedes the old state wholesale (its
  // in-flight packets then fail the attempt check and drop).
  if (!transfer_fields_ok(msg)) {
    agent_counter("agent.malformed_msgs").add();
    return;
  }
  if (stale_attempt(msg.task_id, msg.attempt)) {
    agent_counter("agent.stale_cmds").add();
    return;
  }
  const bool chain = msg.shape == net::RepairShape::kChain;
  TransferState state;
  state.attempt = msg.attempt;
  state.chunk = msg.chunk;
  state.chunk_bytes = msg.chunk_bytes;
  state.packet_bytes = msg.packet_bytes;
  state.total_packets = packet_count(msg.chunk_bytes, msg.packet_bytes);
  state.streams = chain ? 1 : msg.sources.size();
  state.accumulator.assign(msg.chunk_bytes, 0);
  state.pending.resize(state.total_packets);
  tasks_[msg.task_id] = std::move(state);

  // Ask every source to stream: a fan-in source is a one-hop chain of
  // its own, a chain's hops each learn the whole chain. A chain is asked
  // last-hop-first, so on an ordered transport every hop's request lands
  // before its predecessor can stream into it; TCP's cross-connection
  // reordering is absorbed by the hops' early-packet buffer.
  const size_t n = msg.sources.size();
  for (size_t j = 0; j < n; ++j) {
    const size_t i = chain ? n - 1 - j : j;
    Message req;
    req.type = MessageType::kFetchRequest;
    req.from = id_;
    req.to = msg.sources[i].node;
    req.task_id = msg.task_id;
    req.attempt = msg.attempt;
    req.chunk = msg.chunk;
    req.dst = id_;
    req.chunk_bytes = msg.chunk_bytes;
    req.packet_bytes = msg.packet_bytes;
    if (chain) {
      req.sources = msg.sources;
      req.hop = static_cast<uint32_t>(i);
    } else {
      req.sources = {msg.sources[i]};
    }
    req.trace = telemetry::current_trace_context();
    // Tracked by the TransferState registered above: a source that
    // never streams stalls the task, which the coordinator's round
    // deadline + probe salvages.
    transport_.send(std::move(req));  // fastpr-lint: allow(ack-tracking)
  }
}

void Agent::handle_fetch_request(const Message& msg) {
  if (!transfer_fields_ok(msg)) {
    agent_counter("agent.malformed_msgs").add();
    return;
  }
  const net::SourceSpec& own = msg.sources[msg.hop];
  const bool last = msg.hop + 1 == msg.sources.size();
  const NodeId next = last ? msg.dst : msg.sources[msg.hop + 1].node;
  const uint32_t next_hop = last ? 0 : msg.hop + 1;

  if (msg.hop == 0) {
    // Nothing arrives at hop 0, so it keeps no state: a reader task
    // streams its chunk, and the receiver drops the copies a duplicated
    // request streams again.
    const uint64_t task_id = msg.task_id;
    const uint32_t attempt = msg.attempt;
    const ChunkRef chunk = msg.chunk;
    const ChunkRef own_chunk = own.chunk;
    const uint8_t coeff = own.coefficient;
    const uint64_t packet_bytes = msg.packet_bytes;
    // Contexts do not follow threads: capture ours so the reader task's
    // spans stay in the command's trace.
    const telemetry::TraceContext ctx = telemetry::current_trace_context();
    reader_pool_->post([this, task_id, attempt, chunk, own_chunk, next,
                        next_hop, coeff, packet_bytes, ctx] {
      telemetry::ScopedTraceContext adopt(ctx, id_);
      stream_chunk(task_id, attempt, chunk, own_chunk, next, next_hop,
                   coeff, packet_bytes);
    });
    return;
  }

  if (stale_attempt(msg.task_id, msg.attempt)) {
    agent_counter("agent.stale_cmds").add();
    return;
  }
  // Each arriving packet reads its own slice of our chunk as it folds,
  // charging that slice's disk time; check up front that the chunk is
  // readable and the length the destination expects.
  const auto own_bytes = store_.chunk_size(own.chunk);
  if (!own_bytes.has_value()) {
    report_failure(msg.task_id, msg.attempt, read_error(id_, own.chunk));
    return;
  }
  if (*own_bytes != msg.chunk_bytes) {
    agent_counter("agent.malformed_msgs").add();
    return;
  }
  TransferState state;
  state.attempt = msg.attempt;
  state.hop = msg.hop;
  state.chunk = own.chunk;
  state.chunk_bytes = msg.chunk_bytes;
  state.packet_bytes = msg.packet_bytes;
  state.total_packets = packet_count(msg.chunk_bytes, msg.packet_bytes);
  state.coefficient = own.coefficient;
  state.next = next;
  state.next_hop = next_hop;
  state.window = std::make_shared<SendWindow>();
  state.pending.resize(state.total_packets);
  tasks_[msg.task_id] = std::move(state);

  // Fold any of our predecessor's packets that outran the request.
  const auto early = early_.find(msg.task_id);
  if (early != early_.end()) {
    std::vector<Message> parked = std::move(early->second);
    early_.erase(early);
    for (auto& m : parked) {
      // Re-adopt each parked packet's own context: its spans belong to
      // the predecessor's stream, not to this request.
      telemetry::ScopedTraceContext packet_ctx(m.trace, id_);
      handle_data_packet(std::move(m));
    }
  }
}

void Agent::handle_cancel_task(const Message& msg) {
  // Cancel is keyed by attempt so a cancel racing a newer command
  // cannot kill the newer attempt's state. The cancelled attempt is
  // retired, so its stragglers drop instead of parking.
  uint32_t& retired = retired_[msg.task_id];
  retired = std::max(retired, msg.attempt);
  const auto it = tasks_.find(msg.task_id);
  if (it != tasks_.end() && it->second.attempt <= msg.attempt) {
    tasks_.erase(it);
    agent_counter("agent.cancelled_tasks").add();
  }
  const auto early = early_.find(msg.task_id);
  if (early != early_.end()) {
    std::erase_if(early->second, [&](const Message& m) {
      return m.attempt <= msg.attempt;
    });
    if (early->second.empty()) early_.erase(early);
  }
}

void Agent::handle_ping(const Message& msg) {
  Message pong;
  pong.type = MessageType::kPong;
  pong.from = id_;
  pong.to = msg.from;
  pong.task_id = msg.task_id;  // echoes the probe epoch
  // The captured context carries our local clock in origin_ts_us; the
  // coordinator's ClockSync turns ping/pong pairs into offsets.
  pong.trace = telemetry::current_trace_context();
  // Lease renewal piggybacks on the probe epoch: the pong's (otherwise
  // unused) chunk_bytes/packet_bytes carry this node's foreground
  // pressure, so every probe round-trip refreshes the throttler.
  stamp_pressure(pong);
  // Reply to a liveness probe; the coordinator's probe state tracks it.
  transport_.send(std::move(pong));  // fastpr-lint: allow(ack-tracking)
}

void Agent::stamp_pressure(Message& msg) {
  NodePressure pressure;
  if (options_.pressure != nullptr) {
    pressure = options_.pressure->sample(id_);
  }
  msg.chunk_bytes = static_cast<uint64_t>(
      std::max(0.0, pressure.p99_seconds) * 1e9);  // p99 in ns
  msg.packet_bytes =
      static_cast<uint64_t>(std::max(0.0, pressure.fg_bytes_per_sec));
}

void Agent::handle_lease_grant(const Message& msg) {
  if (options_.repair_budget != nullptr) {
    // Seq-monotonic application makes re-sent / reordered grants inert:
    // the budget only moves forward through the coordinator's sequence.
    options_.repair_budget->apply_grant(
        msg.task_id, static_cast<double>(msg.chunk_bytes),
        static_cast<int64_t>(msg.packet_bytes), telemetry::trace_now_us());
  }
  Message report;
  report.type = MessageType::kPressureReport;
  report.from = id_;
  report.to = msg.from;
  report.task_id = options_.repair_budget != nullptr
                       ? options_.repair_budget->applied_seq()
                       : msg.task_id;
  report.trace = telemetry::current_trace_context();
  stamp_pressure(report);
  // Lease-renewal reply; the coordinator's throttler consumes it (a
  // lost report just means this lease renews on the next tick or pong).
  transport_.send(std::move(report));  // fastpr-lint: allow(ack-tracking)
}

void Agent::enqueue_send(Message&& msg,
                         const std::shared_ptr<SendWindow>& window) {
  {
    MutexLock lock(window->mutex);
    const auto has_room = [&]() FASTPR_REQUIRES(window->mutex) {
      return window->in_flight < kPipelineDepth;
    };
    window->cv.wait(window->mutex, has_room);
    ++window->in_flight;
  }
  {
    MutexLock lock(send_mutex_);
    send_queue_.push_back(SendItem{std::move(msg), window});
  }
  send_cv_.notify_one();
}

void Agent::sender_loop() {
  for (;;) {
    SendItem item;
    {
      MutexLock lock(send_mutex_);
      const auto ready = [&]() FASTPR_REQUIRES(send_mutex_) {
        return send_closed_ || !send_queue_.empty();
      };
      send_cv_.wait(send_mutex_, ready);
      if (send_queue_.empty()) return;  // closed and drained
      item = std::move(send_queue_.front());
      send_queue_.pop_front();
    }
    {
      // Sender workers are shared across transfers: parent this packet's
      // send span under whatever span built the packet.
      telemetry::ScopedTraceContext adopt(item.msg.trace, id_);
      FASTPR_TRACE_SPAN("agent.send_packet", "agent",
                        static_cast<int64_t>(item.msg.task_id), "task");
      // Leased-budget enforcement (DESIGN.md §10): repair data blocks on
      // the coordinator's lease before it ever touches the NIC, so
      // foreground traffic keeps the un-leased remainder of the link.
      // Control messages are exempt — throttling acks would deadlock
      // repair against its own flow control. No locks held here.
      if (options_.repair_budget != nullptr &&
          net::is_data_packet(item.msg.type)) {
        options_.repair_budget->acquire(
            static_cast<int64_t>(item.msg.encoded_size()),
            telemetry::trace_now_us());
      }
      // Data packet tracked by its transfer's SendWindow (in_flight
      // slot released below); blocks on NIC shaping.
      transport_.send(std::move(item.msg));  // fastpr-lint: allow(ack-tracking)
    }
    {
      MutexLock lock(item.window->mutex);
      --item.window->in_flight;
    }
    item.window->cv.notify_all();
  }
}

void Agent::stream_chunk(uint64_t task_id, uint32_t attempt, ChunkRef chunk,
                         ChunkRef own, NodeId next, uint32_t next_hop,
                         uint8_t coefficient, uint64_t packet_bytes) {
  FASTPR_TRACE_SPAN("agent.stream_chunk", "agent",
                    static_cast<int64_t>(task_id), "task");
  static telemetry::Counter& tx_packets =
      agent_counter("agent.data_packets_tx");
  // Sized before the first packet, so an unreadable chunk fails the task
  // without streaming anything.
  const auto size = store_.chunk_size(own);
  if (!size.has_value()) {
    report_failure(task_id, attempt, read_error(id_, own));
    return;
  }
  const uint64_t chunk_bytes = *size;
  const uint32_t total_packets = packet_count(chunk_bytes, packet_bytes);

  // Paper §V multi-threading: this reader task paces the disk and feeds
  // the persistent sender workers; the window keeps at most
  // kPipelineDepth of this transfer's packets between disk and wire.
  const auto window = std::make_shared<SendWindow>();

  for (uint32_t p = 0; p < total_packets; ++p) {
    const uint64_t offset = static_cast<uint64_t>(p) * packet_bytes;
    const uint64_t len = std::min(packet_bytes, chunk_bytes - offset);
    store_.charge_io(static_cast<int64_t>(len));  // disk read time

    Message packet;
    packet.type = MessageType::kDataPacket;
    packet.from = id_;
    packet.to = next;
    packet.task_id = task_id;
    packet.attempt = attempt;
    packet.chunk = chunk;
    packet.coefficient = coefficient;
    packet.packet_index = p;
    packet.total_packets = total_packets;
    packet.hop = next_hop;
    packet.chunk_bytes = chunk_bytes;
    packet.packet_bytes = packet_bytes;
    packet.trace = telemetry::current_trace_context();
    // The packet's slice is read straight into its pool-recycled payload:
    // no copy of the whole chunk exists. After the destination folds the
    // packet in and drops it, the buffer comes back for a later packet.
    packet.payload.resize_uninitialized(len);
    if (!store_.read_slice(own, offset, packet.payload.span())) {
      tx_packets.add(p);
      report_failure(task_id, attempt, read_error(id_, own));
      return;
    }
    if (next_hop != 0) {
      // Seed partial sum of a chain, scaled in place: every later hop
      // folds into it, and the destination takes the sum as is.
      gf::mul_region(packet.payload.data(), packet.payload.data(),
                     coefficient, len);
      packet.coefficient = 1;
    }
    enqueue_send(std::move(packet), window);
  }
  tx_packets.add(total_packets);
}

void Agent::handle_data_packet(Message&& msg) {
  // Static refs: one registry lookup per process, not per packet.
  static telemetry::Counter& rx_packets =
      agent_counter("agent.data_packets_rx");
  static telemetry::Counter& stale_packets =
      agent_counter("agent.stale_packets");
  static telemetry::Counter& dup_packets = agent_counter("agent.dup_packets");
  static telemetry::Counter& forwards = agent_counter("agent.chain_forwards");
  rx_packets.add();
  const auto it = tasks_.find(msg.task_id);
  if (it == tasks_.end()) {
    const auto retired = retired_.find(msg.task_id);
    if (retired != retired_.end() && retired->second >= msg.attempt) {
      // Straggler of an attempt this node already finished or dropped.
      dup_packets.add();
      return;
    }
    if (msg.hop == 0) {
      // A destination registers before it requests any stream: this is
      // a superseded attempt's stream (or a cancelled task) draining.
      stale_packets.add();
      return;
    }
    // Our hop request may still be in flight (TCP orders frames per
    // connection, not across them): park the packet until it lands.
    auto& parked = early_[msg.task_id];
    if (parked.size() >= kEarlyCap) {
      stale_packets.add();
      return;
    }
    parked.push_back(std::move(msg));
    return;
  }

  TransferState& state = it->second;
  if (msg.attempt != state.attempt || msg.hop != state.hop) {
    // Stale stream of a superseded attempt: folding it in would corrupt
    // the current attempt's sum.
    stale_packets.add();
    return;
  }
  const uint64_t offset =
      static_cast<uint64_t>(msg.packet_index) * state.packet_bytes;
  const size_t len = msg.payload.size();
  if (msg.packet_index >= state.total_packets ||
      len != std::min(state.packet_bytes, state.chunk_bytes - offset)) {
    agent_counter("agent.malformed_msgs").add();
    return;
  }
  auto& pending = state.pending[msg.packet_index];
  if (pending.done) {
    // Already folded: a duplicated packet (flaky network) arriving
    // after its index completed must not double-contribute.
    dup_packets.add();
    return;
  }

  if (state.hop != 0) {
    {
      FASTPR_TRACE_SPAN("agent.chain_forward", "agent",
                        static_cast<int64_t>(msg.task_id), "task");
      store_.charge_io(static_cast<int64_t>(len));  // own-chunk read share
      // Read our slice into the reused scratch buffer and fold our scaled
      // contribution into the running partial sum in place on the pooled
      // payload (single-source dot_region_xor = one fused multiply-XOR
      // pass).
      hop_scratch_.resize_uninitialized(len);
      if (!store_.read_slice(state.chunk, offset, hop_scratch_.span())) {
        report_failure(msg.task_id, state.attempt,
                       read_error(id_, state.chunk));
        retire(it);
        return;
      }
      const uint8_t* own_slice = hop_scratch_.data();
      gf::dot_region_xor(msg.payload.data(), &own_slice, &state.coefficient,
                         1, len);
      msg.from = id_;
      msg.to = state.next;
      msg.hop = state.next_hop;
      msg.coefficient = 1;
      msg.trace = telemetry::current_trace_context();
      pending.done = true;
      ++state.packets_complete;
      // Send-window pipelining: up to kPipelineDepth of this chain's
      // forwards sit between the fold and the wire; the wait here is the
      // hop's backpressure (a slow successor paces us, and through us
      // the whole upstream chain).
      enqueue_send(std::move(msg), state.window);
    }
    forwards.add();
    if (state.packets_complete == state.total_packets) retire(it);
    return;
  }

  if (state.streams == 1) {
    // Single stream (migration, chain, or one-source fan-in): no fan-in
    // to wait for — scale-copy straight into place and recycle.
    gf::mul_region(state.accumulator.data() + offset, msg.payload.data(),
                   msg.coefficient, len);
  } else {
    // Fan-in: park the stream's contribution until every source's
    // packet for this index has arrived, then fold all of them into the
    // accumulator with one fused dot pass (one sweep over the packet
    // instead of one per stream). A sender contributes at most once per
    // index (duplicate-packet dedupe).
    for (NodeId sender : pending.senders) {
      if (sender == msg.from) {
        dup_packets.add();
        return;
      }
    }
    pending.payloads.push_back(std::move(msg.payload));
    pending.coeffs.push_back(msg.coefficient);
    pending.senders.push_back(msg.from);
    if (pending.payloads.size() < state.streams) return;
    const uint8_t* srcs[net::kMaxRepairStreams];
    const size_t n = pending.payloads.size();
    FASTPR_CHECK(n <= net::kMaxRepairStreams);  // validated at the command
    for (size_t j = 0; j < n; ++j) srcs[j] = pending.payloads[j].data();
    FASTPR_TRACE_SPAN("agent.accumulate", "agent",
                      static_cast<int64_t>(msg.task_id), "task");
    gf::dot_region_xor(state.accumulator.data() + offset, srcs,
                       pending.coeffs.data(), n, len);
    pending.payloads.clear();  // recycles the pooled buffers
    pending.coeffs.clear();
    pending.senders.clear();
  }

  // This packet of the repaired chunk is final: write it out now
  // (pipelined disk write), matching the paper's decode-as-you-go.
  pending.done = true;
  store_.charge_io(static_cast<int64_t>(len));
  if (++state.packets_complete < state.total_packets) return;
  FASTPR_TRACE_SPAN("agent.store_chunk", "agent",
                    static_cast<int64_t>(msg.task_id), "task");
  store_.write_unthrottled(state.chunk, std::move(state.accumulator));
  Message done;
  done.type = MessageType::kTaskDone;
  done.from = id_;
  done.to = options_.coordinator;
  done.task_id = msg.task_id;
  done.attempt = state.attempt;
  done.chunk = state.chunk;
  done.trace = telemetry::current_trace_context();
  // Completion ack: the coordinator's pending map consumes it.
  transport_.send(std::move(done));  // fastpr-lint: allow(ack-tracking)
  retire(it);
}

}  // namespace fastpr::agent
