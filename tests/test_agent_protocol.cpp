// The agent's transfer protocol on raw messages (DESIGN.md §5b): one
// live agent on an in-process transport, with the test playing the
// coordinator and every other node by writing and reading their inboxes
// directly. That lets a test order messages as only TCP's
// cross-connection reordering can on a real cluster (a hop's packet
// before its fetch request), and feed the agent messages no correct peer
// sends (malformed commands and packets), which it must drop without
// dying.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "agent/agent.h"
#include "agent/chunk_store.h"
#include "gf/gf256.h"
#include "net/inproc_transport.h"
#include "telemetry/metrics.h"

namespace fastpr::agent {
namespace {

using cluster::ChunkRef;
using cluster::NodeId;
using net::Message;
using net::MessageType;

constexpr NodeId kAgent = 0;  // the live agent under test
constexpr NodeId kPeerA = 1;  // a source / the chain head
constexpr NodeId kPeerB = 2;  // a source / the chain's destination
constexpr NodeId kCoord = 3;  // the agent's coordinator (acks land here)
constexpr NodeId kProbe = 4;  // pings the agent to fence its dispatcher
constexpr int kNodes = 5;

// An odd tail on purpose: three full packets and one of 232 bytes.
constexpr uint64_t kChunkBytes = 1000;
constexpr uint64_t kPacketBytes = 256;
constexpr uint32_t kPackets = 4;

constexpr auto kWait = std::chrono::milliseconds(5000);
constexpr auto kQuiet = std::chrono::milliseconds(200);

std::vector<uint8_t> pattern(uint8_t seed) {
  std::vector<uint8_t> bytes(kChunkBytes);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(i * 7 + seed * 31 + (i >> 8));
  }
  return bytes;
}

uint64_t slot_offset(uint32_t index) { return index * kPacketBytes; }

uint64_t slot_len(uint32_t index) {
  return std::min(kPacketBytes, kChunkBytes - slot_offset(index));
}

int64_t counter(const char* name) {
  return telemetry::MetricsRegistry::global().counter(name).value();
}

/// Expected counter movement: counters stay at zero when telemetry is
/// compiled out.
int64_t counted(int64_t n) { return FASTPR_TELEMETRY_ENABLED ? n : 0; }

class AgentProtocolTest : public ::testing::Test {
 protected:
  AgentProtocolTest()
      : transport_(kNodes, net::InprocTransport::Options{}),
        store_(ChunkStore::Options{}) {
    AgentOptions opts;
    opts.coordinator = kCoord;
    agent_ = std::make_unique<Agent>(kAgent, transport_, store_, opts);
    agent_->start();
  }

  ~AgentProtocolTest() override {
    agent_->stop();
    transport_.shutdown();
  }

  void send(Message msg) { transport_.send(std::move(msg)); }

  std::optional<Message> recv(NodeId node,
                              std::chrono::milliseconds timeout = kWait) {
    return transport_.recv(node, timeout);
  }

  /// Returns once the agent's dispatcher has handled everything sent to
  /// it so far: its inbox is FIFO and it answers the ping in order.
  void fence() {
    Message ping;
    ping.type = MessageType::kPing;
    ping.from = kProbe;
    ping.to = kAgent;
    ping.task_id = ++fence_epoch_;
    send(std::move(ping));
    const auto pong = recv(kProbe);
    ASSERT_TRUE(pong.has_value());
    ASSERT_EQ(pong->type, MessageType::kPong);
    ASSERT_EQ(pong->task_id, fence_epoch_);
  }

  /// One packet of `chunk` (sliced at `index`) addressed to the agent.
  static Message packet(NodeId from, uint64_t task, uint32_t attempt,
                        uint32_t hop, uint32_t index,
                        const std::vector<uint8_t>& chunk,
                        uint8_t coefficient) {
    Message msg;
    msg.type = MessageType::kDataPacket;
    msg.from = from;
    msg.to = kAgent;
    msg.task_id = task;
    msg.attempt = attempt;
    msg.hop = hop;
    msg.coefficient = coefficient;
    msg.packet_index = index;
    msg.total_packets = kPackets;
    msg.chunk_bytes = kChunkBytes;
    msg.packet_bytes = kPacketBytes;
    msg.payload.assign(chunk.data() + slot_offset(index), slot_len(index));
    return msg;
  }

  net::InprocTransport transport_;
  ChunkStore store_;
  std::unique_ptr<Agent> agent_;
  uint64_t fence_epoch_ = 0;
};

// ---------------------------------------------------------------------------
// Malformed input: every bad command or packet is dropped and counted,
// and the same agent then completes a valid transfer.

Message repair_cmd(uint64_t task, uint64_t packet_bytes,
                   std::vector<net::SourceSpec> sources) {
  Message cmd;
  cmd.type = MessageType::kRepairCmd;
  cmd.from = kCoord;
  cmd.to = kAgent;
  cmd.task_id = task;
  cmd.attempt = 1;
  cmd.chunk = {9, 0};
  cmd.dst = kAgent;
  cmd.chunk_bytes = kChunkBytes;
  cmd.packet_bytes = packet_bytes;
  cmd.sources = std::move(sources);
  return cmd;
}

TEST_F(AgentProtocolTest, MalformedMessagesAreDroppedAndAgentSurvives) {
  const auto a = pattern(1);
  const auto b = pattern(2);
  const net::SourceSpec src_a{kPeerA, {9, 1}, 0x1D};
  const net::SourceSpec src_b{kPeerB, {9, 2}, 0x53};
  const int64_t malformed_before = counter("agent.malformed_msgs");

  std::vector<Message> bad;
  bad.push_back(repair_cmd(1, 0, {src_a}));  // zero packet size
  bad.push_back(repair_cmd(2, kChunkBytes + 1, {src_a}));  // > chunk
  bad.push_back(repair_cmd(3, kPacketBytes, {}));          // no sources
  bad.push_back(repair_cmd(
      4, kPacketBytes,
      std::vector<net::SourceSpec>(net::kMaxRepairStreams + 1, src_a)));
  Message bad_shape = repair_cmd(5, kPacketBytes, {src_a});
  bad_shape.shape = static_cast<net::RepairShape>(7);
  bad.push_back(std::move(bad_shape));
  Message bad_hop = repair_cmd(6, kPacketBytes, {src_a, src_b});
  bad_hop.type = MessageType::kFetchRequest;  // hop past its chain
  bad_hop.hop = 2;
  bad.push_back(std::move(bad_hop));
  Message bad_fetch = repair_cmd(7, 0, {src_a});
  bad_fetch.type = MessageType::kFetchRequest;  // zero packet size
  bad.push_back(std::move(bad_fetch));
  Message huge = repair_cmd(9, kPacketBytes, {src_a});
  huge.chunk_bytes = BufferPool::kMaxBytes + 1;  // past any chunk buffer
  bad.push_back(std::move(huge));
  const size_t bad_commands = bad.size();
  for (auto& msg : bad) send(std::move(msg));

  // A valid two-source fan-in: the agent asks both sources to stream.
  constexpr uint64_t kTask = 8;
  Message cmd = repair_cmd(kTask, kPacketBytes, {src_a, src_b});
  send(std::move(cmd));
  for (const NodeId source : {kPeerA, kPeerB}) {
    const auto req = recv(source);
    ASSERT_TRUE(req.has_value());
    ASSERT_EQ(req->type, MessageType::kFetchRequest);
    EXPECT_EQ(req->task_id, kTask);
    EXPECT_EQ(req->dst, kAgent);
    EXPECT_EQ(req->hop, 0u);
    ASSERT_EQ(req->sources.size(), 1u);  // its own one-hop chain
    EXPECT_EQ(req->sources[0].node, source);
  }

  // Packets outside their slot: an index past the chunk and a payload
  // shorter than its slot.
  Message past_end = packet(kPeerA, kTask, 1, 0, 0, a, src_a.coefficient);
  past_end.packet_index = kPackets;
  send(std::move(past_end));
  Message short_payload =
      packet(kPeerA, kTask, 1, 0, 0, a, src_a.coefficient);
  short_payload.payload.assign(a.data(), kPacketBytes - 1);
  send(std::move(short_payload));
  fence();
  EXPECT_EQ(counter("agent.malformed_msgs") - malformed_before,
            counted(static_cast<int64_t>(bad_commands) + 2));
  EXPECT_FALSE(recv(kPeerA, kQuiet).has_value());  // nothing was fetched
  EXPECT_FALSE(recv(kCoord, kQuiet).has_value());  // nothing was acked

  for (uint32_t p = 0; p < kPackets; ++p) {
    send(packet(kPeerA, kTask, 1, 0, p, a, src_a.coefficient));
    send(packet(kPeerB, kTask, 1, 0, p, b, src_b.coefficient));
  }
  const auto done = recv(kCoord);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->type, MessageType::kTaskDone);
  EXPECT_EQ(done->task_id, kTask);
  std::vector<uint8_t> expected(kChunkBytes);
  for (size_t i = 0; i < kChunkBytes; ++i) {
    expected[i] = gf::mul(src_a.coefficient, a[i]) ^
                  gf::mul(src_b.coefficient, b[i]);
  }
  const auto stored = store_.read(ChunkRef{9, 0});
  ASSERT_TRUE(stored.has_value());
  EXPECT_TRUE(*stored == expected);
}

// ---------------------------------------------------------------------------
// The hop protocol. The agent is hop 1 of the chain kPeerA → kAgent →
// kPeerB: it folds c·(own packet) into each packet from the head and
// forwards the sum to the destination.

constexpr uint64_t kChainTask = 42;
constexpr ChunkRef kRepaired{5, 3};
constexpr ChunkRef kOwnChunk{5, 1};
constexpr uint8_t kOwnCoeff = 0x53;

class HopProtocolTest : public AgentProtocolTest {
 protected:
  HopProtocolTest() : own_(pattern(3)), head_(pattern(4)) {
    store_.write(kOwnChunk, own_);
  }

  /// The destination's fetch request naming the agent as hop 1.
  static Message hop_request(uint32_t attempt) {
    Message req;
    req.type = MessageType::kFetchRequest;
    req.from = kPeerB;
    req.to = kAgent;
    req.task_id = kChainTask;
    req.attempt = attempt;
    req.chunk = kRepaired;
    req.dst = kPeerB;
    req.hop = 1;
    req.chunk_bytes = kChunkBytes;
    req.packet_bytes = kPacketBytes;
    req.sources = {{kPeerA, {5, 0}, 0x1D}, {kAgent, kOwnChunk, kOwnCoeff}};
    return req;
  }

  /// The head's partial sum for packet `index`, addressed to hop 1.
  Message head_packet(uint32_t attempt, uint32_t index) const {
    return packet(kPeerA, kChainTask, attempt, 1, index, head_, 1);
  }

  /// Receives one forward at the destination and checks it carries the
  /// head's sum with the agent's own term folded in.
  void expect_forward(uint32_t attempt, uint32_t* index_out = nullptr) {
    const auto fwd = recv(kPeerB);
    ASSERT_TRUE(fwd.has_value());
    ASSERT_EQ(fwd->type, MessageType::kDataPacket);
    EXPECT_EQ(fwd->from, kAgent);
    EXPECT_EQ(fwd->task_id, kChainTask);
    EXPECT_EQ(fwd->attempt, attempt);
    EXPECT_EQ(fwd->hop, 0u);  // addressed to the destination
    EXPECT_EQ(fwd->coefficient, 1);
    const uint32_t p = fwd->packet_index;
    ASSERT_LT(p, kPackets);
    ASSERT_EQ(fwd->payload.size(), slot_len(p));
    for (size_t i = 0; i < fwd->payload.size(); ++i) {
      const size_t at = slot_offset(p) + i;
      ASSERT_EQ(fwd->payload.data()[i],
                head_[at] ^ gf::mul(kOwnCoeff, own_[at]))
          << "packet " << p << " byte " << i;
    }
    if (index_out != nullptr) *index_out = p;
  }

  /// Receives exactly one forward per packet index, then checks the
  /// destination hears nothing more.
  void expect_all_forwards_once(uint32_t attempt) {
    std::vector<int> seen(kPackets, 0);
    for (uint32_t n = 0; n < kPackets; ++n) {
      uint32_t p = 0;
      expect_forward(attempt, &p);
      if (HasFatalFailure()) return;
      ++seen[p];
    }
    EXPECT_EQ(seen, std::vector<int>(kPackets, 1));
    fence();
    EXPECT_FALSE(recv(kPeerB, kQuiet).has_value());
  }

  std::vector<uint8_t> own_;
  std::vector<uint8_t> head_;
};

TEST_F(HopProtocolTest, EarlyPacketIsParkedThenFoldedWhenRequestLands) {
  send(head_packet(1, 0));  // outruns the hop's fetch request
  fence();
  EXPECT_FALSE(recv(kPeerB, kQuiet).has_value());  // parked, not dropped

  send(hop_request(1));
  uint32_t first = kPackets;
  expect_forward(1, &first);
  EXPECT_EQ(first, 0u);
  for (uint32_t p = 1; p < kPackets; ++p) send(head_packet(1, p));
  for (uint32_t p = 1; p < kPackets; ++p) expect_forward(1);
  fence();
  EXPECT_FALSE(recv(kPeerB, kQuiet).has_value());
}

TEST_F(HopProtocolTest, DuplicatedPacketFoldsOnce) {
  const int64_t dups_before = counter("agent.dup_packets");
  send(hop_request(1));
  send(head_packet(1, 0));
  send(head_packet(1, 0));  // the network duplicated it
  for (uint32_t p = 1; p < kPackets; ++p) send(head_packet(1, p));
  expect_all_forwards_once(1);
  EXPECT_EQ(counter("agent.dup_packets") - dups_before, counted(1));
}

TEST_F(HopProtocolTest, HigherAttemptDropsSupersededPackets) {
  const int64_t stale_before = counter("agent.stale_packets");
  send(hop_request(1));
  send(hop_request(2));  // the coordinator reissued the chain
  send(head_packet(1, 0));  // the superseded attempt, still draining
  for (uint32_t p = 0; p < kPackets; ++p) send(head_packet(2, p));
  expect_all_forwards_once(2);
  EXPECT_EQ(counter("agent.stale_packets") - stale_before, counted(1));
}

TEST_F(HopProtocolTest, StragglerForFinishedHopIsDroppedNotParked) {
  send(hop_request(1));
  for (uint32_t p = 0; p < kPackets; ++p) send(head_packet(1, p));
  expect_all_forwards_once(1);  // the hop finished and retired

  const int64_t dups_before = counter("agent.dup_packets");
  const int64_t stale_before = counter("agent.stale_packets");
  send(head_packet(1, 2));  // straggler of the finished attempt
  fence();
  EXPECT_EQ(counter("agent.dup_packets") - dups_before, counted(1));
  // A later attempt at this hop drains whatever is parked for the task:
  // a parked straggler would surface there as a stale drop.
  send(hop_request(2));
  for (uint32_t p = 0; p < kPackets; ++p) send(head_packet(2, p));
  expect_all_forwards_once(2);
  EXPECT_EQ(counter("agent.stale_packets") - stale_before, 0);
}

}  // namespace
}  // namespace fastpr::agent
