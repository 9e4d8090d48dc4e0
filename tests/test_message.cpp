// Wire format: serialize/deserialize round-trips, size accounting,
// malformed-input rejection (fuzz-ish).
#include "net/message.h"

#include <gtest/gtest.h>

#include <random>

#include "util/units.h"

namespace fastpr::net {
namespace {

constexpr MessageType kAllTypes[] = {
    MessageType::kRepairCmd,  MessageType::kFetchRequest,
    MessageType::kDataPacket, MessageType::kTaskDone,
    MessageType::kTaskFailed, MessageType::kShutdown,
    MessageType::kPing,       MessageType::kPong,
    MessageType::kCancelTask, MessageType::kLeaseGrant,
    MessageType::kPressureReport,
};

Message sample_message() {
  Message m;
  m.type = MessageType::kRepairCmd;
  m.from = 3;
  m.to = 9;
  m.task_id = 0xDEADBEEFCAFEULL;
  m.attempt = 3;
  m.trace.trace_id = 0x1122334455667788ULL;
  m.trace.parent_span_id = 0x99AABBCCDDEEFF00ULL;
  m.trace.origin_node = 3;
  m.trace.origin_ts_us = 123456789;
  m.chunk = {42, 7};
  m.dst = 9;
  m.shape = RepairShape::kChain;
  m.coefficient = 0x1D;
  m.packet_index = 5;
  m.total_packets = 16;
  m.hop = 2;
  m.chunk_bytes = 1 * kMiB;
  m.packet_bytes = 64 * kKiB;
  m.sources = {{1, {42, 0}, 10}, {2, {42, 1}, 20}, {4, {42, 3}, 0}};
  m.error = "nothing";
  m.payload = {0x00, 0xFF, 0x10, 0x20};
  return m;
}

bool equal(const Message& a, const Message& b) {
  if (a.type != b.type || a.from != b.from || a.to != b.to ||
      a.task_id != b.task_id || a.attempt != b.attempt ||
      a.trace.trace_id != b.trace.trace_id ||
      a.trace.parent_span_id != b.trace.parent_span_id ||
      a.trace.origin_node != b.trace.origin_node ||
      a.trace.origin_ts_us != b.trace.origin_ts_us ||
      !(a.chunk == b.chunk) || a.dst != b.dst ||
      a.shape != b.shape || a.coefficient != b.coefficient ||
      a.packet_index != b.packet_index ||
      a.total_packets != b.total_packets || a.hop != b.hop ||
      a.chunk_bytes != b.chunk_bytes || a.packet_bytes != b.packet_bytes ||
      a.error != b.error || a.payload != b.payload ||
      a.sources.size() != b.sources.size()) {
    return false;
  }
  for (size_t i = 0; i < a.sources.size(); ++i) {
    if (a.sources[i].node != b.sources[i].node ||
        !(a.sources[i].chunk == b.sources[i].chunk) ||
        a.sources[i].coefficient != b.sources[i].coefficient) {
      return false;
    }
  }
  return true;
}

TEST(Message, RoundTrip) {
  const Message m = sample_message();
  const auto bytes = serialize(m);
  EXPECT_EQ(bytes.size(), m.encoded_size());
  const auto parsed = deserialize(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(equal(m, *parsed));
}

TEST(Message, RoundTripAllTypes) {
  for (const MessageType t : kAllTypes) {
    Message m = sample_message();
    m.type = t;
    const auto parsed = deserialize(serialize(m));
    ASSERT_TRUE(parsed.has_value()) << "type " << static_cast<int>(t);
    EXPECT_TRUE(equal(m, *parsed));
  }
}

TEST(Message, DataPacketPredicate) {
  // The payload-bearing streaming type — and only that — is shaped and
  // pooled as a data packet.
  for (const MessageType t : kAllTypes) {
    EXPECT_EQ(is_data_packet(t), t == MessageType::kDataPacket)
        << "type " << static_cast<int>(t);
  }
}

TEST(Message, EmptyFieldsRoundTrip) {
  Message m;
  m.type = MessageType::kTaskDone;
  m.from = 0;
  m.to = 1;
  const auto parsed = deserialize(serialize(m));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(equal(m, *parsed));
}

TEST(Message, LargePayloadRoundTrip) {
  Message m = sample_message();
  m.payload.assign(1 << 20, 0xAB);
  const auto parsed = deserialize(serialize(m));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->payload.size(), m.payload.size());
  EXPECT_EQ(parsed->payload, m.payload);
}

TEST(Message, TruncatedInputRejected) {
  const auto bytes = serialize(sample_message());
  for (size_t len : {size_t{0}, size_t{1}, bytes.size() / 2,
                     bytes.size() - 1}) {
    std::vector<uint8_t> cut(bytes.begin(),
                             bytes.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_FALSE(deserialize(cut).has_value()) << "len=" << len;
  }
}

TEST(Message, TrailingGarbageRejected) {
  auto bytes = serialize(sample_message());
  bytes.push_back(0x00);
  EXPECT_FALSE(deserialize(bytes).has_value());
}

TEST(Message, BadTypeOrModeRejected) {
  auto bytes = serialize(sample_message());
  bytes[0] = 0;  // type below range
  EXPECT_FALSE(deserialize(bytes).has_value());
  bytes = serialize(sample_message());
  bytes[0] = 99;  // type above range
  EXPECT_FALSE(deserialize(bytes).has_value());
  for (const uint8_t unassigned : {2, 11, 12}) {  // gaps in the enum
    bytes = serialize(sample_message());
    bytes[0] = unassigned;
    EXPECT_FALSE(deserialize(bytes).has_value()) << int{unassigned};
  }
  // The shape byte follows type, from, to, task_id, attempt, the 28-byte
  // trace context, chunk and dst.
  constexpr size_t kShapeOffset = 1 + 4 + 4 + 8 + 4 + 28 + 8 + 4;
  bytes = serialize(sample_message());
  ASSERT_EQ(bytes[kShapeOffset], static_cast<uint8_t>(RepairShape::kChain));
  bytes[kShapeOffset] = 2;  // shape above range
  EXPECT_FALSE(deserialize(bytes).has_value());
}

TEST(Message, RandomMutationNeverCrashes) {
  // Property: arbitrary bit flips either parse to something or are
  // rejected — no exceptions, no UB (run under the normal test harness;
  // sanitizer jobs would catch memory errors).
  std::mt19937 rng(99);
  const auto pristine = serialize(sample_message());
  for (int trial = 0; trial < 2000; ++trial) {
    auto bytes = pristine;
    const int flips = 1 + static_cast<int>(rng() % 8);
    for (int f = 0; f < flips; ++f) {
      bytes[rng() % bytes.size()] ^=
          static_cast<uint8_t>(1u << (rng() % 8));
    }
    (void)deserialize(bytes);  // must not crash
  }
  // Random length truncation/extension too.
  for (int trial = 0; trial < 500; ++trial) {
    auto bytes = pristine;
    bytes.resize(rng() % (pristine.size() * 2));
    (void)deserialize(bytes);
  }
}

TEST(Message, EncodedSizeTracksFields) {
  Message m;
  m.type = MessageType::kTaskDone;
  const size_t base = m.encoded_size();
  m.payload.assign(100, 1);
  EXPECT_EQ(m.encoded_size(), base + 100);
  m.error = "xyz";
  EXPECT_EQ(m.encoded_size(), base + 103);
  m.sources.push_back({});
  EXPECT_EQ(m.encoded_size(), base + 103 + 13);
}

}  // namespace
}  // namespace fastpr::net
