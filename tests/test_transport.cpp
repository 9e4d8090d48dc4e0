// Transports: delivery, ordering, shutdown semantics, bandwidth shaping
// timing, and TCP-over-loopback equivalence.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "net/inproc_transport.h"
#include "net/tcp_transport.h"
#include "util/units.h"

namespace fastpr::net {
namespace {

Message data_packet(int from, int to, size_t payload_bytes) {
  Message m;
  m.type = MessageType::kDataPacket;
  m.from = from;
  m.to = to;
  m.payload.assign(payload_bytes, 0x5A);
  return m;
}

Message control(int from, int to, MessageType type = MessageType::kTaskDone) {
  Message m;
  m.type = type;
  m.from = from;
  m.to = to;
  m.task_id = 7;
  return m;
}

template <typename T>
std::unique_ptr<Transport> make_transport(int nodes, double rate) {
  typename T::Options opts;
  opts.net_bytes_per_sec = rate;
  return std::make_unique<T>(nodes, opts);
}

class TransportTest : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<Transport> create(int nodes, double rate = 0) {
    if (std::string(GetParam()) == "tcp") {
      return make_transport<TcpTransport>(nodes, rate);
    }
    return make_transport<InprocTransport>(nodes, rate);
  }
};

TEST_P(TransportTest, DeliversToAddressee) {
  auto t = create(3);
  t->send(control(0, 2));
  const auto msg = t->recv(2, std::chrono::milliseconds(2000));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->from, 0);
  EXPECT_EQ(msg->task_id, 7u);
  // Nothing for node 1.
  EXPECT_FALSE(t->recv(1, std::chrono::milliseconds(50)).has_value());
  t->shutdown();
}

TEST_P(TransportTest, PreservesPairwiseOrder) {
  auto t = create(2);
  for (uint64_t i = 0; i < 50; ++i) {
    auto m = control(0, 1);
    m.task_id = i;
    t->send(std::move(m));
  }
  for (uint64_t i = 0; i < 50; ++i) {
    const auto msg = t->recv(1, std::chrono::milliseconds(2000));
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->task_id, i);
  }
  t->shutdown();
}

TEST_P(TransportTest, PayloadIntegrity) {
  auto t = create(2);
  auto m = data_packet(0, 1, 100000);
  for (size_t i = 0; i < m.payload.size(); ++i) {
    m.payload[i] = static_cast<uint8_t>(i * 31);
  }
  const auto expected = m.payload.clone();
  t->send(std::move(m));
  const auto got = t->recv(1, std::chrono::milliseconds(2000));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, expected);
  t->shutdown();
}

TEST_P(TransportTest, ShutdownUnblocksReceivers) {
  auto t = create(2);
  std::thread receiver([&] {
    const auto msg = t->recv(1, std::nullopt);
    EXPECT_FALSE(msg.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  t->shutdown();
  receiver.join();
}

TEST_P(TransportTest, ShapingSlowsDataPackets) {
  // 2 MB/s rate, ~2 MB transfer beyond burst: expect >= ~0.5 s.
  auto t = create(2, 2e6);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 3; ++i) {
    t->send(data_packet(0, 1, 1'000'000));
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(t->recv(1, std::chrono::milliseconds(10000)).has_value());
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GT(secs, 0.3);
  t->shutdown();
}

TEST_P(TransportTest, ControlMessagesRideFree) {
  auto t = create(2, 1000.0);  // 1 KB/s: data would crawl
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 20; ++i) t->send(control(0, 1));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(t->recv(1, std::chrono::milliseconds(2000)).has_value());
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(secs, 1.0);
  t->shutdown();
}

INSTANTIATE_TEST_SUITE_P(Kinds, TransportTest,
                         ::testing::Values("inproc", "tcp"));

TEST(InprocTransport, TracksBytesSent) {
  // Repair-traffic accounting: a control message adds nothing, a data
  // packet adds its encoded size.
  InprocTransport::Options opts;
  InprocTransport t(2, opts);
  t.send(control(0, 1));
  EXPECT_EQ(t.data_bytes_sent(), 0);
  auto packet = data_packet(0, 1, 1000);
  const auto size = packet.encoded_size();
  t.send(std::move(packet));
  EXPECT_EQ(t.data_bytes_sent(), static_cast<int64_t>(size));
  t.shutdown();
}

TEST(InprocTransport, PerNodeBandwidthOverride) {
  InprocTransport::Options opts;
  opts.net_bytes_per_sec = 0;  // unlimited default
  InprocTransport t(3, opts);
  t.set_node_bandwidth(1, MBps(1));  // throttle node 1 only
  // Node 0 → 2 stays fast.
  const auto start = std::chrono::steady_clock::now();
  t.send(data_packet(0, 2, 4'000'000));
  ASSERT_TRUE(t.recv(2, std::chrono::milliseconds(3000)).has_value());
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            0.5);
  t.shutdown();
}

TEST(TcpTransport, ManyNodesBootAndStop) {
  TcpTransport::Options opts;
  TcpTransport t(25, opts);
  t.send(control(24, 0));
  ASSERT_TRUE(t.recv(0, std::chrono::milliseconds(2000)).has_value());
  t.shutdown();
}

}  // namespace
}  // namespace fastpr::net
