// Buffer pool: recycling semantics, capacity classes, stats accounting,
// handle lifetime (including outliving the pool), and thread safety.
#include "util/buffer_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "util/check.h"

namespace fastpr {
namespace {

TEST(BufferPool, AcquireGivesRequestedSize) {
  auto pool = BufferPool::create();
  for (size_t len : {size_t{1}, size_t{100}, size_t{512}, size_t{513},
                     size_t{1} << 20}) {
    const auto buf = pool->acquire(len);
    EXPECT_EQ(buf.size(), len);
    EXPECT_NE(buf.data(), nullptr);
  }
  const auto empty = pool->acquire(0);
  EXPECT_EQ(empty.size(), 0u);
}

TEST(BufferPool, RecyclesAcrossAcquires) {
  auto pool = BufferPool::create();
  const uint8_t* first_storage = nullptr;
  {
    auto buf = pool->acquire(1000);
    first_storage = buf.data();
  }  // released back to the shelf
  auto again = pool->acquire(900);  // same capacity class (1024)
  EXPECT_EQ(again.data(), first_storage);
  const auto stats = pool->stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.recycled, 1);
}

TEST(BufferPool, DifferentClassesDoNotShareShelves) {
  auto pool = BufferPool::create();
  { auto small = pool->acquire(600); }
  auto large = pool->acquire(600 * 100);
  EXPECT_EQ(pool->stats().hits, 0);  // no cross-class reuse
}

TEST(BufferPool, SteadyStatePacketLoopNeverAllocates) {
  // The agent data-plane pattern: acquire, fill, drop, repeat. After the
  // first packet warms the shelf, every acquire must be a hit.
  auto pool = BufferPool::create();
  constexpr size_t kPacket = 256 * 1024;
  { auto warm = pool->acquire(kPacket); }
  const auto warm_stats = pool->stats();
  for (int i = 0; i < 1000; ++i) {
    auto p = pool->acquire(kPacket);
    p.data()[0] = static_cast<uint8_t>(i);
  }
  const auto stats = pool->stats();
  EXPECT_EQ(stats.misses, warm_stats.misses);  // zero new allocations
  EXPECT_EQ(stats.hits, warm_stats.hits + 1000);
}

TEST(BufferPool, ShelfCapBoundsCachedBuffers) {
  auto pool = BufferPool::create(/*max_shelf_buffers=*/2);
  {
    std::vector<PooledBuffer> live;
    for (int i = 0; i < 5; ++i) live.push_back(pool->acquire(1024));
  }  // 5 returns race for 2 shelf slots
  const auto stats = pool->stats();
  EXPECT_EQ(stats.recycled, 2);
  EXPECT_EQ(stats.dropped, 3);
}

TEST(BufferPool, KeepAllPoolOwnsNoMoreBuffersThanWereLive) {
  // Retention follows demand: every return is shelved, and a class
  // allocates only when all of its buffers are live, so the buffers it
  // ever allocated equal the most that were live at once.
  auto pool = BufferPool::create(BufferPool::kKeepAll);
  size_t peak = 0;
  for (size_t live : {size_t{70}, size_t{5}, size_t{100}, size_t{40}}) {
    std::vector<PooledBuffer> wave;
    for (size_t i = 0; i < live; ++i) wave.push_back(pool->acquire(4096));
    peak = std::max(peak, live);
  }
  const auto stats = pool->stats();
  EXPECT_EQ(stats.misses, static_cast<int64_t>(peak));
  EXPECT_EQ(stats.recycled, 70 + 5 + 100 + 40);
  EXPECT_EQ(stats.dropped, 0);
}

TEST(BufferPool, ChunkPoolKeepsEveryReturn) {
  const auto& chunks = BufferPool::chunks();
  ASSERT_NE(chunks, BufferPool::global());
  const auto before = chunks->stats();
  {
    std::vector<PooledBuffer> live;
    for (size_t i = 0; i < 2 * BufferPool::kPacketShelfBuffers; ++i) {
      live.push_back(chunks->acquire(1536));
    }
  }
  const auto after = chunks->stats();
  EXPECT_EQ(after.recycled - before.recycled,
            static_cast<int64_t>(2 * BufferPool::kPacketShelfBuffers));
  EXPECT_EQ(after.dropped, before.dropped);
}

TEST(BufferPool, HandleOutlivesPool) {
  PooledBuffer survivor;
  {
    auto pool = BufferPool::create();
    survivor = pool->acquire(4096);
    survivor.data()[0] = 0xAA;
  }  // pool object gone; the core lives on via the handle
  EXPECT_EQ(survivor.size(), 4096u);
  EXPECT_EQ(survivor[0], 0xAA);
  survivor.release();  // returns into the orphaned core; must not crash
}

TEST(BufferPool, MoveTransfersOwnership) {
  auto pool = BufferPool::create();
  auto a = pool->acquire(100);
  a.data()[0] = 7;
  PooledBuffer b = std::move(a);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): post-move spec
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b[0], 7);
  b = PooledBuffer();  // release via assignment
  EXPECT_GE(pool->stats().recycled, 1);
}

TEST(BufferPool, AssignAndEqualityBehaveLikeVector) {
  PooledBuffer buf;
  buf = {1, 2, 3};
  const std::vector<uint8_t> expect{1, 2, 3};
  EXPECT_EQ(buf, expect);
  EXPECT_EQ(expect, buf);
  buf.assign(expect.data(), expect.size());
  EXPECT_EQ(buf, expect);
  buf.assign(4, 9);
  EXPECT_EQ(buf, (std::vector<uint8_t>{9, 9, 9, 9}));
  const auto copy = buf.clone();
  EXPECT_EQ(copy, buf);
  buf.assign(size_t{0}, uint8_t{0});
  EXPECT_TRUE(buf.empty());
}

TEST(BufferPool, ResizeUninitializedReusesStorage) {
  PooledBuffer buf;
  buf.assign(300, 0x11);
  const uint8_t* storage = buf.data();
  buf.resize_uninitialized(200);  // fits: same storage, no pool traffic
  EXPECT_EQ(buf.data(), storage);
  EXPECT_EQ(buf.size(), 200u);
  buf.resize_uninitialized(1 << 16);  // outgrows the class: re-acquire
  EXPECT_EQ(buf.size(), size_t{1} << 16);
}

TEST(BufferPool, TrimFreesShelvedStorage) {
  auto pool = BufferPool::create();
  { auto buf = pool->acquire(2048); }
  pool->trim();
  auto buf = pool->acquire(2048);
  EXPECT_EQ(pool->stats().misses, 2);  // shelf was emptied
}

TEST(BufferPool, OversizeRequestTripsCheck) {
  auto pool = BufferPool::create();
  EXPECT_THROW(pool->acquire(size_t{1} << 29), CheckFailure);
}

TEST(BufferPoolStress, ConcurrentAcquireRelease) {
  auto pool = BufferPool::create();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&pool, t] {
      for (int i = 0; i < 500; ++i) {
        auto buf = pool->acquire(static_cast<size_t>(512 + t * 700));
        buf.data()[0] = static_cast<uint8_t>(i);
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto stats = pool->stats();
  EXPECT_EQ(stats.hits + stats.misses, 4 * 500);
}

}  // namespace
}  // namespace fastpr
