// Concurrency stress tests. These exist primarily as sanitizer fodder:
// under -DFASTPR_SANITIZE=thread they hammer the lock-protected paths of
// TokenBucket, ThreadPool and ChunkStore from many threads at once so
// TSan can observe every pairing; the functional assertions double as
// plain correctness checks in the default build.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "agent/chunk_store.h"
#include "util/check.h"
#include "util/lock_order.h"
#include "util/mutex.h"
#include "util/thread_pool.h"
#include "util/token_bucket.h"
#include "util/units.h"

namespace fastpr {
namespace {

using agent::ChunkStore;
using cluster::ChunkRef;

TEST(TokenBucketStress, ConcurrentAcquireAndSetRate) {
  // Many acquirers race against a thread flapping the rate, including
  // dropping to a crawl and back. Tokens are conserved (no deadlock, no
  // lost wakeup) if every acquirer finishes.
  TokenBucket bucket(MBps(64), /*burst_bytes=*/64 * kKiB);
  std::atomic<int64_t> acquired{0};
  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  constexpr int64_t kBytes = 8 * kKiB;

  std::vector<std::thread> acquirers;
  acquirers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    acquirers.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        bucket.acquire(kBytes);
        acquired.fetch_add(kBytes, std::memory_order_relaxed);
      }
    });
  }
  std::thread flapper([&] {
    for (int i = 0; i < 50; ++i) {
      bucket.set_rate(MBps(1));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      bucket.set_rate(MBps(256));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    // Leave it generous so the tail of acquirers drains quickly.
    bucket.set_rate(MBps(1024));
  });
  for (auto& t : acquirers) t.join();
  flapper.join();
  EXPECT_EQ(acquired.load(), int64_t{kThreads} * kIters * kBytes);
}

TEST(TokenBucketStress, FlipToUnlimitedReleasesWaiters) {
  // A near-zero rate parks acquirers deep in the cv wait; flipping to
  // unlimited must release every one of them promptly.
  TokenBucket bucket(/*rate_bytes_per_sec=*/1.0, /*burst_bytes=*/1);
  std::atomic<int> released{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> waiters;
  waiters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    waiters.emplace_back([&] {
      bucket.acquire(MB(1));  // centuries at 1 B/s
      released.fetch_add(1, std::memory_order_relaxed);
    });
  }
  // Let them reach the wait, then open the floodgate.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(released.load(), 0);
  bucket.set_rate(0);  // unlimited
  for (auto& t : waiters) t.join();
  EXPECT_EQ(released.load(), kThreads);
}

TEST(TokenBucketStress, ConcurrentRateReads) {
  TokenBucket bucket(MBps(10));
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const double r = bucket.rate();
      EXPECT_TRUE(r == MBps(10) || r == MBps(20));
    }
  });
  for (int i = 0; i < 500; ++i) {
    bucket.set_rate(i % 2 == 0 ? MBps(20) : MBps(10));
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
}

TEST(ThreadPoolStress, SubmitWhileDestructingChurn) {
  // Tasks keep submitting follow-up work while the main thread tears the
  // pool down. The destructor contract is "queued tasks drain"; nested
  // submissions race that drain on purpose. All outer tasks must run;
  // nested futures may or may not be satisfied, but nothing may crash,
  // leak, or deadlock (ASan/TSan verify the first two).
  std::atomic<int> outer_ran{0};
  std::atomic<int> nested_ran{0};
  constexpr int kOuter = 64;
  {
    ThreadPool pool(4);
    for (int i = 0; i < kOuter; ++i) {
      pool.submit([&pool, &outer_ran, &nested_ran] {
        outer_ran.fetch_add(1, std::memory_order_relaxed);
        pool.submit(
            [&nested_ran] { nested_ran.fetch_add(1, std::memory_order_relaxed); });
      });
    }
    // Destructor runs here, concurrently with workers still submitting.
  }
  EXPECT_EQ(outer_ran.load(), kOuter);
  // Every nested task was submitted from inside a live worker, and a
  // worker only exits when the queue is empty — so the submitter (or a
  // sibling) always drains it. The pool never drops an accepted task.
  EXPECT_EQ(nested_ran.load(), kOuter);
}

TEST(ThreadPoolStress, ManyProducersOneShutdown) {
  std::atomic<int> ran{0};
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 100;
  {
    ThreadPool pool(2);
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&] {
        for (int i = 0; i < kPerProducer; ++i) {
          pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
        }
      });
    }
    for (auto& t : producers) t.join();
    // All submissions happened-before the destructor: all must run.
  }
  EXPECT_EQ(ran.load(), kProducers * kPerProducer);
}

TEST(ChunkStoreStress, ConcurrentReadWriteScrub) {
  ChunkStore::Options opts;  // unthrottled: stress the maps, not the clock
  ChunkStore store(opts);
  constexpr int kChunks = 32;
  const std::vector<uint8_t> blob(4 * kKiB, 0x5a);
  for (int i = 0; i < kChunks; ++i) {
    store.write(ChunkRef{i, 0}, blob);
  }

  std::atomic<bool> stop{false};
  std::atomic<int> read_failures{0};
  std::vector<std::thread> workers;
  // Readers sweep all chunks.
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < kChunks; ++i) {
          const auto data = store.read(ChunkRef{i, 0});
          if (!data.has_value() || data->size() != blob.size()) {
            read_failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  // A writer keeps rewriting (fresh checksums race the scrubber).
  workers.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < kChunks; ++i) {
        store.write(ChunkRef{i, 0}, blob);
      }
    }
  });
  // A scrubber runs continuously; contents are never corrupted here, so
  // it must never report damage.
  std::atomic<int> damage_reports{0};
  workers.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      damage_reports.fetch_add(static_cast<int>(store.scrub().size()),
                               std::memory_order_relaxed);
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : workers) t.join();

  EXPECT_EQ(read_failures.load(), 0);
  EXPECT_EQ(damage_reports.load(), 0);
  EXPECT_EQ(store.materialized_count(), static_cast<size_t>(kChunks));
}

TEST(ChunkStoreStress, ConcurrentErrorInjectionAndReads) {
  ChunkStore::Options opts;
  ChunkStore store(opts);
  const std::vector<uint8_t> blob(1 * kKiB, 0x11);
  constexpr int kChunks = 16;
  for (int i = 0; i < kChunks; ++i) store.write(ChunkRef{i, 0}, blob);

  std::atomic<bool> stop{false};
  std::thread injector([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < kChunks; ++i) store.inject_read_error(ChunkRef{i, 0});
      store.clear_read_errors();
    }
  });
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < kChunks; ++i) {
        const auto data = store.read(ChunkRef{i, 0});
        // Either outcome is legal mid-injection, but a present read must
        // be intact.
        if (data.has_value()) {
          EXPECT_EQ(data->size(), blob.size());
        }
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true, std::memory_order_relaxed);
  injector.join();
  reader.join();
  store.clear_read_errors();
  EXPECT_TRUE(store.read(ChunkRef{0, 0}).has_value());
}

// --- Runtime lock-order tracker (util/mutex.cpp) ---------------------------
//
// Active only in tracking builds (sanitizer presets / -DFASTPR_LOCK_TRACKING).
// Release builds compile the tracker out entirely, so these skip there.

TEST(LockTracker, DetectsAbbaCycleSingleThreaded) {
#if !FASTPR_LOCK_TRACKING_ENABLED
  GTEST_SKIP() << "lock tracking compiled out in this build";
#else
  // Unranked mutexes: ordering is learned from observed acquisitions.
  Mutex a;  // fastpr-lint: allow(lock-rank)
  Mutex b;  // fastpr-lint: allow(lock-rank)
  {
    MutexLock la(a);
    MutexLock lb(b);  // seeds the a -> b edge in the global order graph
  }
  MutexLock lb(b);
  // b -> a would close the cycle; the tracker must refuse before blocking.
  EXPECT_THROW({ MutexLock la(a); }, CheckFailure);
#endif
}

TEST(LockTracker, DetectsRankOrderViolation) {
#if !FASTPR_LOCK_TRACKING_ENABLED
  GTEST_SKIP() << "lock tracking compiled out in this build";
#else
  // Acquire against the declared hierarchy: send-queue (30) is ranked
  // above send-window (20), so window-then-queue is fine but
  // queue-then-window must throw.
  Mutex window{lock_order::kAgentSendWindow};
  Mutex queue{lock_order::kAgentSendQueue};
  {
    MutexLock lw(window);
    MutexLock lq(queue);  // ascending: fine
  }
  MutexLock lq(queue);
  EXPECT_THROW({ MutexLock lw(window); }, CheckFailure);
#endif
}

TEST(LockTracker, ReleaseInLifoOrderIsClean) {
#if !FASTPR_LOCK_TRACKING_ENABLED
  GTEST_SKIP() << "lock tracking compiled out in this build";
#else
  Mutex window{lock_order::kAgentSendWindow};
  Mutex queue{lock_order::kAgentSendQueue};
  for (int i = 0; i < 100; ++i) {
    MutexLock lw(window);
    MutexLock lq(queue);
  }
  SUCCEED();
#endif
}

}  // namespace
}  // namespace fastpr
