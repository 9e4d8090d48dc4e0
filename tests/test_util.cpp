// Utility substrate: stats, RNG helpers, token bucket timing, thread
// pool, table rendering, check macros.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/metrics.h"
#include "util/check.h"
#include "util/crc32c.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/token_bucket.h"
#include "util/units.h"

namespace fastpr {
namespace {

TEST(Check, ThrowsWithContext) {
  try {
    FASTPR_CHECK_MSG(1 == 2, "custom detail " << 42);
    FAIL() << "expected throw";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom detail 42"), std::string::npos);
  }
}

TEST(Check, CarriesStructuredFields) {
  try {
    FASTPR_CHECK_MSG(2 + 2 == 5, "math " << "broke");
    FAIL() << "expected throw";
  } catch (const CheckFailure& e) {
    EXPECT_EQ(e.expression(), "2 + 2 == 5");
    EXPECT_NE(e.file().find("test_util.cpp"), std::string::npos);
    EXPECT_GT(e.line(), 0);
    EXPECT_EQ(e.message(), "math broke");
  }
}

TEST(Check, PlainCheckHasEmptyMessage) {
  try {
    FASTPR_CHECK(false);
    FAIL() << "expected throw";
  } catch (const CheckFailure& e) {
    EXPECT_EQ(e.expression(), "false");
    EXPECT_TRUE(e.message().empty());
  }
}

TEST(Check, MessageExpressionIsLazy) {
  // The streamed message must not be evaluated when the check passes:
  // FASTPR_CHECK_MSG sits on hot paths and an eager message would turn
  // every call into a string build.
  int evaluations = 0;
  const auto expensive = [&evaluations] {
    ++evaluations;
    return std::string("pricey");
  };
  FASTPR_CHECK_MSG(true, expensive());
  EXPECT_EQ(evaluations, 0);
  EXPECT_THROW(FASTPR_CHECK_MSG(false, expensive()), CheckFailure);
  EXPECT_EQ(evaluations, 1);
}

TEST(Summary, BasicStatistics) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.stddev(), 1.1180, 1e-3);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 4.0);
}

TEST(Summary, EmptyThrows) {
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW(s.mean(), CheckFailure);
}

TEST(Summary, EmptyPercentileThrows) {
  Summary s;
  EXPECT_THROW(s.percentile(0.5), CheckFailure);
  // Once populated, the same call succeeds.
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 7.0);
}

TEST(Logging, SinkCapturesFormattedLines) {
  const LogLevel prior = log_level();
  set_log_level(LogLevel::kInfo);
  std::vector<std::pair<LogLevel, std::string>> captured;
  set_log_sink([&captured](LogLevel level, const std::string& line) {
    captured.emplace_back(level, line);
  });
  LOG_WARN("sink test " << 42);
  LOG_DEBUG("below threshold, never reaches the sink");
  set_log_sink(nullptr);
  set_log_level(prior);
  LOG_WARN("after reset: back on stderr, not in `captured`");

  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].first, LogLevel::kWarn);
  const std::string& line = captured[0].second;
  EXPECT_NE(line.find("WARN"), std::string::npos);
  EXPECT_NE(line.find("sink test 42"), std::string::npos);
  // Monotonic offset ("+<seconds>") and thread id ("T<n>") per line.
  EXPECT_NE(line.find(" +"), std::string::npos);
  EXPECT_NE(line.find(" T"), std::string::npos);
}

TEST(Rng, SampleDistinctProperties) {
  Rng rng(1);
  const auto sample = rng.sample_distinct(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<int> distinct(sample.begin(), sample.end());
  EXPECT_EQ(distinct.size(), 20u);
  for (int v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 50);
  }
}

TEST(Rng, SampleDistinctFullUniverse) {
  Rng rng(2);
  const auto sample = rng.sample_distinct(5, 5);
  std::set<int> distinct(sample.begin(), sample.end());
  EXPECT_EQ(distinct.size(), 5u);
  EXPECT_THROW(rng.sample_distinct(3, 4), CheckFailure);
}

TEST(Rng, UniformBoundsInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Units, Conversions) {
  EXPECT_EQ(MB(64), 64 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(MBps(100), 100.0 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(Gbps(1), 1e9 / 8);
}

TEST(TokenBucket, UnlimitedNeverBlocks) {
  TokenBucket bucket(0);  // unlimited
  const auto start = std::chrono::steady_clock::now();
  bucket.acquire(100'000'000);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 0.05);
}

TEST(TokenBucket, RateApproximatelyEnforced) {
  // 10 MB/s with a 64 KiB burst: acquiring 2 MB beyond the burst should
  // take roughly 0.2 s.
  TokenBucket bucket(10e6, 64 << 10);
  bucket.acquire(64 << 10);  // drain the initial burst
  const auto start = std::chrono::steady_clock::now();
  bucket.acquire(2'000'000);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GT(secs, 0.12);
  EXPECT_LT(secs, 0.6);
}

TEST(TokenBucket, SetRateUnblocksWaiters) {
  TokenBucket bucket(1.0, 16);  // 1 byte/s: effectively frozen
  bucket.acquire(16);
  std::atomic<bool> done{false};
  std::thread waiter([&] {
    bucket.acquire(1'000'000);
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(done.load());
  bucket.set_rate(0);  // unlimited
  waiter.join();
  EXPECT_TRUE(done.load());
}

TEST(TokenBucket, FifoCompletionOrderUnderContention) {
  // Freeze the bucket, queue four burst-sized acquirers with staggered
  // arrivals, then open the tap: the FIFO ticket lock must complete
  // them strictly in arrival order — a later waiter can never overtake
  // an earlier one on a lucky wakeup.
  TokenBucket bucket(1.0, 1024);  // 1 byte/s: effectively frozen
  bucket.acquire(1024);           // drain the initial burst
  Mutex order_mutex{lock_order::kUtilLogging};
  std::vector<int> completions;
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      bucket.acquire(1024);
      MutexLock lock(order_mutex);
      completions.push_back(i);
    });
    // Stagger arrivals so ticket order matches thread index.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  bucket.set_rate(200'000);  // ~5 ms per queued slice
  for (auto& t : threads) t.join();
  EXPECT_EQ(completions, (std::vector<int>{0, 1, 2, 3}));
}

TEST(TokenBucket, LargeAcquireNotStarvedBySmallStream) {
  // One 64 KiB acquirer races a stream of 4 KiB acquirers on a shared
  // bucket. Slicing + FIFO tickets interleave them, so the large
  // request finishes in bounded time instead of waiting for the stream
  // to dry up.
  TokenBucket bucket(MBps(2), 4 << 10);
  bucket.acquire(4 << 10);  // drain the burst so everyone queues
  std::atomic<bool> large_done{false};
  std::thread large([&] {
    bucket.acquire(64 << 10);
    large_done.store(true);
  });
  std::thread small([&] {
    // More small bytes than the large request; without fairness these
    // could starve it indefinitely.
    for (int i = 0; i < 64 && !large_done.load(); ++i) {
      bucket.acquire(4 << 10);
    }
  });
  large.join();
  small.join();
  EXPECT_TRUE(large_done.load());
}

TEST(TokenBucket, BlockedAcquireRecordsWaitHistogram) {
  auto& h =
      telemetry::MetricsRegistry::global().histogram("tokenbucket.wait_ns");
  const auto before = h.snapshot();
  TokenBucket bucket(MBps(10), 16 << 10);
  bucket.acquire(16 << 10);  // drain the burst
  bucket.acquire(256 << 10);  // ~25 ms of shaping — must block
  const auto after = h.snapshot();
#if FASTPR_TELEMETRY_ENABLED
  EXPECT_GT(after.count, before.count);
  EXPECT_GT(after.sum, before.sum);
#else
  EXPECT_EQ(after.count, before.count);
#endif
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter, i] {
      counter.fetch_add(1);
      return i * 2;
    }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * 2);
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(Table, AlignedRendering) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "2.5"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  // Header, separator, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, ArityChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckFailure);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fmt(2.0, 3), "2.000");
}

TEST(Crc32c, KnownVectors) {
  // RFC 3720 / common test vectors for CRC-32C, through the dispatched
  // path and the portable reference alike.
  const uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  const std::vector<uint8_t> zeros(32, 0);
  const std::vector<uint8_t> ffs(32, 0xFF);
  for (auto* fn : {&crc32c, &crc32c_portable}) {
    EXPECT_EQ(fn(std::span<const uint8_t>(digits, 9), 0), 0xE3069283u);
    EXPECT_EQ(fn(zeros, 0), 0x8A9136AAu);
    EXPECT_EQ(fn(ffs, 0), 0x62A8AB43u);
    EXPECT_EQ(fn(std::span<const uint8_t>(), 0), 0u);
  }
}

TEST(Crc32c, DispatchedMatchesPortable) {
  // Lengths around the 8-byte step and its tail, at every start offset
  // mod 8, with a zero, an all-ones and a random seed, one-shot and
  // chained over random splits.
  const std::string path = crc32c_path();
  EXPECT_TRUE(path == "sse4.2" || path == "portable") << path;
  Rng rng(0xc5c3);
  const size_t lengths[] = {0,  1,  7,  8,    9,
                            63, 64, 65, 4096, 256 * kKiB + 3,
                            4 * kMiB + 7};
  std::vector<uint8_t> buf(4 * kMiB + 7 + 8);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.uniform(0, 255));
  const uint32_t seeds[] = {0, 0xFFFFFFFFu,
                            static_cast<uint32_t>(rng.uniform(0, 0xFFFFFFFF))};
  for (size_t len : lengths) {
    for (size_t start = 0; start < 8; ++start) {
      const std::span<const uint8_t> data(buf.data() + start, len);
      for (uint32_t seed : seeds) {
        const uint32_t want = crc32c_portable(data, seed);
        ASSERT_EQ(crc32c(data, seed), want)
            << "len " << len << " start " << start << " seed " << seed;
        uint32_t chained = seed;
        size_t off = 0;
        while (off < len) {
          const auto piece = static_cast<size_t>(
              rng.uniform(0, static_cast<int64_t>(std::min<size_t>(
                                 len - off, 2 * kKiB))));
          chained = crc32c(data.subspan(off, piece), chained);
          off += piece;
        }
        EXPECT_EQ(chained, want)
            << "chained len " << len << " start " << start;
      }
    }
  }
}

TEST(Crc32c, StreamingMatchesOneShot) {
  std::vector<uint8_t> data(1000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 7);
  }
  const uint32_t whole = crc32c(data);
  uint32_t chained = 0;
  for (size_t off = 0; off < data.size(); off += 137) {
    const size_t len = std::min<size_t>(137, data.size() - off);
    chained = crc32c(std::span<const uint8_t>(data.data() + off, len),
                     chained);
  }
  EXPECT_EQ(chained, whole);
}

TEST(Crc32c, DetectsSingleBitFlips) {
  std::vector<uint8_t> data(4096, 0x5A);
  const uint32_t good = crc32c(data);
  for (size_t i : {size_t{0}, size_t{17}, size_t{4095}}) {
    auto bad = data;
    bad[i] ^= 0x01;
    EXPECT_NE(crc32c(bad), good) << "flip at " << i;
  }
}

}  // namespace
}  // namespace fastpr
