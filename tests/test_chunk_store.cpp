// ChunkStore: materialization, oracle fallback, throttling, failure
// injection.
#include "agent/chunk_store.h"

#include <gtest/gtest.h>

#include <chrono>

#include "agent/testbed.h"
#include "ec/rs_code.h"
#include "util/check.h"

namespace fastpr::agent {
namespace {

using cluster::ChunkRef;

ChunkStore::Options unthrottled() {
  ChunkStore::Options opts;
  opts.disk_bytes_per_sec = 0;
  return opts;
}

TEST(ChunkStore, WriteReadRoundTrip) {
  ChunkStore store(unthrottled());
  const ChunkRef ref{1, 2};
  std::vector<uint8_t> data = {1, 2, 3, 4};
  store.write(ref, data);
  EXPECT_TRUE(store.contains(ref));
  EXPECT_TRUE(store.has_materialized(ref));
  const auto got = store.read(ref);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, data);
}

TEST(ChunkStore, MissingChunkReturnsNullopt) {
  ChunkStore store(unthrottled());
  EXPECT_FALSE(store.read({0, 0}).has_value());
  EXPECT_FALSE(store.contains({0, 0}));
}

TEST(ChunkStore, EraseRemoves) {
  ChunkStore store(unthrottled());
  store.write({1, 1}, {9});
  store.erase({1, 1});
  EXPECT_FALSE(store.read({1, 1}).has_value());
  EXPECT_EQ(store.materialized_count(), 0u);
}

TEST(ChunkStore, ReadErrorInjection) {
  ChunkStore store(unthrottled());
  store.write({2, 0}, {1, 2, 3});
  store.inject_read_error({2, 0});
  EXPECT_FALSE(store.read({2, 0}).has_value());
  EXPECT_FALSE(store.read_unthrottled({2, 0}).has_value());
  store.clear_read_errors();
  EXPECT_TRUE(store.read({2, 0}).has_value());
}

TEST(ChunkStore, OracleServesUnwrittenChunks) {
  const ec::RsCode code(5, 3);
  const SyntheticOracle oracle(code, 4096, /*num_stripes=*/10, /*seed=*/3);
  ChunkStore store(unthrottled(), &oracle);
  const auto data = store.read({0, 0});
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->size(), 4096u);
  EXPECT_TRUE(store.contains({0, 0}));
  EXPECT_FALSE(store.has_materialized({0, 0}));
  // Out-of-range chunks stay absent.
  EXPECT_FALSE(store.read({99, 0}).has_value());
  EXPECT_FALSE(store.read({0, 7}).has_value());
}

TEST(ChunkStore, MaterializedOverridesOracle) {
  const ec::RsCode code(5, 3);
  const SyntheticOracle oracle(code, 64, 10, 3);
  ChunkStore store(unthrottled(), &oracle);
  std::vector<uint8_t> mine(64, 0xEE);
  store.write({0, 0}, mine);
  EXPECT_EQ(*store.read({0, 0}), mine);
}

TEST(ChunkStore, OracleParityIsConsistentWithCode) {
  // Decoding k oracle chunks must reproduce the oracle's parity chunk —
  // the property the whole testbed verification relies on.
  const ec::RsCode code(5, 3);
  const SyntheticOracle oracle(code, 512, 4, 11);
  std::vector<std::vector<uint8_t>> data;
  for (int i = 0; i < 3; ++i) data.push_back(*oracle.generate({2, i}));
  std::vector<ec::ConstChunk> spans(data.begin(), data.end());
  std::vector<std::vector<uint8_t>> parity(2, std::vector<uint8_t>(512));
  std::vector<ec::MutChunk> pspans(parity.begin(), parity.end());
  code.encode(spans, pspans);
  EXPECT_EQ(parity[0], *oracle.generate({2, 3}));
  EXPECT_EQ(parity[1], *oracle.generate({2, 4}));
}

TEST(ChunkStore, ThrottleSlowsIo) {
  ChunkStore::Options opts;
  opts.disk_bytes_per_sec = 20e6;  // 20 MB/s
  ChunkStore store(opts);
  // 12 MB of I/O against a 4 MiB burst: at least ~8 MB must wait for
  // refill — about 0.4 s at 20 MB/s.
  std::vector<uint8_t> data(4 << 20, 0x11);
  const auto start = std::chrono::steady_clock::now();
  store.write({0, 0}, data);
  (void)store.read({0, 0});
  (void)store.read({0, 0});
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GT(secs, 0.25);
}

TEST(ChunkStore, ChargeIoHonorsBucket) {
  ChunkStore::Options opts;
  opts.disk_bytes_per_sec = 4e6;
  ChunkStore store(opts);
  const auto start = std::chrono::steady_clock::now();
  store.charge_io(6'000'000);  // beyond burst: ~0.5+ s at 4 MB/s
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GT(secs, 0.3);
}

TEST(ChunkStore, ScrubCleanStoreFindsNothing) {
  ChunkStore store(unthrottled());
  store.write({0, 0}, std::vector<uint8_t>(100, 1));
  store.write({0, 1}, std::vector<uint8_t>(100, 2));
  EXPECT_TRUE(store.scrub().empty());
}

TEST(ChunkStore, ScrubDetectsSilentCorruption) {
  // A latent sector error flips a bit without any I/O error — exactly
  // what background scrubbing exists to find.
  ChunkStore store(unthrottled());
  store.write({3, 1}, std::vector<uint8_t>(4096, 0xAB));
  store.write({3, 2}, std::vector<uint8_t>(4096, 0xCD));
  store.corrupt({3, 1}, 1234);
  const auto damaged = store.scrub();
  ASSERT_EQ(damaged.size(), 1u);
  EXPECT_EQ(damaged[0], (ChunkRef{3, 1}));
  // Rewriting the chunk heals it.
  store.write({3, 1}, std::vector<uint8_t>(4096, 0xAB));
  EXPECT_TRUE(store.scrub().empty());
}

TEST(ChunkStore, CorruptRequiresMaterializedChunk) {
  ChunkStore store(unthrottled());
  EXPECT_THROW(store.corrupt({9, 9}, 0), CheckFailure);
}

}  // namespace
}  // namespace fastpr::agent
