// ChunkStore: materialization, oracle fallback, throttling, failure
// injection.
#include "agent/chunk_store.h"

#include <gtest/gtest.h>

#include <chrono>

#include "agent/testbed.h"
#include "ec/lrc_code.h"
#include "ec/rs_code.h"
#include "util/check.h"
#include "util/rng.h"

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
  EXPECT_EQ(store.chunk_size(ref), std::optional<uint64_t>(4));
  EXPECT_TRUE(store.has_materialized(ref));
  const auto got = store.read(ref);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, data);
}

TEST(ChunkStore, MissingChunkReturnsNullopt) {
  ChunkStore store(unthrottled());
  EXPECT_FALSE(store.read({0, 0}).has_value());
  EXPECT_FALSE(store.chunk_size({0, 0}).has_value());
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
  EXPECT_EQ(store.chunk_size({0, 0}), std::optional<uint64_t>(4096));
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

TEST(ChunkStore, OracleSlicesEqualWholeChunk) {
  // Every index of an RS and an LRC code, data and parity alike: a slice
  // synthesized on its own equals that range of the whole chunk, through
  // the oracle and through the store.
  const ec::RsCode rs(9, 6);
  const ec::LrcCode lrc(12, 2, 2);
  const ec::ErasureCode* codes[] = {&rs, &lrc};
  constexpr uint64_t kBytes = 4099;
  Rng rng(17);
  for (const ec::ErasureCode* code : codes) {
    const SyntheticOracle oracle(*code, kBytes, /*num_stripes=*/5,
                                 /*seed=*/9);
    const ChunkStore store(unthrottled(), &oracle);
    EXPECT_EQ(oracle.chunk_bytes(), kBytes);
    for (int index = 0; index < code->n(); ++index) {
      const ChunkRef ref{3, index};
      const auto whole = oracle.generate(ref);
      ASSERT_TRUE(whole.has_value());
      ASSERT_EQ(whole->size(), kBytes);
      std::vector<std::pair<uint64_t, uint64_t>> ranges = {
          {0, 0}, {kBytes, 0}, {kBytes - 1, 1}, {0, kBytes}, {5, 1}};
      for (int r = 0; r < 20; ++r) {
        const auto offset = static_cast<uint64_t>(rng.uniform(0, kBytes));
        const auto len =
            static_cast<uint64_t>(rng.uniform(0, kBytes - offset));
        ranges.emplace_back(offset, len);
      }
      for (const auto& [offset, len] : ranges) {
        const std::vector<uint8_t> expected(whole->begin() + offset,
                                            whole->begin() + offset + len);
        std::vector<uint8_t> got(len, 0xA5);
        EXPECT_TRUE(oracle.read_slice(ref, offset, got));
        EXPECT_EQ(got, expected) << "index " << index << " @" << offset;
        std::fill(got.begin(), got.end(), 0x5A);
        EXPECT_TRUE(store.read_slice(ref, offset, got));
        EXPECT_EQ(got, expected) << "index " << index << " @" << offset;
      }
    }
    std::vector<uint8_t> one(1);
    std::vector<uint8_t> two(2);
    EXPECT_FALSE(oracle.read_slice({5, 0}, 0, one));   // unknown stripe
    EXPECT_FALSE(oracle.read_slice({-1, 0}, 0, one));
    EXPECT_FALSE(oracle.read_slice({0, code->n()}, 0, one));  // index
    EXPECT_FALSE(oracle.read_slice({0, -1}, 0, {}));
    EXPECT_FALSE(oracle.read_slice({0, 0}, kBytes, one));     // overrun
    EXPECT_FALSE(oracle.read_slice({0, 0}, kBytes - 1, two));
    EXPECT_FALSE(oracle.read_slice({0, 0}, kBytes + 1, {}));
    EXPECT_FALSE(store.read_slice({5, 0}, 0, one));
    EXPECT_FALSE(store.read_slice({0, 0}, kBytes - 1, two));
    EXPECT_FALSE(store.chunk_size({5, 0}).has_value());
  }
}

TEST(ChunkStore, ReadSliceCoversMaterializedErroredAndAbsentChunks) {
  const ec::RsCode code(5, 3);
  const SyntheticOracle oracle(code, 64, 4, 3);
  ChunkStore store(unthrottled(), &oracle);
  std::vector<uint8_t> mine(10);
  for (size_t i = 0; i < mine.size(); ++i) {
    mine[i] = static_cast<uint8_t>(100 + i);
  }
  store.write({0, 0}, mine);  // shorter than the oracle's chunks
  EXPECT_EQ(store.chunk_size({0, 0}), std::optional<uint64_t>(10));

  std::vector<uint8_t> got(4);
  EXPECT_TRUE(store.read_slice({0, 0}, 6, got));  // last byte included
  EXPECT_EQ(got, std::vector<uint8_t>(mine.begin() + 6, mine.end()));
  EXPECT_TRUE(store.read_slice({0, 0}, 10, {}));
  EXPECT_FALSE(store.read_slice({0, 0}, 7, got));  // overrun
  EXPECT_FALSE(store.read_slice({0, 0}, 11, {}));

  store.inject_read_error({0, 0});
  EXPECT_FALSE(store.read_slice({0, 0}, 0, got));
  EXPECT_FALSE(store.chunk_size({0, 0}).has_value());
  store.inject_read_error({1, 2});  // oracle-backed chunk
  EXPECT_FALSE(store.read_slice({1, 2}, 0, got));
  EXPECT_FALSE(store.chunk_size({1, 2}).has_value());
  store.clear_read_errors();
  EXPECT_TRUE(store.read_slice({0, 0}, 0, got));
  EXPECT_TRUE(store.read_slice({1, 2}, 0, got));

  const ChunkStore bare(unthrottled());  // no oracle: nothing to fall to
  EXPECT_FALSE(bare.read_slice({0, 0}, 0, got));
  EXPECT_FALSE(bare.read_slice({0, 0}, 0, {}));
  EXPECT_FALSE(bare.chunk_size({0, 0}).has_value());
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
