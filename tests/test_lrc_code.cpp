// Azure-style LRC: local repair locality (k' = k/l), parity structure,
// multi-failure decode through the local/global cascade.
#include "ec/lrc_code.h"

#include <gtest/gtest.h>

#include <random>

#include "ec/erasure_code.h"
#include "util/check.h"

namespace fastpr::ec {
namespace {

std::vector<std::vector<uint8_t>> random_data(int k, size_t chunk_size,
                                              uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::vector<uint8_t>> data(static_cast<size_t>(k),
                                         std::vector<uint8_t>(chunk_size));
  for (auto& chunk : data) {
    for (auto& b : chunk) b = static_cast<uint8_t>(rng());
  }
  return data;
}

struct LrcParam {
  int k, l, g;
};

class LrcCodeTest : public ::testing::TestWithParam<LrcParam> {};

TEST_P(LrcCodeTest, Layout) {
  const auto p = GetParam();
  const LrcCode code(p.k, p.l, p.g);
  EXPECT_EQ(code.n(), p.k + p.l + p.g);
  EXPECT_EQ(code.k(), p.k);
  EXPECT_EQ(code.group_size(), p.k / p.l);
}

TEST_P(LrcCodeTest, LocalRepairFetchesGroupOnly) {
  const auto p = GetParam();
  const LrcCode code(p.k, p.l, p.g);
  const int gs = p.k / p.l;
  for (int i = 0; i < p.k + p.l; ++i) {
    EXPECT_EQ(code.repair_fetch_count(i), gs) << "index " << i;
  }
  for (int i = p.k + p.l; i < code.n(); ++i) {
    EXPECT_EQ(code.repair_fetch_count(i), p.k);  // global parity
  }
}

TEST_P(LrcCodeTest, SingleChunkLocalRepairExact) {
  const auto p = GetParam();
  const LrcCode code(p.k, p.l, p.g);
  const auto data = random_data(p.k, 130, 41);
  const auto stripe = encode_stripe(code, data);

  for (int lost = 0; lost < code.n(); ++lost) {
    std::vector<bool> available(static_cast<size_t>(code.n()), true);
    available[static_cast<size_t>(lost)] = false;
    const auto helpers = code.repair_helpers(lost, available);
    // Local repair touches exactly k' chunks, all within the group.
    if (code.group_of(lost) >= 0) {
      EXPECT_EQ(static_cast<int>(helpers.size()), code.group_size());
      for (int h : helpers) {
        EXPECT_EQ(code.group_of(h), code.group_of(lost));
      }
    }
    std::vector<ConstChunk> helper_data;
    for (int h : helpers) {
      helper_data.emplace_back(stripe[static_cast<size_t>(h)]);
    }
    std::vector<uint8_t> out(130);
    code.repair_chunk(lost, helpers, helper_data, out);
    EXPECT_EQ(out, stripe[static_cast<size_t>(lost)]) << "lost=" << lost;
  }
}

TEST_P(LrcCodeTest, DegradedLocalGroupFallsBackToGlobal) {
  const auto p = GetParam();
  if (p.g == 0) return;  // needs a global parity for the fallback
  const LrcCode code(p.k, p.l, p.g);
  const auto data = random_data(p.k, 64, 42);
  const auto stripe = encode_stripe(code, data);

  // Lose chunk 0 AND its local parity: local repair impossible, but the
  // global parity still covers it.
  std::vector<bool> available(static_cast<size_t>(code.n()), true);
  available[0] = false;
  available[static_cast<size_t>(p.k)] = false;  // local parity of group 0
  const auto helpers = code.repair_helpers(0, available);
  std::vector<ConstChunk> helper_data;
  for (int h : helpers) {
    EXPECT_TRUE(available[static_cast<size_t>(h)]);
    helper_data.emplace_back(stripe[static_cast<size_t>(h)]);
  }
  std::vector<uint8_t> out(64);
  code.repair_chunk(0, helpers, helper_data, out);
  EXPECT_EQ(out, stripe[0]);
}

TEST_P(LrcCodeTest, DecodeMultiFailureCascade) {
  const auto p = GetParam();
  const LrcCode code(p.k, p.l, p.g);
  const auto data = random_data(p.k, 80, 43);
  const auto original = encode_stripe(code, data);

  // One loss per local group is always decodable locally, in any order.
  auto damaged = original;
  std::vector<int> erased;
  const int gs = p.k / p.l;
  for (int group = 0; group < p.l; ++group) erased.push_back(group * gs);
  for (int e : erased) {
    std::fill(damaged[static_cast<size_t>(e)].begin(),
              damaged[static_cast<size_t>(e)].end(), 0);
  }
  std::vector<MutChunk> spans(damaged.begin(), damaged.end());
  ASSERT_TRUE(code.decode(erased, spans));
  EXPECT_EQ(damaged, original);
}

INSTANTIATE_TEST_SUITE_P(
    Codes, LrcCodeTest,
    ::testing::Values(LrcParam{4, 2, 2}, LrcParam{6, 2, 2}, LrcParam{6, 3, 1},
                      LrcParam{12, 2, 2}, LrcParam{10, 5, 0}),
    [](const auto& info) {
      return "k" + std::to_string(info.param.k) + "l" +
             std::to_string(info.param.l) + "g" +
             std::to_string(info.param.g);
    });

TEST(LrcCode, AzureStyle12_2_2RepairTrafficHalved) {
  // LRC(12,2,2) repairs a data chunk from 6 chunks instead of 12 — the
  // §III k' substitution FastPR's LRC analysis uses.
  const LrcCode code(12, 2, 2);
  EXPECT_EQ(code.repair_fetch_count(0), 6);
  EXPECT_EQ(code.n(), 16);
}

TEST(LrcCode, LocalParityIsGroupXor) {
  const LrcCode code(4, 2, 1);
  const auto data = random_data(4, 16, 44);
  const auto stripe = encode_stripe(code, data);
  for (size_t b = 0; b < 16; ++b) {
    EXPECT_EQ(stripe[4][b], static_cast<uint8_t>(data[0][b] ^ data[1][b]));
    EXPECT_EQ(stripe[5][b], static_cast<uint8_t>(data[2][b] ^ data[3][b]));
  }
}

TEST(LrcCode, UndecodablePatternReturnsFalse) {
  // Lose an entire local group plus its parity with too few globals.
  const LrcCode code(4, 2, 1);
  const auto data = random_data(4, 32, 45);
  auto stripe = encode_stripe(code, data);
  std::vector<int> erased = {0, 1, 4};  // group 0 + its parity; g=1 < 2
  std::vector<MutChunk> spans(stripe.begin(), stripe.end());
  EXPECT_FALSE(code.decode(erased, spans));
}

TEST(LrcCode, CanDecodeIsExactBelowTheMdsBound) {
  // LRC(12,2,2): n - k = 4, yet four data chunks of one local group have
  // only their local parity and the two global parities to decode from.
  const LrcCode code(12, 2, 2);
  EXPECT_TRUE(code.can_decode({}));
  EXPECT_TRUE(code.can_decode({0, 1, 2}));
  EXPECT_FALSE(code.can_decode({0, 1, 2, 3}));
}

TEST(LrcCode, InvalidParametersRejected) {
  EXPECT_THROW(LrcCode(5, 2, 1), CheckFailure);  // k % l != 0
  EXPECT_THROW(LrcCode(0, 1, 1), CheckFailure);
}

}  // namespace
}  // namespace fastpr::ec
