// Reed–Solomon codec: MDS property, round-trips under every erasure
// pattern that should be decodable, repair paths, both constructions.
#include "ec/rs_code.h"

#include <gtest/gtest.h>

#include <random>

#include "ec/erasure_code.h"
#include "gf/gf256.h"
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

struct RsParam {
  int n;
  int k;
  RsCode::Construction construction;
};

class RsCodeTest : public ::testing::TestWithParam<RsParam> {};

TEST_P(RsCodeTest, GeneratorIsSystematic) {
  const auto p = GetParam();
  const RsCode code(p.n, p.k, p.construction);
  for (int r = 0; r < p.k; ++r) {
    for (int c = 0; c < p.k; ++c) {
      EXPECT_EQ(code.generator().at(r, c), r == c ? 1 : 0);
    }
  }
}

TEST_P(RsCodeTest, MdsPropertyRandomKSubsets) {
  const auto p = GetParam();
  const RsCode code(p.n, p.k, p.construction);
  std::mt19937 rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<int> rows(static_cast<size_t>(p.n));
    for (int i = 0; i < p.n; ++i) rows[static_cast<size_t>(i)] = i;
    std::shuffle(rows.begin(), rows.end(), rng);
    rows.resize(static_cast<size_t>(p.k));
    EXPECT_TRUE(code.generator().select_rows(rows).inverted().has_value());
  }
}

TEST_P(RsCodeTest, DecodeRecoversRandomErasures) {
  const auto p = GetParam();
  const RsCode code(p.n, p.k, p.construction);
  const size_t chunk_size = 257;  // odd size exercises region-op tails
  const auto data = random_data(p.k, chunk_size, 21);
  auto stripe = encode_stripe(code, data);
  const auto original = stripe;

  std::mt19937 rng(22);
  for (int erasures = 1; erasures <= p.n - p.k; ++erasures) {
    for (int trial = 0; trial < 20; ++trial) {
      auto damaged = original;
      std::vector<int> all(static_cast<size_t>(p.n));
      for (int i = 0; i < p.n; ++i) all[static_cast<size_t>(i)] = i;
      std::shuffle(all.begin(), all.end(), rng);
      std::vector<int> erased(all.begin(), all.begin() + erasures);
      for (int e : erased) {
        std::fill(damaged[static_cast<size_t>(e)].begin(),
                  damaged[static_cast<size_t>(e)].end(), 0);
      }
      std::vector<MutChunk> spans(damaged.begin(), damaged.end());
      ASSERT_TRUE(code.decode(erased, spans));
      EXPECT_EQ(damaged, original)
          << "erasures=" << erasures << " trial=" << trial;
    }
  }
}

TEST_P(RsCodeTest, TooManyErasuresRejected) {
  const auto p = GetParam();
  const RsCode code(p.n, p.k, p.construction);
  const auto data = random_data(p.k, 64, 23);
  auto stripe = encode_stripe(code, data);
  std::vector<int> erased;
  for (int i = 0; i <= p.n - p.k; ++i) erased.push_back(i);
  std::vector<MutChunk> spans(stripe.begin(), stripe.end());
  EXPECT_FALSE(code.decode(erased, spans));
}

TEST_P(RsCodeTest, RepairChunkMatchesOriginal) {
  const auto p = GetParam();
  const RsCode code(p.n, p.k, p.construction);
  const auto data = random_data(p.k, 128, 24);
  const auto stripe = encode_stripe(code, data);

  for (int lost = 0; lost < p.n; ++lost) {
    std::vector<bool> available(static_cast<size_t>(p.n), true);
    available[static_cast<size_t>(lost)] = false;
    const auto helpers = code.repair_helpers(lost, available);
    ASSERT_EQ(static_cast<int>(helpers.size()), p.k);

    std::vector<ConstChunk> helper_data;
    for (int h : helpers) {
      helper_data.emplace_back(stripe[static_cast<size_t>(h)]);
    }
    std::vector<uint8_t> out(128);
    code.repair_chunk(lost, helpers, helper_data, out);
    EXPECT_EQ(out, stripe[static_cast<size_t>(lost)]) << "lost=" << lost;
  }
}

TEST_P(RsCodeTest, RepairCoefficientsReproduceChunk) {
  const auto p = GetParam();
  const RsCode code(p.n, p.k, p.construction);
  const auto data = random_data(p.k, 96, 25);
  const auto stripe = encode_stripe(code, data);

  // Streaming decode as the testbed destination performs it: per-helper
  // mul-XOR with the published coefficients.
  std::vector<bool> available(static_cast<size_t>(p.n), true);
  const int lost = p.n - 1;
  available[static_cast<size_t>(lost)] = false;
  const auto helpers = code.repair_helpers(lost, available);
  const auto coeffs = code.repair_coefficients(lost, helpers);
  ASSERT_EQ(coeffs.size(), helpers.size());
  std::vector<uint8_t> acc(96, 0);
  for (size_t i = 0; i < helpers.size(); ++i) {
    gf::mul_region_xor(acc.data(),
                       stripe[static_cast<size_t>(helpers[i])].data(),
                       coeffs[i], acc.size());
  }
  EXPECT_EQ(acc, stripe[static_cast<size_t>(lost)]);
}

INSTANTIATE_TEST_SUITE_P(
    Codes, RsCodeTest,
    ::testing::Values(RsParam{3, 2, RsCode::Construction::kCauchy},
                      RsParam{5, 3, RsCode::Construction::kCauchy},
                      RsParam{9, 6, RsCode::Construction::kCauchy},
                      RsParam{14, 10, RsCode::Construction::kCauchy},
                      RsParam{16, 12, RsCode::Construction::kCauchy},
                      RsParam{5, 3, RsCode::Construction::kVandermonde},
                      RsParam{9, 6, RsCode::Construction::kVandermonde},
                      RsParam{16, 12, RsCode::Construction::kVandermonde}),
    [](const auto& info) {
      return "RS" + std::to_string(info.param.n) + "_" +
             std::to_string(info.param.k) +
             (info.param.construction == RsCode::Construction::kCauchy
                  ? "_cauchy"
                  : "_vand");
    });

TEST(RsCode, ExhaustiveErasurePatternsSmallCode) {
  // RS(6,4): check ALL erasure patterns of size <= 2 decode exactly.
  const RsCode code(6, 4);
  const auto data = random_data(4, 40, 31);
  const auto original = encode_stripe(code, data);
  for (int a = 0; a < 6; ++a) {
    for (int b = a; b < 6; ++b) {
      auto damaged = original;
      std::vector<int> erased = a == b ? std::vector<int>{a}
                                       : std::vector<int>{a, b};
      for (int e : erased) {
        std::fill(damaged[static_cast<size_t>(e)].begin(),
                  damaged[static_cast<size_t>(e)].end(), 0xFF);
      }
      std::vector<MutChunk> spans(damaged.begin(), damaged.end());
      ASSERT_TRUE(code.decode(erased, spans));
      EXPECT_EQ(damaged, original) << "a=" << a << " b=" << b;
    }
  }
}

TEST(RsCode, CanDecodeExactlyTheMdsPatterns) {
  // RS(9,6) is MDS: every pattern of at most n - k = 3 erasures decodes,
  // and no pattern of 4 does.
  const RsCode code(9, 6);
  for (uint32_t mask = 0; mask < (1u << 9); ++mask) {
    std::vector<int> erased;
    for (int i = 0; i < 9; ++i) {
      if ((mask >> i) & 1u) erased.push_back(i);
    }
    if (erased.size() > 4) continue;
    EXPECT_EQ(code.can_decode(erased), erased.size() <= 3) << "mask " << mask;
  }
}

TEST(RsCode, ConstructionsAgreeOnDataPath) {
  // Systematic codes keep data chunks identical regardless of
  // construction; parity differs but both decode.
  const auto data = random_data(4, 50, 33);
  const RsCode cauchy(7, 4, RsCode::Construction::kCauchy);
  const RsCode vand(7, 4, RsCode::Construction::kVandermonde);
  const auto s1 = encode_stripe(cauchy, data);
  const auto s2 = encode_stripe(vand, data);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(s1[static_cast<size_t>(i)], s2[static_cast<size_t>(i)]);
  }
}

TEST(RsCode, InvalidParametersRejected) {
  EXPECT_THROW(RsCode(4, 4), CheckFailure);
  EXPECT_THROW(RsCode(3, 0), CheckFailure);
  EXPECT_THROW(RsCode(300, 4), CheckFailure);
}

TEST(RsCode, RepairHelpersRequireKAvailable) {
  const RsCode code(5, 3);
  std::vector<bool> available = {false, true, true, false, false};
  EXPECT_THROW(code.repair_helpers(0, available), CheckFailure);
}

TEST(RsCode, NameFormat) {
  EXPECT_EQ(RsCode(9, 6).name(), "RS(9,6)");
}

}  // namespace
}  // namespace fastpr::ec
