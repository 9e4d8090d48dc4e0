// google-benchmark microbenchmarks for the hot kernels: GF(2^8) region
// ops, RS encode/repair, bipartite matching, Algorithm 1.
#include <benchmark/benchmark.h>

#include "core/recon_sets.h"
#include "ec/rs_code.h"
#include "gf/gf256.h"
#include "matching/hopcroft_karp.h"
#include "matching/incremental_matching.h"
#include "util/rng.h"

using namespace fastpr;

namespace {

// Coefficient sweep: c = 0 and c = 1 take the memset/memcpy and pure
// XOR fast paths, general c takes the table kernel — a single fixed
// coefficient hides those cliffs. Sizes cross the L1/L2/DRAM regimes.
void BM_GfMulRegionXor(benchmark::State& state) {
  const uint8_t c = static_cast<uint8_t>(state.range(0));
  const size_t len = static_cast<size_t>(state.range(1));
  std::vector<uint8_t> src(len, 0x37), dst(len, 0x11);
  for (auto _ : state) {
    gf::mul_region_xor(dst.data(), src.data(), c, len);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(len));
}
BENCHMARK(BM_GfMulRegionXor)
    ->ArgsProduct({{0, 1, 2, 0x1D, 0xFF}, {4 << 10, 64 << 10, 1 << 20}});

void BM_GfMulRegion(benchmark::State& state) {
  const uint8_t c = static_cast<uint8_t>(state.range(0));
  const size_t len = static_cast<size_t>(state.range(1));
  std::vector<uint8_t> src(len, 0x37), dst(len, 0x11);
  for (auto _ : state) {
    gf::mul_region(dst.data(), src.data(), c, len);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(len));
}
BENCHMARK(BM_GfMulRegion)
    ->ArgsProduct({{0, 1, 0x1D}, {64 << 10, 1 << 20}});

// The fused decode kernel at the fan-ins the codecs actually use:
// k=2 (LRC local repair), k=6 (RS(9,6)), k=12 (RS(16,12)).
void BM_GfDotRegionXor(benchmark::State& state) {
  const size_t num_src = static_cast<size_t>(state.range(0));
  const size_t len = static_cast<size_t>(state.range(1));
  std::vector<std::vector<uint8_t>> srcs(num_src,
                                         std::vector<uint8_t>(len, 0x37));
  std::vector<const uint8_t*> ptrs;
  std::vector<uint8_t> coeffs;
  for (size_t j = 0; j < num_src; ++j) {
    ptrs.push_back(srcs[j].data());
    coeffs.push_back(static_cast<uint8_t>(3 + 5 * j));
  }
  std::vector<uint8_t> dst(len, 0x11);
  for (auto _ : state) {
    gf::dot_region_xor(dst.data(), ptrs.data(), coeffs.data(), num_src, len);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(num_src * len));
}
BENCHMARK(BM_GfDotRegionXor)
    ->ArgsProduct({{2, 6, 12}, {64 << 10, 1 << 20}});

void BM_GfXorRegion(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  std::vector<uint8_t> src(len, 0x37), dst(len, 0x11);
  for (auto _ : state) {
    gf::xor_region(dst.data(), src.data(), len);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(len));
}
BENCHMARK(BM_GfXorRegion)->Arg(64 << 10)->Arg(1 << 20);

void BM_RsEncode(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const ec::RsCode code(n, k);
  const size_t chunk = 256 << 10;
  std::vector<std::vector<uint8_t>> data(
      static_cast<size_t>(k), std::vector<uint8_t>(chunk, 0xA1));
  std::vector<ec::ConstChunk> dspan(data.begin(), data.end());
  std::vector<std::vector<uint8_t>> parity(
      static_cast<size_t>(n - k), std::vector<uint8_t>(chunk));
  std::vector<ec::MutChunk> pspan(parity.begin(), parity.end());
  for (auto _ : state) {
    code.encode(dspan, pspan);
    benchmark::DoNotOptimize(parity.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(chunk) * k);
}
BENCHMARK(BM_RsEncode)->Args({9, 6})->Args({14, 10})->Args({16, 12});

void BM_RsRepairChunk(benchmark::State& state) {
  const ec::RsCode code(9, 6);
  const size_t chunk = 256 << 10;
  std::vector<std::vector<uint8_t>> data(6,
                                         std::vector<uint8_t>(chunk, 0x42));
  const auto stripe = ec::encode_stripe(code, data);
  std::vector<bool> available(9, true);
  available[8] = false;
  const auto helpers = code.repair_helpers(8, available);
  std::vector<ec::ConstChunk> hdata;
  for (int h : helpers) hdata.emplace_back(stripe[static_cast<size_t>(h)]);
  std::vector<uint8_t> out(chunk);
  for (auto _ : state) {
    code.repair_chunk(8, helpers, hdata, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(chunk) * 6);
}
BENCHMARK(BM_RsRepairChunk);

matching::BipartiteGraph random_graph(int left, int right, int degree,
                                      uint64_t seed) {
  Rng rng(seed);
  matching::BipartiteGraph g;
  g.left_count = left;
  for (int r = 0; r < right; ++r) {
    std::vector<int> adj;
    for (int d = 0; d < degree; ++d) {
      adj.push_back(static_cast<int>(rng.uniform(0, left - 1)));
    }
    g.add_right_vertex(std::move(adj));
  }
  return g;
}

void BM_HopcroftKarp(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  const auto g = random_graph(size, size, 8, 77);
  for (auto _ : state) {
    auto m = matching::hopcroft_karp(g);
    benchmark::DoNotOptimize(m.size);
  }
}
BENCHMARK(BM_HopcroftKarp)->Arg(64)->Arg(256)->Arg(1024);

void BM_IncrementalGroupInsert(benchmark::State& state) {
  // The MATCH probe pattern of Algorithm 1: insert groups of k=6 slots
  // over 99 left vertices until saturation, reset, repeat.
  Rng rng(99);
  std::vector<std::vector<int>> adjacencies;
  for (int i = 0; i < 32; ++i) {
    std::vector<int> adj;
    for (int d = 0; d < 8; ++d) {
      adj.push_back(static_cast<int>(rng.uniform(0, 98)));
    }
    adjacencies.push_back(std::move(adj));
  }
  matching::IncrementalMatcher matcher(99);
  for (auto _ : state) {
    matcher.reset();
    for (const auto& adj : adjacencies) {
      benchmark::DoNotOptimize(matcher.try_add_group(adj, 6));
    }
  }
}
BENCHMARK(BM_IncrementalGroupInsert);

void BM_FindReconstructionSets(benchmark::State& state) {
  const int chunks = static_cast<int>(state.range(0));
  Rng rng(5);
  cluster::StripeLayout layout(100, 9);
  for (int s = 0; s < chunks; ++s) {
    std::vector<cluster::NodeId> nodes = {0};
    for (int p : rng.sample_distinct(99, 8)) nodes.push_back(p + 1);
    layout.add_stripe(nodes);
  }
  std::vector<cluster::NodeId> healthy;
  for (int i = 1; i < 100; ++i) healthy.push_back(i);
  const ec::RsCode code(9, 6);
  for (auto _ : state) {
    auto sets =
        core::find_reconstruction_sets(layout, 0, healthy, code, {});
    benchmark::DoNotOptimize(sets.size());
  }
}
BENCHMARK(BM_FindReconstructionSets)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond);

}  // namespace
