// GF(256) kernel throughput: GB/s for every dispatchable variant
// (scalar / ssse3 / avx2 / gfni) across the region ops, plus the
// headline fused-dot comparison — one dot_region_xor over k sources vs
// the per-source mul_region_xor loop it replaced in the decode path.
// Also the CRC-32C rung: the portable slicing-by-8 loop vs the
// dispatched crc32c() every stored chunk pays, and the path it takes.
//
// Bytes accounting matches bench_algorithms: single-source ops count
// `len` per call; the k-source dot counts `k * len` (the bytes the
// decode actually consumed). Run from a release build only; report the
// kernel column that matches the host's dispatched variant.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "gf/gf256.h"
#include "util/crc32c.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/units.h"

using namespace fastpr;

namespace {

constexpr int kDotSources = 6;  // RS(9,6) data-chunk decode fan-in

std::vector<uint8_t> random_bytes(Rng& rng, size_t n) {
  std::vector<uint8_t> out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.uniform(0, 255));
  return out;
}

/// Best of three ~0.12 s measurement windows, in GB/s over
/// `bytes_per_call`. Best-of reports kernel capability; the mean on a
/// shared single-core host mostly measures the noisy neighbors.
double measure_gbps(size_t bytes_per_call, const std::function<void()>& op) {
  using clock = std::chrono::steady_clock;
  // Warm caches and the dispatch path.
  op();
  double best = 0;
  for (int window = 0; window < 3; ++window) {
    int64_t calls = 0;
    const auto start = clock::now();
    double elapsed = 0;
    do {
      for (int i = 0; i < 8; ++i) op();
      calls += 8;
      elapsed = std::chrono::duration<double>(clock::now() - start).count();
    } while (elapsed < 0.12);
    const double bytes =
        static_cast<double>(calls) * static_cast<double>(bytes_per_call);
    best = std::max(best, bytes / elapsed / 1e9);
  }
  return best;
}

struct Workspace {
  std::vector<std::vector<uint8_t>> srcs;
  std::vector<const uint8_t*> ptrs;
  std::vector<uint8_t> coeffs;
  std::vector<uint8_t> dst;

  Workspace(Rng& rng, size_t len) : dst(random_bytes(rng, len)) {
    for (int j = 0; j < kDotSources; ++j) {
      srcs.push_back(random_bytes(rng, len));
      coeffs.push_back(static_cast<uint8_t>(rng.uniform(2, 255)));
    }
    for (const auto& s : srcs) ptrs.push_back(s.data());
  }
};

}  // namespace

int main() {
  set_log_level(LogLevel::kWarn);
  std::vector<gf::Kernel> kernels;
  for (gf::Kernel k : {gf::Kernel::kScalar, gf::Kernel::kSsse3,
                       gf::Kernel::kAvx2, gf::Kernel::kGfni}) {
    if (gf::kernel_supported(k)) kernels.push_back(k);
  }

  std::printf("=== GF(256) kernel throughput (GB/s) ===\n");
  std::printf("host dispatch: %s   (override: FASTPR_GF_KERNEL)\n\n",
              gf::kernel_name(gf::active_kernel()));

  const std::vector<size_t> sizes = {4 * kKiB, 64 * kKiB, 1 * kMiB};

  std::vector<std::string> header = {"op", "size"};
  for (gf::Kernel k : kernels) header.emplace_back(gf::kernel_name(k));
  Table t(header);

  Rng rng(42);
  for (size_t len : sizes) {
    Workspace ws(rng, len);
    const std::string size_label =
        len >= kMiB ? std::to_string(len / kMiB) + " MiB"
                    : std::to_string(len / kKiB) + " KiB";

    auto row_for = [&](const char* op_name, size_t bytes_per_call,
                       const std::function<void()>& op) {
      std::vector<std::string> row = {op_name, size_label};
      for (gf::Kernel k : kernels) {
        gf::ScopedKernel pin(k);
        row.push_back(Table::fmt(measure_gbps(bytes_per_call, op), 2));
      }
      t.add_row(std::move(row));
    };

    row_for("xor_region", len, [&] {
      gf::xor_region(ws.dst.data(), ws.srcs[0].data(), len);
    });
    row_for("mul_region", len, [&] {
      gf::mul_region(ws.dst.data(), ws.srcs[0].data(), ws.coeffs[0], len);
    });
    row_for("mul_region_xor", len, [&] {
      gf::mul_region_xor(ws.dst.data(), ws.srcs[0].data(), ws.coeffs[0],
                         len);
    });
    row_for("dot_region_xor k=6", kDotSources * len, [&] {
      gf::dot_region_xor(ws.dst.data(), ws.ptrs.data(), ws.coeffs.data(),
                         kDotSources, len);
    });
  }
  t.print();

  // Headline: the decode-path rewrite. One fused pass over k=6 sources
  // vs k separate mul_region_xor passes (what RsCode/LrcCode/the agent
  // accumulator did before), at the 64 KiB testbed chunk scale.
  std::printf("\n=== fused dot vs per-source mul_region_xor loop "
              "(k=%d, 64 KiB) ===\n", kDotSources);
  Table h({"kernel", "per-src GB/s", "fused GB/s", "speedup"});
  const size_t len = 64 * kKiB;
  Workspace ws(rng, len);
  for (gf::Kernel k : kernels) {
    gf::ScopedKernel pin(k);
    const double loop = measure_gbps(kDotSources * len, [&] {
      for (int j = 0; j < kDotSources; ++j) {
        gf::mul_region_xor(ws.dst.data(), ws.ptrs[j], ws.coeffs[j], len);
      }
    });
    const double fused = measure_gbps(kDotSources * len, [&] {
      gf::dot_region_xor(ws.dst.data(), ws.ptrs.data(), ws.coeffs.data(),
                         kDotSources, len);
    });
    h.add_row({gf::kernel_name(k), Table::fmt(loop, 2), Table::fmt(fused, 2),
               Table::fmt(fused / loop, 2) + "x"});
  }
  h.print();

  // The decode-path headline: before this change RsCode/LrcCode and the
  // agent accumulator looped mul_region_xor per source on the repo's
  // then-best kernel (ssse3); now they issue one fused dot on whatever
  // the host dispatches. Measured as paired alternating windows so
  // turbo/noisy-neighbor drift hits both sides equally; the reported
  // speedup is the median of the per-pair ratios.
  const gf::Kernel before_kernel = gf::kernel_supported(gf::Kernel::kSsse3)
                                       ? gf::Kernel::kSsse3
                                       : gf::Kernel::kScalar;
  const gf::Kernel after_kernel = gf::best_supported_kernel();
  std::vector<double> ratios, before_gbps, after_gbps;
  for (int pair = 0; pair < 5; ++pair) {
    double before = 0, after = 0;
    {
      gf::ScopedKernel pin(before_kernel);
      before = measure_gbps(kDotSources * len, [&] {
        for (int j = 0; j < kDotSources; ++j) {
          gf::mul_region_xor(ws.dst.data(), ws.ptrs[j], ws.coeffs[j], len);
        }
      });
    }
    {
      gf::ScopedKernel pin(after_kernel);
      after = measure_gbps(kDotSources * len, [&] {
        gf::dot_region_xor(ws.dst.data(), ws.ptrs.data(), ws.coeffs.data(),
                           kDotSources, len);
      });
    }
    before_gbps.push_back(before);
    after_gbps.push_back(after);
    ratios.push_back(after / before);
  }
  std::sort(ratios.begin(), ratios.end());
  std::sort(before_gbps.begin(), before_gbps.end());
  std::sort(after_gbps.begin(), after_gbps.end());
  std::printf("\ndecode path, k=%d at 64 KiB: per-source loop (seed %s) "
              "%.2f GB/s -> fused dot (%s) %.2f GB/s = %.2fx (median of 5 "
              "paired runs)\n",
              kDotSources, gf::kernel_name(before_kernel), before_gbps[2],
              gf::kernel_name(after_kernel), after_gbps[2], ratios[2]);

  // CRC-32C at a packet and at a testbed chunk. Each call's result is
  // folded into `sink` so the loop cannot be optimized away.
  std::printf("\n=== CRC-32C throughput (GB/s) ===\n");
  std::printf("crc32c path on this host: %s\n\n", crc32c_path());
  Table c({"size", "crc32c_portable",
           std::string("crc32c (") + crc32c_path() + ")"});
  uint32_t sink = 0;
  for (size_t crc_len : {256 * kKiB, 4 * kMiB}) {
    const std::vector<uint8_t> data = random_bytes(rng, crc_len);
    const double portable = measure_gbps(
        crc_len, [&] { sink ^= crc32c_portable(data, sink); });
    const double dispatched =
        measure_gbps(crc_len, [&] { sink ^= crc32c(data, sink); });
    c.add_row({crc_len >= kMiB ? std::to_string(crc_len / kMiB) + " MiB"
                               : std::to_string(crc_len / kKiB) + " KiB",
               Table::fmt(portable, 2), Table::fmt(dispatched, 2)});
  }
  c.print();
  std::printf("(checksum sink %08x)\n", sink);
  return 0;
}
